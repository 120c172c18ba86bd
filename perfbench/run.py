#!/usr/bin/env python3
"""bgwtau benchmark: one workload, one fresh interpreter, one seed.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/bgwtau``.  Load model: a closed loop with one client on one thread.
The run repeats the workload's job mix back to back until ``--seconds``
have passed (at least twice), clearing every in-process cache before each
repetition so each one starts cold.  Just before each timed job a fixed
reference task (``reference_s``) is timed too; a time metric is the sum over
jobs of the median over repetitions of job seconds / reference seconds,
times the reference's time on the host the benchmark was built on
(REF_NOMINAL_S).  The speed of a shared host drifts by up to 2x within
minutes, and the paired reference cancels that drift (README.md has the
measurements).  The seed only draws the rational N_s of the rational-N jobs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones (see tracing.py).  Every output is checked exactly outside the
timed region; the last line of stdout is the JSON result.  All files the
run writes go under ``.perfbench_runs/`` in the checkout; the expansion
cache is a private temporary directory there, never ``~/.cache/bgwtau``.

``--record`` (default seed only) rewrites expected.json with the digests and
case counts of the current program instead of comparing against them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import types
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
EXPECTED = HERE / "expected.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of the metrics

# Host speed: every time metric is a median of (seconds / reference_s()),
# the reference measured just before the timed code, times REF_NOMINAL_S,
# the reference's time on the host the benchmark was built on.
REF_NOMINAL_S = 0.006
DEFAULT_SEED = 1  # used while building the benchmark; seed 97 is kept for confirming claims
MIN_REPS = 2
SETUP_BUILDS = 5
IMPORT_PROBES = 15
HITS_PER_REP = 3  # warm cache hits per probe entry after each untraced repetition
COLD_CACHES = ("schur.schur_in_times", "zcalculus.ks_operators", "zcalculus.phi_series_gen")

# Exercise/bypass predictions, on timed jobs: layer call counter -> workloads
# where it must be zero (and non-zero on the remaining workloads).
BYPASS = {
    "operators.apply.calls": ("ks", "oracle"),
    "zcalculus.zop_apply.calls": ("expand", "verify", "oracle"),
    "schur.schur_in_times.calls": ("expand", "ks", "verify"),
}


def draw_ns(seed: int, QQ):
    """N_s = p/q with q in {11, 13} and q/2 < |p| < q.

    q prime and >= 5 means N_s is never an integer or a half-integer (those
    truncate the basis vectors and collapse the work); the narrow range
    keeps the size of the numbers, and so the work, alike across seeds."""
    rng = random.Random(seed)
    q = rng.choice((11, 13))
    p = rng.choice([s * k for k in range(q // 2 + 1, q) for s in (1, -1)])
    return QQ(p, q)


def load_program():
    if not (SRC / "bgwtau" / "__init__.py").is_file():
        raise SystemExit(f"error: no bgwtau sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bgwtau
    from bgwtau import algebra, cli, cutjoin, operators, rational, report, schur, verify, zcalculus

    if Path(bgwtau.__file__).resolve().parent != SRC / "bgwtau":
        raise SystemExit(f"error: imported bgwtau from {bgwtau.__file__}, not {SRC}")
    return types.SimpleNamespace(algebra=algebra, cli=cli, cutjoin=cutjoin, operators=operators,
                                 rational=rational, report=report, schur=schur, verify=verify,
                                 zcalculus=zcalculus)


def environment(bg) -> dict:
    QQ = bg.rational.QQ
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):  # fixed reference loop, to tell host drift from program change
        acc = (acc + i * i) % 1_000_003
    return {
        "backend": f"{QQ.__module__}.{QQ.__name__}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "reference_loop_s": perf_counter() - t0,
    }


def reference_s() -> float:
    """Seconds of one fixed pure-Python task alike in kind to the program's
    work: the exact product of two small polynomials with Fraction
    coefficients kept in a dict.  It uses no bgwtau code, so a change of
    the program cannot change it.  The garbage of the timed code before it
    is collected first."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    gc.collect()
    t0 = perf_counter()
    out: dict = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return perf_counter() - t0


def normalised(pairs) -> float:
    """Median over (seconds, reference seconds) pairs of seconds / reference,
    in seconds of the nominal host (REF_NOMINAL_S)."""
    return statistics.median(t / r for t, r in pairs) * REF_NOMINAL_S


def import_pairs() -> list[tuple[float, float]]:
    """(wall time, reference) of fresh interpreters importing every bgwtau module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    pairs = []
    for _ in range(IMPORT_PROBES):
        ref = reference_s()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import bgwtau.cli"], env=env, cwd=ROOT, check=True)
        pairs.append((perf_counter() - t0, ref))
    return pairs


class Caches:
    """The program's in-process caches, captured before any tracing wrapper."""

    def __init__(self, bg):
        self.lru = {}
        for mod_name in ("algebra", "operators", "cutjoin", "zcalculus", "schur", "verify", "cli"):
            mod = getattr(bg, mod_name)
            for name, value in vars(mod).items():
                if callable(getattr(value, "cache_clear", None)) and \
                        getattr(value, "__module__", "") == mod.__name__:
                    self.lru[f"{mod_name}.{name}"] = value
        self.phi_store = getattr(bg.zcalculus, "_PHI_STORE", None)

    def clear(self) -> None:
        for fn in self.lru.values():
            fn.cache_clear()
        if self.phi_store is not None:
            self.phi_store.clear()

    def assert_cold(self) -> None:
        for name in COLD_CACHES:
            size = self.lru[name].cache_info().currsize if name in self.lru else 0
            if size:
                raise AssertionError(f"{name} holds {size} entries at the first timed job")


def text_of(bg, out) -> str:
    if isinstance(out, str):
        return out
    if isinstance(out, bg.cutjoin.TauExpansion):
        return text_of(bg, out.coeffs)
    if isinstance(out, bg.algebra.TimePolynomial):
        return bg.algebra.canonical_text(out)
    if isinstance(out, bg.report.Report):
        return "\n".join(out.lines())
    if isinstance(out, (list, tuple)):
        return "\n".join(text_of(bg, x) for x in out)
    raise TypeError(f"no canonical text for {type(out).__name__}")


def digest(bg, out) -> str:
    return hashlib.sha256(text_of(bg, out).encode()).hexdigest()


def size_stats(bg, objs) -> tuple[int, int]:
    """(atoms, max numerator/denominator bits) over polynomial data."""
    atoms, bits = 0, 0

    def coeff(c):
        nonlocal atoms, bits
        for q in c.terms.values():
            atoms += 1
            bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())

    def walk(o):
        if isinstance(o, bg.cutjoin.TauExpansion):
            walk(o.coeffs)
        elif isinstance(o, bg.algebra.TimePolynomial):
            for c in o.terms.values():
                coeff(c)
        elif isinstance(o, bg.zcalculus.LaurentSeries):
            for c in o.coeffs.values():
                coeff(c)
        elif isinstance(o, (list, tuple)):
            for x in o:
                walk(x)

    for o in objs:
        walk(o)
    return atoms, bits


class Run:
    def __init__(self, args, bg, tmp: Path):
        from jobs import WORKLOADS, Context

        self.args, self.bg, self.tmp = args, bg, tmp
        self.workload = WORKLOADS[args.workload]
        self.ns = draw_ns(args.seed, bg.rational.QQ)
        self._dirs = 0
        self.ctx = Context(bg, self.ns, self.fresh_dir)
        self.caches = Caches(bg)
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        self.expected = expected.get(args.workload, {})
        spec = json.loads(BENCHMARK.read_text())
        self.units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
                      for kind in ("end_to_end", "per_layer")}
        self.problems: list[str] = []
        self.tracer = None
        if args.trace:
            from tracing import Tracer

            self.tracer = Tracer(bg)

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = self.tmp / f"cache{self._dirs}"
        path.mkdir()
        return str(path)

    # -- one repetition --------------------------------------------------

    def setup_pairs(self) -> list[tuple[float, float]]:
        """(seconds, reference) of SETUP_BUILDS cold builds of the workload's inputs."""
        pairs = []
        for _ in range(SETUP_BUILDS):
            self.caches.clear()
            ref = reference_s()
            t0 = perf_counter()
            self.workload.inputs(self.ctx)
            pairs.append((perf_counter() - t0, ref))
        return pairs

    def repetition(self, traced: bool) -> tuple[dict, dict]:
        # fresh inputs for every repetition (untimed): jobs never run on
        # objects that outlived an earlier repetition
        jobs = self.workload.build(self.ctx, self.workload.inputs(self.ctx))
        self.caches.clear()
        self.caches.assert_cold()
        tr = self.tracer if traced else None
        if tr is not None:
            tr.reset()
            tr.keep_spans = not tr.spans
            tr.install()
        outputs, errors, times, refs = {}, {}, {}, {}
        try:
            for job in jobs:
                if tr is not None:
                    tr.job = job.name
                refs[job.name] = reference_s()
                t0 = perf_counter()
                try:
                    outputs[job.name] = job.fn()
                except Exception as exc:  # a failing job is counted, not fatal
                    errors[job.name] = f"{type(exc).__name__}: {exc}"
                times[job.name] = perf_counter() - t0
        finally:
            if tr is not None:
                tr.uninstall()
        rep = {
            "traced": traced,
            "times": times,
            "refs": refs,
            "wall_s": sum(times.values()),
            "errors": errors,
            "digests": {name: digest(self.bg, out) for name, out in outputs.items()},
        }
        if tr is not None:
            rep["stats"] = self.layer_stats(jobs, outputs)
        return rep, {"jobs": jobs, "outputs": outputs}

    def layer_stats(self, jobs, outputs) -> dict:
        st = dict(self.tracer.stats)
        cached = self.caches.lru.get("schur.schur_in_times")
        hits, misses = cached.cache_info()[:2] if cached else (0, 0)
        st["schur.schur_in_times.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        data = [j.data if j.data is not None else outputs.get(j.name) for j in jobs]
        data += list(self.tracer.data.values())
        st["algebra.output_terms"], st["algebra.max_coeff_bits"] = size_stats(self.bg, data)
        for counter, zero_on in BYPASS.items():
            calls = st.get(counter, 0)
            if (calls == 0) != (self.args.workload in zero_on):
                self.problems.append(f"exercise/bypass: {counter} = {calls:g} on {self.args.workload}")
        return st

    # -- checks ------------------------------------------------------------

    def check(self, reps, first) -> tuple[int, int]:
        """(attempted, failed) over every job of every repetition."""
        names = [j.name for j in first["jobs"]]
        cases = {} if self.args.record else self.expected.get("cases", {})
        try:
            semantic = self.workload.check(self.ctx, first["outputs"], cases)
        except (KeyError, ValueError, TypeError) as exc:  # a missing or malformed output
            semantic = {name: f"check raised {type(exc).__name__}: {exc}" for name in names}
        recorded = self.expected.get("digests", {})
        default = self.args.seed == DEFAULT_SEED
        seed_free = {j.name: j.seed_free for j in first["jobs"]}
        attempted = failed = 0
        for rep in reps:
            for name in names:
                attempted += 1
                why = rep["errors"].get(name) or semantic.get(name, "")
                got = rep["digests"].get(name)
                if not why and got != reps[0]["digests"].get(name):
                    why = "output differs between repetitions"
                if not why and not self.args.record and (default or seed_free[name]) \
                        and got != recorded.get(name):
                    why = "canonical-text sha256 differs from the recorded value"
                if why:
                    failed += 1
                    self.problems.append(f"{name}: {why}")
        return attempted, failed

    def negative_control(self, first) -> bool:
        self.caches.clear()
        try:
            why = self.workload.negative_control(self.ctx, first["outputs"])
        finally:
            self.caches.clear()
        return bool(why)

    # -- the whole run -------------------------------------------------------

    def measure(self, probe):
        reps, first = [], None
        durations = {True: 0.0, False: 0.0}
        start = perf_counter()
        while True:
            traced = bool(self.args.trace) and len(reps) % 2 == 1
            t0 = perf_counter()
            rep, produced = self.repetition(traced)
            if not self.args.trace:
                probe.hits(HITS_PER_REP)  # spread over the run, so one burst cannot cover them all
            durations[traced] = perf_counter() - t0
            reps.append(rep)
            if first is None:
                first = produced
            next_traced = bool(self.args.trace) and len(reps) % 2 == 1
            if len(reps) >= MIN_REPS and \
                    perf_counter() - start + durations[next_traced] > self.args.seconds:
                return reps, first

    def execute(self) -> dict:
        env = environment(self.bg)
        setup_s = normalised(import_pairs()) + normalised(self.setup_pairs())
        probe = Probe(self)
        reps, first = self.measure(probe)
        attempted, failed = self.check(reps, first)
        detected = self.negative_control(first)
        if not detected:
            self.problems.append("negative control: a corrupted coefficient passed the checks")
        if self.tracer is not None:
            self.tracer.reset()
            self.tracer.install()
            try:
                probe.hits(HITS_PER_REP)
            finally:
                self.tracer.uninstall()
            self.probe_stats = dict(self.tracer.stats)
        attempted += probe.attempted
        failed += probe.failed
        plain = [r for r in reps if not r["traced"]]
        kinds = {j.name: j.kind for j in first["jobs"]}

        def wall(rs, kind=None):
            """Sum over jobs (of one kind) of the job's normalised median time."""
            return sum(normalised([(r["times"][name], r["refs"][name]) for r in rs])
                       for name in kinds if kind in (None, kinds[name]))

        if self.args.trace:
            traced = [r for r in reps if r["traced"]]
            units = self.units["per_layer"]
            stats = {name: min(r["stats"].get(name, 0.0) for r in traced) for name in units}
            for name, value in self.probe_stats.items():
                if name.startswith("cli.") or name in ("algebra.parse.s", "algebra.text.s"):
                    stats[name] = stats.get(name, 0.0) + value
            counts = [traced[0]["stats"], self.probe_stats]  # counts repeat exactly across reps
            loads = sum(c.get("cli.cache_load.calls", 0) for c in counts)
            hit_count = sum(c.get("cli.cache_hits", 0) for c in counts)
            stats["cli.cache_hit_ratio"] = hit_count / loads if loads else 0.0
            stats["trace.overhead_ratio"] = wall(traced) / wall(plain)
            metrics = {name: {"value": stats[name], "unit": unit} for name, unit in units.items()}
        else:
            values = {
                "wall_s": wall(plain),
                "rational_s": wall(plain, "rational"),
                "symbolic_s": wall(plain, "symbolic"),
                "cache_hit_s": probe.hit_s(),
                "setup_s": setup_s,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in self.units["end_to_end"].items()}

        self.report(env, reps, metrics, attempted, failed, detected)
        if self.args.record:
            self.record(reps, first, probe)
        if self.tracer is not None:
            self.write_spans(env)
        return {"correct": not self.problems and failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    def report(self, env, reps, metrics, attempted, failed, detected) -> None:
        a = self.args
        print(f"workload {a.workload}  seed {a.seed}  N_s = {self.ns}  trace {a.trace}  "
              f"repetitions {len(reps)} ({sum(r['traced'] for r in reps)} traced)")
        print("environment " + json.dumps(env, sort_keys=True))
        refs = [x for r in reps for x in r["refs"].values()]
        print(f"reference_s median {statistics.median(refs):.6f} s (nominal {REF_NOMINAL_S} s)")
        print("repetition wall_s (raw seconds) " + " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in reps))
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_ratio':34s} {failed / attempted:.6g} ratio ({failed} of {attempted} attempted)")
        print(f"  negative control: corrupted coefficient {'detected' if detected else 'NOT detected'}")
        for line in self.problems[:20]:
            print(f"  problem: {line}")

    def record(self, reps, first, probe) -> None:
        if self.args.seed != DEFAULT_SEED:
            raise SystemExit("error: --record needs the default seed")
        doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        doc["default_seed"] = DEFAULT_SEED
        doc[self.args.workload] = {
            "digests": reps[0]["digests"],
            "cases": {name: [len(r.cases) for r in out] for name, out in first["outputs"].items()
                      if isinstance(out, list) and all(isinstance(r, self.bg.report.Report) for r in out)},
            "probe": probe.digests,
        }
        EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    def write_spans(self, env) -> None:
        path = RUNS / f"spans-{self.args.workload}.json"
        doc = {"workload": self.args.workload, "seed": self.args.seed, "environment": env,
               "fields": ["id", "parent", "job", "metric", "start", "end"],
               "spans": self.tracer.spans}
        path.write_text(json.dumps(doc))


class Probe:
    """Warm ``bgwtau expand`` cache hits on the PROBE_COMMANDS entries.

    The entries are written once by a cold call into a private cache
    directory; every later call must print exactly what the cold one did.
    cache_hit_s is the sum over entries of the normalised median hit.
    """

    def __init__(self, run: Run):
        from jobs import PROBE_COMMANDS, run_cli

        self.run_cli, self.bg, self.problems = run_cli, run.bg, run.problems
        cdir = run.fresh_dir()
        self.argvs = [cmd + ("--cache-dir", cdir) for cmd in PROBE_COMMANDS]
        self.cold = [run_cli(run.bg, argv) for argv in self.argvs]
        self.digests = {" ".join(cmd): digest(run.bg, out) for cmd, out in zip(PROBE_COMMANDS, self.cold)}
        for cmd, got in self.digests.items():
            if not run.args.record and got != run.expected.get("probe", {}).get(cmd):
                self.problems.append(f"cold {cmd}: sha256 differs from the recorded value")
        self.pairs: list[list[tuple[float, float]]] = [[] for _ in self.argvs]
        self.failed = 0

    def hits(self, n: int) -> None:
        for _ in range(n):
            for argv, cold, pairs in zip(self.argvs, self.cold, self.pairs):
                ref = reference_s()
                t0 = perf_counter()
                out = self.run_cli(self.bg, argv)
                pairs.append((perf_counter() - t0, ref))
                if out != cold:
                    self.failed += 1
                    self.problems.append(f"warm {' '.join(argv)}: stdout differs from the cold call")

    @property
    def attempted(self) -> int:
        return sum(len(pairs) for pairs in self.pairs)

    def hit_s(self) -> float:
        return sum(normalised(pairs) for pairs in self.pairs)


def main(argv=None) -> int:
    from jobs import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json from this run (seed 1; only for an intended output change)")
    args = ap.parse_args(argv)
    bg = load_program()
    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    os.environ["BGWTAU_CACHE_DIR"] = str(tmp / "default-cache")
    try:
        result = Run(args, bg, tmp).execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
