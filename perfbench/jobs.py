"""The benchmark's four workloads: inputs, timed jobs and exact output checks.

Every job calls public bgwtau functions through their module attribute at
call time (``bg.cutjoin.tau_expand``), so the tracer's run-time wrappers see
it.  A job is "rational" when it runs at N = 0 or N = N_s and "symbolic"
when N is kept formal; the two classes are timed apart because a change of
coefficient ring can help one and hurt the other.

Job sizes are small: most jobs take 0.05-0.3 s on a 2-core host with the
``fractions.Fraction`` backend, so one run repeats every job many times and
the median over repetitions is steady.  The mix of each workload (which layers it
drives, and the rational/symbolic split) follows its purpose, in ``WHY``.

Checks run outside the timed region.  Each returns, per job, an empty
string when the output is right or a one-line reason when it is not.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

RATIONAL = "rational"
SYMBOLIC = "symbolic"
SYM = "symbolic"

# Cache entries the warm-hit probe serves, in every workload.
PROBE_COMMANDS = (
    ("expand", "--m", "2", "--N", "0", "--order", "8"),
    ("expand", "--m", "2", "--N", "symbolic", "--order", "5"),
)

WHY = {
    "expand": "cut-and-join recursion: DiffOperator.apply on growing tau_k, rational and symbolic N,"
              " cold CLI expand with cache store",
    "oracle": "Miwa-determinant oracle at m>=3: Schur polynomials in the times dominate;"
              " no DiffOperator or ZOperator calls",
    "ks": "Kac-Schwarz, commutation, spectral-curve and canonical-pair suites (criterion 7 scaled down):"
          " ZOperator compose/apply on the dense d operator",
    "verify": "W3 constraint and Hirota suites on prebuilt expansions: about 21 operators each applied"
              " once to a full tau; the only workload of the verify layer",
}


@dataclass
class Job:
    name: str
    kind: str  # RATIONAL or SYMBOLIC
    fn: Callable[[], object]
    seed_free: bool  # output does not depend on N_s
    data: object = None  # polynomial data the job consumes, for size statistics


@dataclass
class Context:
    bg: object  # namespace of the bgwtau modules
    ns: object  # the seed's rational N_s
    cache_dir: Callable[[], str]  # a fresh, empty cache directory


def run_cli(bg, argv) -> str:
    """stdout of ``bgwtau <argv>``; a non-zero exit code raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bg.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"bgwtau {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def n_label(N) -> str:
    return "symbolic" if N == SYM else ("0" if not N else "N_s")


def _kind(N) -> str:
    return SYMBOLIC if N == SYM else RATIONAL


def oracle(bg, m, N, degree):
    return bg.schur.tau_from_schur(bg.schur.plucker_expansion(m, N, degree))


# ---------------------------------------------------------------------------
# checks shared by the workloads


def invariants(bg, T) -> str:
    rep = bg.cutjoin.check_expansion_invariants(T)
    return "" if rep.ok else "invariants: " + rep.failures[0].line()


def agree(T, ref, N=None) -> str:
    """T equals ref (specialised at N when given) up to their common order."""
    for k in range(min(len(T.coeffs), len(ref))):
        want = ref[k] if N is None else ref[k].substitute(n=N)
        if T.coeffs[k] != want:
            return f"tau[{k}] differs from the reference"
    return ""


def emitted(coeffs, canonical_text) -> str:
    return "".join(f"tau[{k}] = {canonical_text(c)}\n" for k, c in enumerate(coeffs))


def reports_ok(reports, cases: list[int] | None) -> str:
    for rep in reports:
        if not rep.ok:
            return rep.failures[0].line()
    got = [len(rep.cases) for rep in reports]
    if cases is not None and got != cases:
        return f"case counts {got} != recorded {cases}"
    return ""


def corrupted(bg, T, k: int):
    """Copy of expansion T with one rational of tau_k increased by 1."""
    coeffs = list(T.coeffs)
    poly = coeffs[k]
    mono = sorted(poly.terms, key=lambda m: m.exps)[0]
    bump = bg.algebra.Coefficient.rational(1)
    coeffs[k] = poly + bg.algebra.TimePolynomial({mono: bump})
    return bg.cutjoin.TauExpansion(T.m, T.N, coeffs, T.provenance)


class Workload:
    """A workload builds its timed jobs, checks their outputs and runs a
    negative control that must fail the same checks."""

    name = ""

    def inputs(self, ctx: Context):
        """Data the jobs consume: timed as set-up, rebuilt (untimed) before
        every repetition."""
        return None

    def build(self, ctx: Context, inputs) -> list[Job]:
        raise NotImplementedError

    def check(self, ctx: Context, out: dict, cases: dict) -> dict[str, str]:
        """Reports must be ok, with the recorded case counts."""
        return {name: reports_ok(reps, cases.get(name)) for name, reps in out.items()}

    def negative_control(self, ctx: Context, out: dict) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# expand


class Expand(Workload):
    name = "expand"

    def build(self, ctx: Context, inputs) -> list[Job]:
        bg, ns = ctx.bg, ctx.ns
        cj = bg.cutjoin

        def sym_with_free_energy():
            T = bg.cutjoin.tau_expand(2, SYM, 6)
            return T, bg.cutjoin.free_energy(T)

        def cli_job(argv):
            cdir = ctx.cache_dir()
            return lambda: run_cli(bg, argv + ("--cache-dir", cdir))

        return [
            Job("tau_expand(2,0,8)", RATIONAL, lambda: cj.tau_expand(2, 0, 8), True),
            Job("tau_expand(2,N_s,7)", RATIONAL, lambda: cj.tau_expand(2, ns, 7), False),
            Job("tau_expand(1,N_s,16)", RATIONAL, lambda: cj.tau_expand(1, ns, 16), False),
            Job("cli expand --m 2 --N 0 --order 8", RATIONAL, cli_job(PROBE_COMMANDS[0]), True),
            Job("tau_expand(2,symbolic,6)+free_energy", SYMBOLIC, sym_with_free_energy, True),
            Job("tau_expand(1,symbolic,16)", SYMBOLIC, lambda: cj.tau_expand(1, SYM, 16), True),
            Job("cli expand --m 2 --N symbolic --order 5", SYMBOLIC, cli_job(PROBE_COMMANDS[1]), True),
        ]

    def check(self, ctx: Context, out: dict, cases: dict) -> dict[str, str]:
        bg, ns = ctx.bg, ctx.ns
        text = bg.algebra.canonical_text
        T2s, F2s = out["tau_expand(2,symbolic,6)+free_energy"]
        T1s = out["tau_expand(1,symbolic,16)"]
        T20 = out["tau_expand(2,0,8)"]
        T1_0 = bg.cutjoin.tau_expand(1, 0, 16)  # the undeformed BGW operator
        return {
            "tau_expand(2,0,8)": invariants(bg, T20) or agree(T20, T2s.coeffs, 0),
            "tau_expand(2,N_s,7)": self.check_rational(ctx, out["tau_expand(2,N_s,7)"], T2s),
            "tau_expand(1,N_s,16)": self.check_rational(ctx, out["tau_expand(1,N_s,16)"], T1s),
            "cli expand --m 2 --N 0 --order 8":
                "" if out["cli expand --m 2 --N 0 --order 8"] == emitted(T20.coeffs, text)
                else "stdout differs from tau_expand(2,0,8)",
            "tau_expand(2,symbolic,6)+free_energy": invariants(bg, T2s) or (
                "" if bg.cutjoin.exp_series(F2s, T2s.order) == T2s.coeffs
                else "exp(free energy) differs from tau"),
            "tau_expand(1,symbolic,16)": invariants(bg, T1s) or agree(T1_0, T1s.coeffs, 0),
            "cli expand --m 2 --N symbolic --order 5":
                "" if out["cli expand --m 2 --N symbolic --order 5"] == emitted(T2s.coeffs[:6], text)
                else "stdout differs from tau_expand(2,symbolic,6)",
        }

    @staticmethod
    def check_rational(ctx, T, T_sym) -> str:
        return invariants(ctx.bg, T) or agree(T, T_sym.coeffs, ctx.ns)

    def negative_control(self, ctx: Context, out: dict) -> str:
        T2s, _ = out["tau_expand(2,symbolic,6)+free_energy"]
        bad = corrupted(ctx.bg, out["tau_expand(2,N_s,7)"], 5)
        return self.check_rational(ctx, bad, T2s)


# ---------------------------------------------------------------------------
# oracle


class Oracle(Workload):
    name = "oracle"
    CASES = ((3, 0, 9), (3, "N_s", 9), (4, 0, 8), (2, SYM, 8))

    def build(self, ctx: Context, inputs) -> list[Job]:
        jobs = []
        for m, N, degree in self.CASES:
            N = ctx.ns if N == "N_s" else N
            jobs.append(Job(f"oracle({m},{n_label(N)},{degree})", _kind(N),
                            lambda m=m, N=N, d=degree: oracle(ctx.bg, m, N, d), N != ctx.ns))
        return jobs

    def check_one(self, ctx: Context, T) -> str:
        bg = ctx.bg
        bad = invariants(bg, T)
        if bad or T.m < 3:
            return bad
        rep = bg.verify.constraint_suite(T.m, T.N, T)
        return "" if rep.ok else rep.failures[0].line()

    def check(self, ctx: Context, out: dict, cases: dict) -> dict[str, str]:
        bg = ctx.bg
        res = {name: self.check_one(ctx, T) for name, T in out.items()}
        name = "oracle(2,symbolic,8)"
        # m = 2 has a recursion: the two routes must agree exactly
        res[name] = res[name] or agree(out[name], bg.cutjoin.tau_expand(2, SYM, 4).coeffs)
        return res

    def negative_control(self, ctx: Context, out: dict) -> str:
        return self.check_one(ctx, corrupted(ctx.bg, out["oracle(3,N_s,9)"], 2))


# ---------------------------------------------------------------------------
# ks


class KS(Workload):
    name = "ks"
    DEPTH = 3
    J_MAX = 1

    def suites(self, m):
        """(name, call) for the suites run at m; each is one timed job."""
        d, j = self.DEPTH, self.J_MAX
        out = [("ks_actions", lambda z, N: z.check_ks_actions(m, N, j, d)),
               ("commutation", lambda z, N: z.check_commutation(m, N, d)),
               ("spectral_curve", lambda z, N: z.check_spectral_curve(m, N, j, d))]
        if m >= 2:
            out.append(("canonical_pair", lambda z, N: z.check_canonical_pair(m, N, d)))
        return out

    def build(self, ctx: Context, inputs) -> list[Job]:
        return [Job(f"{suite}(m={m},N={n_label(N)})", _kind(N),
                    lambda call=call, N=N: [call(ctx.bg.zcalculus, N)], N != ctx.ns)
                for m in (1, 2, 3) for N in (0, ctx.ns, SYM) for suite, call in self.suites(m)]

    def negative_control(self, ctx: Context, out: dict) -> str:
        # corrupt one stored basis-vector coefficient phi[1,2] in the
        # in-process table that every Phi_j series is built from
        z = ctx.bg.zcalculus
        stored = z.phi_coefficients(1, 4 * self.DEPTH)
        key = next(iter(stored[2].terms))
        stored[2].terms[key] += 1
        reps = [z.check_ks_actions(1, ctx.ns, self.J_MAX, self.DEPTH)]
        return reports_ok(reps, None)


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    name = "verify"
    INPUTS = ((2, 0, 8), (2, "N_s", 7), (2, SYM, 6), (1, SYM, 10))
    ORACLE_INPUT = (3, 0, 9)

    SUITES = (("constraints", lambda v, T: v.constraint_suite(T.m, T.N, T)),
              ("hirota", lambda v, T: v.hirota_suite(T)))

    def inputs(self, ctx: Context):
        bg = ctx.bg
        built = []
        for m, N, K in self.INPUTS:
            N = ctx.ns if N == "N_s" else N
            built.append((f"tau_expand({m},{n_label(N)},{K})", N, bg.cutjoin.tau_expand(m, N, K)))
        m, N, D = self.ORACLE_INPUT
        built.append((f"oracle({m},{n_label(N)},{D})", N, oracle(bg, m, N, D)))
        return built

    def build(self, ctx: Context, inputs) -> list[Job]:
        return [Job(f"{suite}({name})", _kind(N), lambda call=call, T=T: [call(ctx.bg.verify, T)],
                    N != ctx.ns, T)
                for name, N, T in inputs for suite, call in self.SUITES]

    def negative_control(self, ctx: Context, out: dict) -> str:
        bg = ctx.bg
        T = corrupted(bg, bg.cutjoin.tau_expand(1, SYM, 12), 4)
        return reports_ok([call(bg.verify, T) for _, call in self.SUITES], None)


WORKLOADS = {w.name: w for w in (Expand(), Oracle(), KS(), Verify())}
