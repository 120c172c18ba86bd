"""Run-time tracing of calls into the public functions of each bgwtau layer.

The benchmark wraps layer functions at run time instead of editing the
program: class methods are replaced on their class, module functions at
every module attribute that is bound to them (``phi_coefficients`` is
imported into ``zcalculus``, ``schur``, ``verify`` and ``cli``, for
instance), so every call path goes through the wrapper.  ``uninstall``
restores the originals, so untraced repetitions run the unmodified program.

Each wrapped call is a span.  Spans nest through a stack, which gives
self time (the span's duration minus the part covered by traced child
spans).  A metric's inclusive time ``<metric>.s`` counts only the outermost
span of that metric, so recursion and helpers sharing a metric are not
counted twice.  Layer-boundary spans are kept in memory as
``(id, parent, job, metric, start, end)`` and written out at the end of the
run; the hot arithmetic spans (``algebra.coeff_mul``, ``algebra.poly_mul``,
``zcalculus.laurent_mul``) are only aggregated, because a repetition makes
hundreds of thousands of them.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

HOT = frozenset({"algebra.coeff_mul", "algebra.poly_mul", "zcalculus.laurent_mul"})


def _series_len(op) -> int:
    return sum(len(s.coeffs) for s in op.terms.values())


def targets(bg):
    """(owner, attribute, metric, after-hook) for every traced function.

    owner is a class (method patched on the class) or the module that
    defines the function (patched at every binding).  An after-hook
    receives (tracer, args, result) and adds layer counters.
    """

    def apply_hook(tr, args, result):
        op, poly = args[0], args[1]
        tr.stats["operators.apply.pairs"] += len(op.terms) * len(poly.terms)
        tr.stats["operators.apply.terms_out"] += len(result.terms)

    def ks_hook(tr, args, result):
        if id(result.d) not in tr.seen:
            tr.seen[id(result.d)] = result.d
            tr.stats["zcalculus.d_coeffs"] += _series_len(result.d)

    def phi_hook(tr, args, result):
        tr.data.setdefault(id(result), result)

    def cases_hook(tr, args, result):
        tr.stats["verify.cases"] += len(result.cases)

    def table_hook(tr, args, result):
        tr.stats["schur.table_size"] += len(result.table)

    def load_hook(tr, args, result):
        tr.stats["cli.cache_hits"] += result is not None

    a, op, cj, z, s, v, cli = bg.algebra, bg.operators, bg.cutjoin, bg.zcalculus, bg.schur, bg.verify, bg.cli
    return [
        (a.Coefficient, "__mul__", "algebra.coeff_mul", None),
        (a.Coefficient, "__rmul__", "algebra.coeff_mul", None),
        (a.TimePolynomial, "__mul__", "algebra.poly_mul", None),
        (a, "parse_polynomial", "algebra.parse", None),
        (a, "canonical_text", "algebra.text", None),
        (op.DiffOperator, "apply", "operators.apply", apply_hook),
        (op, "constraint", "operators.constraint", None),
        (z.ZOperator, "apply", "zcalculus.zop_apply", None),
        (z.ZOperator, "compose", "zcalculus.zop_compose", None),
        (z.LaurentSeries, "__mul__", "zcalculus.laurent_mul", None),
        (z, "ks_operators", "zcalculus.ks_operators", ks_hook),
        (z, "phi_coefficients", "zcalculus.phi", None),
        (z, "phi_series", "zcalculus.phi", None),
        (z, "phi_series_gen", "zcalculus.phi", phi_hook),
        (s, "plucker_expansion", "schur.plucker", table_hook),
        (s, "tau_from_schur", "schur.tau_from_schur", None),
        (s, "schur_in_times", "schur.schur_in_times", None),
        (cj, "tau_expand", "cutjoin.tau_expand", None),
        (cj, "free_energy", "cutjoin.free_energy", None),
        (v, "constraint_suite", "verify.constraint_suite", cases_hook),
        (v, "hirota_suite", "verify.hirota_suite", cases_hook),
        (cli, "cache_store", "cli.cache_store", None),
        (cli, "cache_load", "cli.cache_load", load_hook),
    ]


class Tracer:
    """Collects span statistics while installed; see the module docstring."""

    def __init__(self, bg):
        self.bg = bg
        self.modules = [m for name, m in sys.modules.items()
                        if name == "bgwtau" or name.startswith("bgwtau.")]
        self.patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, float] = defaultdict(float)
        self.seen: dict[int, object] = {}  # d operators already counted
        self.data: dict[int, object] = {}  # Phi series built, for size statistics
        self.job = None
        self._stack: list[list] = []  # [span id, child time]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def _wrap(self, fn, metric: str, after):
        tracer = self
        keep = metric not in HOT
        calls, self_s, incl = metric + ".calls", metric + ".self_s", metric + ".s"

        def wrapper(*args, **kwargs):
            stack, depth = tracer._stack, tracer._depth
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            outer = depth[metric] == 0
            depth[metric] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[metric] -= 1
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                st = tracer.stats
                st[calls] += 1
                st[self_s] += dt - frame[1]
                if outer:
                    st[incl] += dt
                if keep and tracer.keep_spans:
                    tracer.spans.append((frame[0], parent, tracer.job, metric, t0, t1))
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", metric)
        return wrapper

    def install(self) -> None:
        if self.patches:
            return
        for owner, attr, metric, after in targets(self.bg):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._set(owner, attr, original, self._wrap(original, metric, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, metric, after)
            for mod in self.modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, original, wrapper)

    def _set(self, owner, name, original, wrapper) -> None:
        self.patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self.patches):
            setattr(owner, name, original)
        self.patches.clear()
