"""Verification suites: golden-table comparison, W3-constraint annihilation,
the first Hirota bilinear identity, and oracle/recursion cross-checks.

Golden tables live in bgwtau/golden/*.txt (canonical text grammar, one
"name = polynomial" entry per line) and are frozen; SHA256SUMS guards
against silent edits.  Suites return line-oriented Reports (PASS|FAIL
suite:case) plus a machine-readable summary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .algebra import ONE_ROWS, TimeMonomial, TimePolynomial, mul_sums, parse_polynomial, tunpack
from .cutjoin import TauExpansion, check_expansion_invariants, free_energy, tau_expand
from .operators import CONSTRAINT_KINDS, DerivativeTable, constraint, constraint_index_bound
from .report import Report
from .schur import plucker_expansion, tau_from_schur
from .zcalculus import (
    check_canonical_pair,
    check_commutation,
    check_ks_actions,
    check_spectral_curve,
    phi_coefficients,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SOURCES = {
    "AppendixA": "appendix_a.txt",
    "AppendixB": "appendix_b.txt",
    "AppendixC": "appendix_c.txt",
    "Inline": "inline.txt",
}


@dataclass
class GoldenTable:
    source: str
    entries: dict[str, TimePolynomial]


def verify_checksums() -> Report:
    rep = Report()
    sums = {}
    path = GOLDEN_DIR / "SHA256SUMS"
    for line in path.read_text().splitlines():
        digest, name = line.split()
        sums[name] = digest
    for name in GOLDEN_SOURCES.values():
        body = (GOLDEN_DIR / name).read_bytes()
        ok = hashlib.sha256(body).hexdigest() == sums.get(name)
        rep.add("golden-checksum", name, ok, "checksum mismatch" if not ok else "")
    return rep


def load_golden(source: str) -> GoldenTable:
    fname = GOLDEN_SOURCES.get(source)
    if fname is None:
        raise ValueError(f"unknown golden source {source!r}")
    path = GOLDEN_DIR / fname
    if not path.exists():
        raise FileNotFoundError(f"missing golden file {path}")
    entries = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, body = line.partition(" = ")
        entries[name.strip()] = parse_polynomial(body)
    return GoldenTable(source, entries)


def _first_diff(a: TimePolynomial, b: TimePolynomial) -> str:
    d = a - b
    if not d:
        return ""
    mono = sorted(d.terms, key=lambda m: (m.degree, m))[0]
    got = a.terms.get(mono)
    want = b.terms.get(mono)
    return (
        f"first differing monomial {mono!r}: computed "
        f"{got!r} vs golden {want!r}"
    )


def _compare(rep: Report, suite: str, name: str, computed: TimePolynomial, golden: TimePolynomial):
    diff = _first_diff(computed, golden)
    rep.add(suite, name, not diff, diff)


def golden_suite(source: str, order: int | None = None) -> Report:
    """Exact comparison of computed objects against one golden table."""
    rep = Report()
    table = load_golden(source)
    if source == "AppendixB":
        K = order if order is not None else 9
        T = tau_expand(2, 0, K)
        for k in range(1, min(K, 9) + 1):
            _compare(rep, "golden-B", f"tau2[{k}]", T.coeffs[k], table.entries[f"tau2[{k}]"])
    elif source == "AppendixC":
        K = order if order is not None else 6
        T = tau_expand(2, "symbolic", K)
        for k in range(1, min(K, 5) + 1):
            _compare(rep, "golden-C", f"tauN[{k}]", T.coeffs[k], table.entries[f"tauN[{k}]"])
        F = free_energy(T)
        for k in range(1, min(K, 6) + 1):
            _compare(rep, "golden-C", f"F[{k}]", F[k - 1], table.entries[f"F[{k}]"])
    elif source == "AppendixA":
        coeffs2 = phi_coefficients(2, 4)
        for k in range(1, 5):
            _compare(
                rep, "golden-A", f"Phi2[{k}]",
                TimePolynomial.constant(coeffs2[k]), table.entries[f"Phi2[{k}]"],
            )
        for mv in range(1, 6):
            cm = phi_coefficients(mv, 4)
            for k in range(1, 5):
                _compare(
                    rep, "golden-A", f"PhiGen[m={mv},k={k}]",
                    TimePolynomial.constant(cm[k]), table.entries[f"PhiGen[m={mv},k={k}]"],
                )
    else:  # Inline; load_golden rejects any other source
        T = tau_expand(2, 0, 3)
        for k in range(1, 4):
            _compare(rep, "golden-inline", f"inline[{k}]", T.coeffs[k], table.entries[f"inline[{k}]"])
    return rep


def constraint_suite(m: int, N, T: TauExpansion) -> Report:
    """Apply every J/L/M constraint operator that can act nontrivially on the
    truncation and require the h-coefficients of (operator . tau) to vanish
    for all resolvable orders p <= K-2.

    An operator's h^e part op_e (e = 0, and -1, -2 for the 1/h and 1/h^2
    pieces of L and M) sends the h^q part tau_q of tau to h^(e+q), so the
    h^p residual is sum_e op_e . tau_(p-e): op_0 reaches it from tau_p,
    op_-1 from tau_(p+1), op_-2 from tau_(p+2).  A truncation to h^K thus
    fixes the image only through p = K-2, and only those products are
    computed: op_0 never meets tau_(K-1) or tau_K, and no part meets an
    order it would send above h^(K-2) or below h^0.  The checked orders run
    up from h^0 and stop at the first nonzero residual.  Each tau_q has one
    DerivativeTable for the whole suite, so it is differentiated by each
    derivative part at most once, whichever operators hold that part."""
    rep = Report()
    K = T.order
    if K < 2:
        raise ValueError("constraint suite needs order K >= 2")
    suite = f"constraints[m={m},N={N}]"
    maxdeg = m * K
    kb = constraint_index_bound(m, maxdeg)
    # tau = sum_k h^k tau_k split by h-power; tau_k itself may carry h
    tau: dict[int, TimePolynomial] = {}
    for k, tk in enumerate(T.coeffs):
        for s, part in tk.h_parts().items():
            tau[k + s] = tau.get(k + s, TimePolynomial.zero()) + part
    tables = {q: DerivativeTable(tq) for q, tq in tau.items()}
    p_max = K - 2
    for kind, k_lo in CONSTRAINT_KINDS.items():
        for k in range(k_lo, kb + 1):
            parts = constraint(m, N, kind, k, maxdeg)
            bad = ""
            for p in range(0, p_max + 1):
                resid = TimePolynomial.zero()
                for e, op_e in parts.items():
                    if p - e in tau:
                        resid = resid + op_e.apply(tau[p - e], tables[p - e])
                if resid:
                    mono = sorted(resid.terms, key=lambda mm: (mm.degree, mm))[0]
                    bad = f"h^{p} residual at {mono!r}"
                    break
            rep.add(suite, f"{kind}[{k}]", not bad, bad)
    return rep


def _combination(den: int, *terms) -> list:
    """The integer combination sum w * rows of (w, rows) pairs whose rows are
    in numerator form over den, over den too."""
    sums: dict = {}
    for w, rows in terms:
        mul_sums(sums, ONE_ROWS, 1, rows, den, w)
    rows = ((mono, [(k, v) for k, v in nums.items() if v]) for mono, (_, nums) in sums.items())
    return [(mono, nums) for mono, nums in rows if nums]


def hirota_suite(T: TauExpansion) -> Report:
    """First bilinear KP identity on the truncated expansion:

      tau tau_1111 - 4 tau_1 tau_111 + 3 tau_11^2
        + 3 (tau tau_22 - tau_2^2) - 4 (tau tau_13 - tau_1 tau_3) = 0

    order by order in h (subscripts are t-derivatives).  The h^p residual is
    taken in grouped products over a + b = p,

      tau[a] A[b] + tau_1[a] B[b] + 3 (tau_11[a] tau_11[b] - tau_2[a] tau_2[b])

    with A = tau_1111 + 3 tau_22 - 4 tau_13 and B = 4 (tau_3 - tau_111) formed
    once per order; the symmetric part is taken once per unordered pair,
    weight 6 off the diagonal and 3 on it.  Every derivative of tau[a] comes
    from one DerivativeTable, in numerator form over its den_a; the h^p
    residual is summed as running sums (algebra) and only tested for zero,
    so no coefficient is reduced."""
    rep = Report()
    if T.order < 2:
        raise ValueError("hirota suite needs order K >= 2")
    suite = f"hirota[m={T.m},N={T.N}]"
    tables = [DerivativeTable(c) for c in T.coeffs]
    dens = [t.den for t in tables]

    def dd(*exps) -> list[list]:
        dm = TimeMonomial(exps)
        return [t[dm] for t in tables]

    tau, d1, d11, d111, d1111 = dd(), dd((1, 1)), dd((1, 2)), dd((1, 3)), dd((1, 4))
    d2, d22, d3, d13 = dd((2, 1)), dd((2, 2)), dd((3, 1)), dd((1, 1), (3, 1))
    A = [_combination(d, (1, x), (3, y), (-4, z)) for d, x, y, z in zip(dens, d1111, d22, d13)]
    B = [_combination(d, (4, x), (-4, y)) for d, x, y in zip(dens, d3, d111)]
    for p in range(0, T.order + 1):
        sums: dict = {}
        for a in range(0, p + 1):
            da, db = dens[a], dens[p - a]
            mul_sums(sums, tau[a], da, A[p - a], db)
            mul_sums(sums, d1[a], da, B[p - a], db)
        for a in range(0, p // 2 + 1):
            da, db, w = dens[a], dens[p - a], 3 if 2 * a == p else 6
            mul_sums(sums, d11[a], da, d11[p - a], db, w)
            mul_sums(sums, d2[a], da, d2[p - a], db, -w)
        left = [tunpack(tk) for tk, (_, nums) in sums.items() if any(nums.values())]
        bad = f"residual at {min(left, key=lambda mm: (mm.degree, mm))!r}" if left else ""
        rep.add(suite, f"h^{p}", not bad, bad)
    return rep


def _crosscheck(a: SuiteArgs) -> Report:
    """The crosscheck cases; without a recursion (m >= 3) they are the
    oracle's invariant and constraint checks, run at most once per SuiteArgs."""
    if a.m >= 3:
        rep = SUITE_RUNNERS["invariants"](a)
        rep.extend(SUITE_RUNNERS["constraints"](a))
        return rep
    rep = check_expansion_invariants(a.oracle)
    suite = f"crosscheck[m={a.m},N={a.N},D={a.m * a.order}]"
    for k in range(0, a.order + 1):
        diff = _first_diff(a.oracle.coeffs[k], a.recursion.coeffs[k])
        rep.add(suite, f"tau[{k}] oracle==recursion", not diff, diff)
    return rep


def _ks_suite(m: int, N, depth: int) -> Report:
    """Kac-Schwarz ladder actions, commutation relations, spectral curve and
    (m >= 2) canonical pair.  The spectral curve runs first: its Phi table
    is the deepest, so the stored coefficients are built once."""
    curve = check_spectral_curve(m, N, 4, depth)
    rep = Report()
    rep.extend(check_ks_actions(m, N, 4, depth))
    rep.extend(check_commutation(m, N, depth))
    rep.extend(curve)
    if m >= 2:
        rep.extend(check_canonical_pair(m, N, depth))
    return rep


@dataclass
class SuiteArgs:
    """Arguments of one run_suites call; each expansion is built and each
    check on it is run at most once."""

    m: int
    N: object
    order: int
    depth: int
    done: set[str] = field(default_factory=set)

    def once(self, check: str, build) -> Report:
        """build() the first time check is asked for, an empty Report after."""
        if check in self.done:
            return Report()
        self.done.add(check)
        return build()

    @cached_property
    def recursion(self) -> TauExpansion:
        return tau_expand(self.m, self.N, self.order)

    @cached_property
    def oracle(self) -> TauExpansion:
        return tau_from_schur(plucker_expansion(self.m, self.N, self.m * self.order))

    @property
    def source(self) -> TauExpansion:
        """The expansion the constraint, Hirota and invariant suites check."""
        return self.recursion if self.m <= 2 else self.oracle


SUITE_RUNNERS = {
    "checksums": lambda a: verify_checksums(),
    "constraints": lambda a: a.once("constraints", lambda: constraint_suite(a.m, a.N, a.source)),
    "crosscheck": _crosscheck,
    "golden-A": lambda a: golden_suite("AppendixA"),
    "golden-B": lambda a: golden_suite("AppendixB"),
    "golden-C": lambda a: golden_suite("AppendixC"),
    "golden-inline": lambda a: golden_suite("Inline"),
    "hirota": lambda a: hirota_suite(a.source),
    "invariants": lambda a: a.once("invariants", lambda: check_expansion_invariants(a.source)),
    "ks": lambda a: _ks_suite(a.m, a.N, a.depth),
}


def run_suites(names, m: int = 2, N=0, order: int = 6, depth: int = 20) -> Report:
    """CLI entry point: run the named suites (or "all") in name order and
    merge their reports."""
    for name in names:
        if name not in SUITE_RUNNERS and name != "all":
            raise ValueError(f"unknown suite {name!r}")
    todo = SUITE_RUNNERS if "all" in names else set(names)
    args = SuiteArgs(m, N, order, depth)
    rep = Report()
    for name in sorted(todo):
        rep.extend(SUITE_RUNNERS[name](args))
    return rep
