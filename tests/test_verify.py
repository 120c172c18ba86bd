"""Verification suites: golden tables, constraints, Hirota, cross-checks,
mutation controls, and the characterization of the defective source-table
entries (see notes in the README)."""

import dataclasses
import hashlib
import shutil
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    coefficients,
    derivative,
    fails_its_property,
    monomial_of,
    monomials,
    mul_into,
    not_canonical,
    op_of,
    poly_term,
    polynomials,
    rescale_skipped,
    times_h,
    whole,
)
from bgwtau.algebra import (
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    _cunpack,
    parse_polynomial,
    tunpack,
)
from bgwtau.cutjoin import (
    TauExpansion,
    free_energy,
    tau_expand,
    w1_w2,
)
from bgwtau import algebra, verify, zcalculus
from bgwtau.operators import DerivativeTable, constraint, constraint_index_bound, virasoro
from bgwtau.rational import QQ
from bgwtau.report import Report
from bgwtau.schur import plucker_expansion, tau_from_schur
from bgwtau.verify import (
    SUITE_RUNNERS,
    SuiteArgs,
    constraint_suite,
    golden_suite,
    hirota_suite,
    load_golden,
    run_suites,
    verify_checksums,
)
from bgwtau.zcalculus import LaurentSeries, ZOperator

P = parse_polynomial


def test_checksums():
    assert verify_checksums().ok


def test_golden_appendix_a():
    assert golden_suite("AppendixA").ok


def test_golden_inline():
    assert golden_suite("Inline").ok


def test_golden_appendix_b_clean_region():
    rep = golden_suite("AppendixB", order=5)
    assert rep.ok, [c.line() for c in rep.failures]


def test_golden_appendix_b_defective_region():
    """The k=6..9 source tables are internally inconsistent with the source's
    own constraints (see test_defect_is_constraint_forced below); the suite
    must report exactly those entries."""
    rep = golden_suite("AppendixB")
    failed = {c.name for c in rep.failures}
    assert failed == {"tau2[6]", "tau2[7]", "tau2[8]", "tau2[9]"}


def test_golden_appendix_b_beyond_the_table_compares_what_it_has():
    """The table stops at tau2[9]; a deeper order compares tau2[1..9] (as
    AppendixC clamps) instead of raising KeyError."""
    rep = golden_suite("AppendixB", order=10)
    assert [c.name for c in rep.cases] == [f"tau2[{k}]" for k in range(1, 10)]
    assert {c.name for c in rep.failures} == {"tau2[6]", "tau2[7]", "tau2[8]", "tau2[9]"}


def test_golden_appendix_c_clean_region():
    rep = golden_suite("AppendixC", order=5)
    assert rep.ok, [c.line() for c in rep.failures]


def test_golden_appendix_c_f6_defect():
    rep = golden_suite("AppendixC")
    failed = {c.name for c in rep.failures}
    assert failed == {"F[6]"}


def test_defect_is_constraint_forced():
    """The first differing Appendix-B coefficient (t1*t11 in tau_6) is fixed
    by the source's own displayed Virasoro-type constraint
    d/dt_11 tau = h L_9 tau applied to the golden-verified tau_5: the
    computed value wins, the golden table value violates the constraint."""
    golden = load_golden("AppendixB")
    tau5 = golden.entries["tau2[5]"]
    T = tau_expand(2, 0, 6)
    assert T.coeffs[5] == tau5  # the input of the forcing identity is golden
    forced = op_of(virasoro(9, 12)).apply(tau5)
    mono = monomial_of({1: 1, 11: 1})
    lhs = derivative(T.coeffs[6], TimeMonomial.var(11))
    assert lhs == forced
    computed = T.coeffs[6].terms[mono]
    assert computed == Coefficient.rational(QQ(-12100, 81))
    golden_val = golden.entries["tau2[6]"].terms[mono]
    assert golden_val == Coefficient.rational(QQ(-33275, 243))
    assert forced.terms[TimeMonomial.var(1)] == computed  # not the golden value


def test_defect_cascades_into_higher_orders():
    """Feeding the defective golden tau_6 into the recursion reproduces the
    golden tau_7's reduction-violating t_3/t_6 entries exactly, identifying
    the higher tables as downstream of the same defect."""
    golden = load_golden("AppendixB")
    T = tau_expand(2, 0, 6)
    w1, w2 = w1_w2(0, 18)
    alt7 = (w1.apply(golden.entries["tau2[6]"]) + w2.apply(T.coeffs[5])).scale(QQ(1, 14))
    for spec, val in (
        ({1: 1, 6: 1, 7: 1}, QQ(6050, 81)),
        ({1: 1, 3: 1, 10: 1}, QQ(30250, 567)),
        ({1: 1, 5: 1, 8: 1}, QQ(-2953400, 1701)),
    ):
        mono = monomial_of(spec)
        assert alt7.terms.get(mono) == Coefficient.rational(val)
        assert golden.entries["tau2[7]"].terms.get(mono) == Coefficient.rational(val)
        # whereas the true expansion is 3-reduced or differs
        true7 = tau_expand(2, 0, 7).coeffs[7]
        got = true7.terms.get(mono)
        assert got is None or got != Coefficient.rational(val)


def test_f6_defect_matches_b_defect_at_n0():
    """The golden F[6] t1*t11 coefficient at N=0 equals the defective golden
    tau2[6] value: both tables inherit the same upstream error."""
    golden_c = load_golden("AppendixC")
    golden_b = load_golden("AppendixB")
    mono = monomial_of({1: 1, 11: 1})
    f6_at_0 = TimePolynomial({mono: golden_c.entries["F[6]"].terms[mono]}).substitute(n=0)
    assert f6_at_0.terms[mono] == golden_b.entries["tau2[6]"].terms[mono]


def test_symbolic_tau6_t1t11_is_oracle_confirmed():
    """Symbolic-N oracle at degree 12 confirms the computed (not the golden)
    t1*t11 slot of the order-6 free energy."""
    T = tau_from_schur(plucker_expansion(2, "symbolic", 12))
    R = tau_expand(2, "symbolic", 6)
    assert T.coeffs[6] == R.coeffs[6]
    F = free_energy(R)
    golden_c = load_golden("AppendixC")
    mono = monomial_of({1: 1, 11: 1})
    assert F[5].terms[mono] != golden_c.entries["F[6]"].terms[mono]


def test_constraint_suite_small():
    assert constraint_suite(2, 0, tau_expand(2, 0, 4)).ok
    assert constraint_suite(1, 0, tau_expand(1, 0, 6)).ok
    assert constraint_suite(2, "symbolic", tau_expand(2, "symbolic", 3)).ok


def test_constraint_suite_requires_depth():
    with pytest.raises(ValueError, match="K >= 2"):
        constraint_suite(2, 0, tau_expand(2, 0, 1))


def test_hirota_small():
    assert hirota_suite(tau_expand(2, 0, 4)).ok
    assert hirota_suite(tau_expand(1, 0, 4)).ok
    const = TauExpansion(2, 0, [TimePolynomial.one(),
                                TimePolynomial.zero(), TimePolynomial.zero()])
    assert hirota_suite(const).ok


def test_crosscheck_suite():
    assert run_suites(["crosscheck"], m=2, N=0, order=8 // 2).ok
    assert run_suites(["crosscheck"], m=1, N=QQ(1, 2), order=6 // 1).ok
    assert run_suites(["crosscheck"], m=3, N=0, order=6 // 3).ok


def _mutate(T, k=2):
    coeffs = [TimePolynomial(dict(c.terms)) for c in T.coeffs]
    mono = sorted(coeffs[k].terms, key=lambda m: m.exps)[0]
    coeffs[k] = coeffs[k] + poly_term(QQ(1, 7), mono)
    return TauExpansion(T.m, T.N, coeffs, T.provenance)


def _fails(rep: Report) -> bool:
    return any(line.startswith("FAIL ") for line in rep.lines())


def test_mutation_controls():
    """A seeded corruption makes each expansion suite print a FAIL line: a
    bumped tau_2 coefficient trips the constraints, Hirota and crosscheck
    (the m = 2 recursion against the oracle, and the m = 3 oracle's own
    checks); a term of the wrong degree trips the invariants."""
    a = SuiteArgs(2, 0, 4, 0)
    a.recursion = _mutate(a.recursion)
    for name in ("constraints", "hirota", "crosscheck"):
        assert _fails(SUITE_RUNNERS[name](a)), name
    b = SuiteArgs(3, 0, 3, 0)
    b.oracle = _mutate(b.oracle)
    assert _fails(SUITE_RUNNERS["crosscheck"](b))
    c = SuiteArgs(2, 0, 3, 0)
    c.recursion.coeffs[3] = c.recursion.coeffs[3] + P("1/7*t1")
    assert _fails(SUITE_RUNNERS["invariants"](c))


def _ks_run(m: int) -> Report:
    return SUITE_RUNNERS["ks"](SuiteArgs(m, QQ(7, 11), 2, 3))


def _ks_run_with_bumped_phi(m: int) -> Report:
    """_ks_run(m) with the stored phi[m,2] bumped by 1 (as the bench's
    negative control does); the stored table is restored and the series
    caches built from it are cleared."""
    def clear():
        zcalculus.phi_series_gen.cache_clear()

    assert _ks_run(m).ok
    stored = zcalculus._PHI_STORE[m]  # now long enough for every series _ks_run builds
    bumped = stored[2] + Coefficient.rational(1)
    zcalculus._PHI_STORE[m] = stored[:2] + (bumped,) + stored[3:]
    clear()
    try:
        return _ks_run(m)
    finally:
        zcalculus._PHI_STORE[m] = stored
        clear()


def test_one_ks_suite_builds_the_phi_table_once(monkeypatch):
    """The spectral curve, whose basis vectors reach deepest (K = 21 here;
    the ladder actions need K = 18), runs first, so one ks suite builds the
    stored phi coefficients once."""
    builds = []
    build = zcalculus._phi_coefficients

    def counted(m, K):
        builds.append((m, K))
        return build(m, K)

    monkeypatch.setattr(zcalculus, "_PHI_STORE", {})
    monkeypatch.setattr(zcalculus, "_phi_coefficients", counted)
    zcalculus.phi_series_gen.cache_clear()
    assert run_suites(["ks"], m=1, N=0, depth=12).ok
    assert builds == [(1, 21)]


def test_ks_mutation_control():
    """Bumping one stored basis-vector coefficient phi[1,2] makes the ks
    suite print a FAIL line, and the suite passes again after."""
    assert _fails(_ks_run_with_bumped_phi(1))
    assert _ks_run(1).ok


KS_FAIL_LINES_SHA256 = "3f3901d8cc3993a7973a42c74f5346e0e8780cc16a56c3ff4370b4dbe533b63e"


def test_ks_fail_lines_are_pinned(monkeypatch):
    """Every PASS/FAIL line of the KS suites under two corruptions, with the
    d-order and the residual exponent each FAIL line names, against a
    recorded sha256: (a) the ks suite at m = 1, 2, 3, N = 7/11 with phi[m,2]
    bumped by 1; (b) the commutation, canonical-pair (m >= 2) and
    spectral-curve checks at m = 1..3, N in {0, symbolic}, depth 6, with
    h z^-5 d^2 added to c.  165 lines, 102 of them FAIL."""
    lines = [line for m in (1, 2, 3) for line in _ks_run_with_bumped_phi(m).lines()]
    ks_operators = zcalculus.ks_operators
    extra = ZOperator({2: LaurentSeries.z_power(-5, Coefficient.monomial(1, h=1))})

    def corrupted(m, N, depth):
        ks = ks_operators(m, N, depth)
        return dataclasses.replace(ks, c=ks.c + extra)

    monkeypatch.setattr(zcalculus, "ks_operators", corrupted)
    for m, N in product((1, 2, 3), (0, "symbolic")):
        lines += zcalculus.check_commutation(m, N, 6).lines()
        if m >= 2:
            lines += zcalculus.check_canonical_pair(m, N, 6).lines()
        lines += zcalculus.check_spectral_curve(m, N, 2, 6).lines()
    fails = [line for line in lines if line.startswith("FAIL ")]
    assert (len(lines), len(fails)) == (165, 102), "\n".join(fails)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KS_FAIL_LINES_SHA256, "\n".join(fails)


@pytest.mark.parametrize("source, entry, order", [
    ("AppendixA", "Phi2[1]", None),
    ("AppendixB", "tau2[2]", 3),
    ("AppendixC", "tauN[1]", 2),
    ("Inline", "inline[2]", None),
])
def test_golden_mutation_controls(tmp_path, monkeypatch, source, entry, order):
    """On a copied table with one entry corrupted, the golden suite FAILs
    exactly that entry and the checksum suite FAILs the file."""
    golden = tmp_path / "golden"
    shutil.copytree(verify.GOLDEN_DIR, golden)
    path = golden / verify.GOLDEN_SOURCES[source]
    lines = path.read_text().splitlines()
    lines = [line + "+1/7" if line.startswith(f"{entry} = ") else line for line in lines]
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(verify, "GOLDEN_DIR", golden)
    rep = golden_suite(source, order)
    assert {c.name for c in rep.failures} == {entry}
    assert _fails(rep)
    assert _fails(SUITE_RUNNERS["checksums"](None))


def _full_image_constraint_suite(m: int, N, T) -> Report:
    """Reference for constraint_suite: each operator applied to the whole
    truncated sum sum_k h^k tau_k, its image read off at h^p for p <= K-2."""
    tau = TimePolynomial.zero()
    for k, c in enumerate(T.coeffs):
        tau = tau + times_h(c, k)
    rep = Report()
    K = T.order
    maxdeg = m * K
    for kind, k_lo in (("J", 1), ("L", 0), ("M", -1)):
        for k in range(k_lo, constraint_index_bound(m, maxdeg) + 1):
            image = whole(constraint(m, N, kind, k, maxdeg)).apply(tau)
            bad = ""
            for p in range(0, K - 1):
                resid = {mono: r for mono, c in image.terms.items() if (r := c.h_part(p))}
                if resid:
                    mono = sorted(resid, key=lambda mm: (mm.degree, mm.exps))[0]
                    bad = f"h^{p} residual at {mono!r}"
                    break
            rep.add(f"constraints[m={m},N={N}]", f"{kind}[{k}]", not bad, bad)
    return rep


@pytest.fixture(scope="module")
def bench_expansions():
    """The expansions of the verify bench workload (its rational N_s drawn
    as 7/11) and its m = 3 oracle input."""
    return [tau_expand(2, 0, 8), tau_expand(2, QQ(7, 11), 7), tau_expand(2, "symbolic", 6),
            tau_expand(1, "symbolic", 10), tau_from_schur(plucker_expansion(3, 0, 9))]


def test_constraint_suite_matches_the_full_image(bench_expansions):
    """The h-graded suite prints the reference's lines, FAIL details
    included, on each expansion and on copies corrupted at each order
    k = 1..K.  Every corrupted copy FAILs but tau_K at m = 1: there the 1/h^2
    part d/dt_(2k+2) of M_k misses the odd times tau_K is made of."""
    fails = 0
    for T in bench_expansions:
        for bad in [T] + [_mutate(T, k) for k in range(1, T.order + 1)]:
            want = _full_image_constraint_suite(T.m, T.N, bad).lines()
            assert constraint_suite(T.m, T.N, bad).lines() == want
            fails += any(line.startswith("FAIL ") for line in want)
    assert fails == 33


def test_constraint_suite_reads_h_inside_tau_k(bench_expansions):
    """Moving h^K tau_K into slot K-1 as h * tau_K (tau_K itself set to 0)
    leaves the truncated sum, and so every line, unchanged."""
    T = bench_expansions[0]
    moved = _mutate(T, T.order)
    coeffs = list(moved.coeffs)
    coeffs[-2] = coeffs[-2] + times_h(coeffs[-1], 1)
    coeffs[-1] = TimePolynomial.zero()
    regraded = TauExpansion(T.m, T.N, coeffs, T.provenance)
    assert constraint_suite(T.m, T.N, regraded).lines() == \
        constraint_suite(T.m, T.N, moved).lines()


def test_constraint_suite_reaches_tau_K_by_the_1_over_h2_part_only(bench_expansions):
    """A corruption of tau_K alone FAILs at h^(K-2), and only in M
    operators: their 1/h^2 part is the only one that carries tau_K down to
    a checked order."""
    T = bench_expansions[0]
    K = T.order
    rep = constraint_suite(T.m, T.N, _mutate(T, K))
    assert rep.failures
    for c in rep.failures:
        assert c.name.startswith("M[") and c.detail.startswith(f"h^{K - 2} residual"), c.line()


def test_constraint_suite_differentiates_each_tau_part_once_per_derivative_part(
        bench_expansions, monkeypatch):
    """One suite pass differentiates each h^q part of tau by each derivative
    part at most once, however many operators hold that part; a Hirota pass
    differentiates each tau_k by each of its eight parts at most once (one
    DerivativeTable per tau_k)."""
    calls: dict[tuple[int, TimeMonomial], int] = {}
    held = []  # keeps every differentiating table alive, so ids stay unique
    derivative = DerivativeTable.derivative

    def counted(t, d):
        held.append(t)
        calls[id(t), d] = calls.get((id(t), d), 0) + 1
        return derivative(t, d)

    monkeypatch.setattr(DerivativeTable, "derivative", counted)
    for T in bench_expansions:
        assert constraint_suite(T.m, T.N, T).ok
    assert calls and max(calls.values()) == 1
    calls.clear()
    for T in bench_expansions:
        assert hirota_suite(T).ok
    assert calls and max(calls.values()) == 1


def seven_product_hirota_suite(T: TauExpansion) -> Report:
    """Reference for hirota_suite: the identity's seven products formed for
    every (a, b) with a + b = p and added to the residual one at a time."""
    rep = Report()
    suite = f"hirota[m={T.m},N={T.N}]"
    cs = T.coeffs

    def dd(*exps) -> list[TimePolynomial]:
        dm = TimeMonomial(exps)
        return [derivative(c, dm) for c in cs]

    d1, d11, d111, d1111 = dd((1, 1)), dd((1, 2)), dd((1, 3)), dd((1, 4))
    d2, d22, d3, d13 = dd((2, 1)), dd((2, 2)), dd((3, 1)), dd((1, 1), (3, 1))
    for p in range(0, T.order + 1):
        acc = TimePolynomial.zero()
        for a in range(0, p + 1):
            b = p - a
            acc = acc + cs[a] * d1111[b]
            acc = acc - d1[a] * d111[b].scale(4)
            acc = acc + d11[a] * d11[b].scale(3)
            acc = acc + cs[a] * d22[b].scale(3)
            acc = acc - d2[a] * d2[b].scale(3)
            acc = acc - cs[a] * d13[b].scale(4)
            acc = acc + d1[a] * d3[b].scale(4)
        bad = ""
        if acc:
            mono = sorted(acc.terms, key=lambda mm: (mm.degree, mm))[0]
            bad = f"residual at {mono!r}"
        rep.add(suite, f"h^{p}", not bad, bad)
    return rep


def test_hirota_suite_matches_the_seven_product_reference(bench_expansions):
    """The grouped-product suite prints the reference's lines, FAIL details
    included, on each expansion and on copies corrupted at each order
    k = 1..K: 39 inputs, 29 of them FAIL."""
    fails = 0
    for T in bench_expansions:
        for bad in [T] + [_mutate(T, k) for k in range(1, T.order + 1)]:
            want = seven_product_hirota_suite(bad).lines()
            assert hirota_suite(bad).lines() == want
            fails += any(line.startswith("FAIL ") for line in want)
    assert fails == 29


def test_hirota_suite_sums_each_order_over_the_lcm_of_the_pair_denominators():
    """tau_1 = t1/2 + t3 and tau_2 = t1 t3 + t2^2/3 over denominators 2 and
    3: at h^2 the pairs (0, 2), (1, 1), (2, 0) have denominators 3, 4, 3,
    whose lcm 12 is not their max 4.  P(tau_1, tau_1) = 4 and
    2 P(1, tau_2) = -4 cancel, so every order PASSes, and only with each
    pair brought over the lcm."""
    T = TauExpansion(2, 0, [TimePolynomial.one(), P("1/2*t1+1/1*t3"),
                            P("1/1*t1*t3+1/3*t2^2")])
    rep = hirota_suite(T)
    assert rep.ok and len(rep.cases) == 3
    assert rep.lines() == seven_product_hirota_suite(T).lines()


def reference_free_energy(T: TauExpansion) -> list[TimePolynomial]:
    """Reference for free_energy: F_k = tau_k - sum_{i<k} (i/k) F_i tau_(k-i),
    every product one pair of canonical coefficients at a time (mul_into)."""
    F = [TimePolynomial.zero()]
    for k in range(1, T.order + 1):
        acc = dict(T.coeffs[k].terms)
        for i in range(1, k):
            mul_into(acc, F[i].scale(QQ(-i, k)).terms, T.coeffs[k - i].terms)
        F.append(TimePolynomial(acc))
    return F[1:]


def _reference_mul(a: TimePolynomial, b: TimePolynomial) -> TimePolynomial:
    out: dict = {}
    mul_into(out, a.terms, b.terms)
    return TimePolynomial(out)


def _from_rows(rows: list, den: int) -> TimePolynomial:
    """A polynomial from numerator form, one atom at a time, its packed
    monomials unpacked; every monomial must come once and every numerator
    must be nonzero."""
    rows = [(tunpack(tk), nums) for tk, nums in rows]
    assert len({mono for mono, _ in rows}) == len(rows)
    out = {}
    for mono, nums in rows:
        assert nums and all(v for _, v in nums)
        c = Coefficient()
        for key, v in nums:
            h, n, j = _cunpack(key)
            c = c + Coefficient.monomial(QQ(v, den), h=h, n=n, j=j)
        out[mono] = c
    return TimePolynomial(out)


HIROTA_PARTS = [TimeMonomial(d) for d in ((), ((1, 1),), ((1, 2),), ((1, 3),), ((1, 4),),
                                          ((2, 1),), ((2, 2),), ((3, 1),), ((1, 1), (3, 1)))]


@settings(max_examples=100, deadline=None)
@given(polynomials(), st.lists(polynomials(), min_size=2, max_size=4),
       st.lists(monomials, max_size=3))
def test_product_kernel_routes_match_their_references(a, taus, parts):
    """TimePolynomial.__mul__, free_energy, DerivativeTable and hirota_suite,
    which all run through algebra's product kernel, against the pair-at-a-time
    references, on random polynomials and random "expansions" (tau_0 = 1,
    random tau_k): equal values, every output coefficient canonical, and the
    same Hirota lines, FAIL details included."""
    b = taus[0]
    assert a * b == _reference_mul(a, b)
    assert not not_canonical(a * b)
    T = TauExpansion(2, 0, [TimePolynomial.one()] + taus)
    F = free_energy(T)
    assert F == reference_free_energy(T)
    assert not [f for f in F if not_canonical(f)]
    for p in [a] + taus:
        table = DerivativeTable(p)
        for dm in HIROTA_PARTS + parts:
            assert _from_rows(table[dm], table.den) == derivative(p, dm), dm
    assert hirota_suite(T).lines() == seven_product_hirota_suite(T).lines()


def test_the_kernel_property_sees_a_mul_sums_without_the_rescale(monkeypatch):
    """Negative control: a product kernel whose shared rescale raises a
    monomial's running denominator but leaves the numerators it already
    holds over the old one fails the property above (free_energy and
    hirota_suite add products over different denominators)."""
    monkeypatch.setattr(algebra, "rescaled", rescale_skipped())
    assert fails_its_property(test_product_kernel_routes_match_their_references, polynomials(),
                              st.lists(polynomials(), min_size=2, max_size=4),
                              st.lists(monomials, max_size=3), max_examples=100)


def gauged(T: TauExpansion, L: TimePolynomial) -> TauExpansion:
    """exp(h L) tau for a linear form L in the times, order by order in h
    (reference products only).  The Hirota bilinear form is invariant under
    tau -> exp(linear) tau, so every h^p residual of the result vanishes
    exactly when T's do; and log of the result is h L + log tau."""
    powers = [TimePolynomial.one()]  # L^i / i!
    for i in range(1, T.order + 1):
        powers.append(_reference_mul(powers[-1], L).scale(QQ(1, i)))
    coeffs = []
    for k in range(T.order + 1):
        acc = TimePolynomial.zero()
        for i in range(k + 1):
            acc = acc + _reference_mul(powers[i], T.coeffs[k - i])
        coeffs.append(acc)
    return TauExpansion(T.m, T.N, coeffs, T.provenance)


GAUGE_BASES = [tau_expand(1, "symbolic", 5), tau_expand(2, QQ(7, 11), 4),
               tau_expand(2, "symbolic", 4)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(GAUGE_BASES), st.lists(st.one_of(st.none(), coefficients),
                                              min_size=4, max_size=4))
def test_hirota_and_free_energy_see_exact_cancellation_after_a_gauge(T, ls):
    """On exp(h L) tau, L a random linear form in t1..t4 (mixed
    denominators, h^-2..h^2, N and j powers), every Hirota order PASSes as in
    the reference, and the free energy is tau's with L added at h^1, in
    canonical form: both need exact cancellation across products scaled by
    different D_p."""
    L = sum((poly_term(c, TimeMonomial.var(k)) for k, c in enumerate(ls, 1) if c is not None),
            TimePolynomial.zero())
    G = gauged(T, L)
    rep = hirota_suite(G)
    assert rep.ok and rep.lines() == seven_product_hirota_suite(G).lines()
    F, want = free_energy(G), free_energy(T)
    assert F == [want[0] + L] + want[1:]
    assert not [f for f in F if not_canonical(f)]


def test_canonical_check_sees_a_product_kernel_without_the_final_reduction(monkeypatch):
    """Negative control: (1/2 t1) (2 t1) sums the numerator 2 over 2, and the
    free energy of tau = 1 + h (t1/2 + t2/3) sums F_1 = tau_1 over its
    lcm 6, t1 as 3 over 6, so storing the sums unreduced breaks lowest
    terms."""
    a, b = P("1/2*t1"), P("2/1*t1")
    T = TauExpansion(2, 0, [TimePolynomial.one(), P("1/2*t1+1/3*t2")])
    assert not not_canonical(a * b) and not not_canonical(free_energy(T)[0])
    monkeypatch.setattr(algebra, "_canonical", lambda terms, den: Coefficient(terms, den))
    assert not_canonical(a * b) and not_canonical(free_energy(T)[0])


def test_run_suites_dispatch():
    rep = run_suites(["checksums", "golden-inline"])
    assert rep.ok
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["golden-Z"])


def test_coverage_manifest():
    """Every suite named in the coverage manifest exists, and every
    implemented suite is mentioned there."""
    manifest = Path(__file__).resolve().parent.parent / "docs" / "coverage.md"
    text = manifest.read_text()
    implemented = set(SUITE_RUNNERS)
    mentioned = {
        token.strip("`")
        for token in text.split()
        if token.startswith("`") and token.strip("`") in implemented
    }
    assert mentioned == implemented, implemented - mentioned
