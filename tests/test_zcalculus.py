"""Laurent series, Phi series, Kac-Schwarz operators and their identities."""

from itertools import product
from math import inf

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    canonical_nonzero,
    dz,
    fails_its_property,
    items_hnj,
    rescale_skipped,
    series_eq,
    series_is_zero,
)
from bgwtau import zcalculus
from bgwtau.algebra import (
    COEFF_ONE,
    Coefficient,
    TimePolynomial,
    add_into,
    canonical_text,
    merged,
    parse_polynomial,
)
from bgwtau.operators import n_coeff
from bgwtau.rational import QQ
from bgwtau.zcalculus import (
    LaurentSeries,
    ZOperator,
    _exp_table,
    _ks_exact,
    _phi_coefficients,
    _phis,
    canonical_pair,
    check_canonical_pair,
    check_commutation,
    check_ks_actions,
    check_spectral_curve,
    ks_operators,
    phi_coefficients,
    phi_series,
    phi_series_gen,
    z_commutator,
)

P = parse_polynomial


def cst(text):
    poly = P(text)
    return poly.terms.get(next(iter(poly.terms))) if poly.terms else Coefficient()


def test_phi_m2_symbolic():
    coeffs = phi_coefficients(2, 2)
    assert TimePolynomial.constant(coeffs[1]) == P("-1/2*j^2+3/2*j-5/6")


def test_phi_m1_first_coefficient():
    coeffs = phi_coefficients(1, 1)
    # -(4(j-1)^2 - 1)/8
    assert TimePolynomial.constant(coeffs[1]) == P("-1/2*j^2+1/1*j-3/8")


def test_phi_m1_factorial_pattern():
    """(-1)^k a_k(j) / (8^k k!) with a_k(j) = prod (4(j-1)^2 - (2i-1)^2)."""
    coeffs = phi_coefficients(1, 4)
    jm1 = Coefficient.monomial(1, j=1) - Coefficient.rational(1)
    jm1sq = jm1 * jm1
    base = jm1sq.scale(4)
    fact = 1
    acc = Coefficient.one()
    for k in range(1, 5):
        fact *= k
        acc = acc * (base - Coefficient.rational((2 * k - 1) ** 2))
        assert coeffs[k] == acc.scale(QQ((-1) ** k, 8 ** k * fact))


def test_phi_m3_j1_value():
    s = phi_series(3, 1, 1)
    assert s.coeffs[-3] == Coefficient.monomial(QQ(1, 24), h=1)


def test_phi_gen_m2_j1_display():
    s = phi_series_gen(2, "symbolic", 1, 2)
    c1 = s.coeffs[-2]
    assert TimePolynomial.constant(c1.h_part(1)) == P("-1/2*N^2-1/2*N+1/6")
    c2 = s.coeffs[-4]
    assert TimePolynomial.constant(c2.h_part(2)) == P(
        "1/8*N^4+5/12*N^3-5/24*N^2-5/6*N+1/72"
    )


def test_phi_gen_reduces_to_phi_at_zero():
    assert series_eq(phi_series_gen(2, 0, 3, 4), phi_series(2, 3, 4))
    assert series_eq(phi_series_gen(1, 0, 2, 6), phi_series(1, 2, 6))


def test_phi_parity_and_reality():
    """Only powers h^k z^(-mk), rational after j-binding."""
    for m in (1, 2, 3):
        s = phi_series(m, 4, 5)
        for n, c in s.coeffs.items():
            k = (4 - 1 - n) // m
            assert n == 3 - m * k
            assert c and c.h_part(k).times_h(k) == c
            assert all(ne == 0 and je == 0 for (_, ne, je), _ in items_hnj(c))


def test_phi_j_degree_is_2k():
    for m in (1, 2, 3):
        coeffs = phi_coefficients(m, 5)
        for k in range(1, 6):
            degs = [je for (_, _, je), _ in items_hnj(coeffs[k])]
            assert max(degs) == 2 * k, f"j-degree of phi[{m},{k}]"


def test_exp_table_entries_have_equal_u_and_phi_parity():
    """Each factor exp(tstar_l phi^l) adds s(l-2) to the u-power p and s*l
    to the phi-power q, so every entry has p = q (mod 2): with the moments'
    r = q (mod 2) this makes the u-power p + r and the i-power r + 3q even,
    which is why the Phi coefficients come out real and even in u."""
    for m in range(1, 7):
        for K in range(13):
            assert all((p - q) % 2 == 0 for p, q in _exp_table(m, K)[0]), (m, K)


class PhiRingElement:
    """Map (i-power mod 4, u-power) -> Coefficient (polynomial in j)."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms: dict[tuple[int, int], Coefficient] = {}

    def add(self, i4: int, u: int, c: Coefficient) -> None:
        add_into(self.terms, (i4 & 3, u), c)

    def finalize(self, K: int) -> list[Coefficient]:
        """Collapse i^2 -> -1 and map u^(2k) to slot k; odd u-powers or a
        nonzero imaginary part signal an internal inconsistency."""
        out = [Coefficient() for _ in range(K + 1)]
        by_u: dict[int, list[Coefficient]] = {}
        for (i4, u), c in self.terms.items():
            slot = by_u.setdefault(u, [Coefficient()] * 4)
            slot[i4] = slot[i4] + c
        for u, (c0, c1, c2, c3) in sorted(by_u.items()):
            real = c0 - c2
            imag = c1 - c3
            assert not imag, f"parity violation: imaginary residue at u^{u}"
            if not real:
                continue
            assert u % 2 == 0, f"parity violation: odd u-power {u}"
            if u // 2 <= K:
                out[u // 2] = real
        return out


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def phi_coefficients_per_entry(m: int, K: int) -> tuple:
    """Reference for _phi_coefficients: every (exp-table entry, r) pair
    scales its binomial j-polynomial and lands at its (i-power, u-power)
    slot; the slots then collapse i^2 -> -1 and u^2 -> h."""
    cap = 2 * K
    elem = PhiRingElement()
    binoms = [COEFF_ONE]
    cur = COEFF_ONE
    for r in range(1, cap + 1):
        jshift = Coefficient.monomial(1, j=1) + Coefficient.rational(r - 1)
        cur = (cur * jshift).scale(QQ(-1, r))
        binoms.append(cur)
    table, den = _exp_table(m, K)
    for (p, q), num in table.items():
        v = QQ(num, den)
        for r in range(0, cap - p + 1):
            if (q + r) % 2:
                continue
            moment = _double_factorial(q + r - 1)
            elem.add(r + 3 * q, p + r, binoms[r].scale(v * moment))
    return tuple(elem.finalize(K))


def test_phi_coefficients_match_the_per_entry_reference():
    for m in range(1, 7):
        for K in range(16 if m <= 2 else 12):
            got, want = _phi_coefficients(m, K), phi_coefficients_per_entry(m, K)
            assert [repr(c) for c in got] == [repr(c) for c in want], (m, K)
            assert got == want and all(map(canonical_nonzero, got)), (m, K)


def test_laurent_floor_rules():
    a = LaurentSeries({2: Coefficient.one(), -1: Coefficient.one()}, -3)
    b = LaurentSeries({0: Coefficient.one(), -2: Coefficient.one()}, -2)
    s = a + b
    assert s.floor == -2
    p = a * b
    assert p.floor == max(-3 + 0, -2 + 2)
    d = dz(a)
    assert d.floor == -4
    sh = a.shift(5)
    assert sh.floor == 2


def test_an_empty_series_with_a_floor_still_bounds_products():
    """Nothing stored at or above a floor still leaves unknown content below
    it: the series reaches floor - 1, so a product with it, and the action
    shift of an operator holding it, stay bounded."""
    a, b = LaurentSeries({}, -3), LaurentSeries({}, 1)
    assert (a.reach(), b.reach(), LaurentSeries.zero().reach()) == (-4, 0, -inf)
    assert repr(a * b) == "0  (floor z^-3)"
    assert ZOperator({1: LaurentSeries({}, 2)}).max_shift() == 0


def test_floor_conservative_under_depth_increase():
    lo = phi_series(2, 1, 3)
    hi = phi_series(2, 1, 8)
    for n, c in lo.coeffs.items():
        assert hi.coeffs.get(n, Coefficient()) == c


def test_zop_apply_basics():
    ddz = ZOperator.ddz()
    s = LaurentSeries.z_power(2)
    assert ddz.apply(s).coeffs == {1: Coefficient.rational(2)}


def test_ks_action_single():
    # a_m Phi_1 = (1/h) Phi_{1+m} at m=2
    ks = ks_operators(2, 0, 14)
    K = 6
    lhs = ks.a.apply(phi_series(2, 1, K))
    rhs = phi_series(2, 3, K).scale(Coefficient.monomial(1, h=-1))
    assert series_is_zero(lhs - rhs)


def test_ks_actions_reports():
    assert check_ks_actions(1, 0, 4, 20).ok
    assert check_ks_actions(2, "symbolic", 3, 12).ok
    assert check_ks_actions(3, 0, 3, 12).ok


def test_ks_action_negative_control():
    """Perturbing Phi_2 by eps z^-1 breaks the b-ladder."""
    m, K = 2, 6
    ks = ks_operators(m, 0, 16)
    phi1 = phi_series(m, 1, K)
    phi2 = phi_series(m, 2, K) + LaurentSeries({-1: Coefficient.rational(QQ(1, 7))})
    phi5 = phi_series(m, 5, K)
    lhs = ks.b.apply(phi1)
    rhs = phi2.scale(Coefficient.monomial(1 * (m + 1), h=1)) + phi5
    assert not series_is_zero(lhs - rhs)


def test_commutation_reports():
    assert check_commutation(1, 0, 16).ok
    assert check_commutation(2, "symbolic", 16).ok
    assert check_commutation(4, 0, 12).ok


def full_product_compose(a: ZOperator, b: ZOperator) -> ZOperator:
    """Reference for ZOperator.compose: every product computed in full, each
    order truncated at o + tail + 1 only after the sum."""
    out = ZOperator({})
    for i, ci in a.terms.items():
        for l, bl in b.terms.items():
            binom = 1
            ds = bl
            for s in range(i + 1):
                if s:
                    binom = binom * (i - s + 1) // s
                    ds = dz(ds)
                add_into(out.terms, i + l - s, ci.scale(binom) * ds)
    tail = max(a.tail_shift + b.max_shift(), a.tail_shift + b.tail_shift,
               a.max_shift() + b.tail_shift)
    return ZOperator({o: s.truncate(o + tail + 1) for o, s in out.terms.items()}, tail)


def full_product_apply(a: ZOperator, s: LaurentSeries) -> LaurentSeries:
    """Reference for ZOperator.apply: full products, truncated after the sum."""
    out = LaurentSeries.zero()
    for order, c in a.terms.items():
        d = s
        for _ in range(order):
            d = dz(d)
        out = out + c * d
    return out.truncate(s.reach() + a.tail_shift + 1)


def test_truncated_products_match_the_full_product_reference():
    """compose and apply compute no coefficient below a tail's cut; floors,
    tail shifts and every coefficient (repr) equal the full-product
    reference's, for the products the KS suites form."""
    for m, N, depth in product((1, 2, 3), (0, QQ(-1, 2), QQ(7, 11), "symbolic"), (6, 12)):
        ks = ks_operators(m, N, depth)
        pairs = [(ks.c, ks.d), (ks.d, ks.c), (ks.d, ks.d_inv), (ks.d_inv, ks.d),
                 (ks.d_inv, ks.d_inv), (ks.b, ks.d_inv)]
        ops = [ks.a, ks.c, ks.d, ks.d_inv]
        # the suites form d.d only at m >= 3 (in d^(m-1)); at m = 1 its full
        # product reference takes seconds at depth 12, so it runs at depth 6
        if m >= 2 or depth == 6:
            pairs.append((ks.d, ks.d))
            ops.append(ks.d.compose(ks.d))
        if m >= 2:
            p, q, _ = canonical_pair(m, N, depth)
            pairs += [(p, q), (q, p)]
        for a, b in pairs:
            assert repr(a.compose(b)) == repr(full_product_compose(a, b)), (m, N, depth)
        for j in (1, 2):
            phi = phi_series_gen(m, N, j, 4)
            for op in ops:
                assert repr(op.apply(phi)) == repr(full_product_apply(op, phi)), (m, N, depth, j)


# small operators and series: coefficients +-1..3, h, N + 1, and rationals
# whose denominators 2, 3, 5, 7 do not divide one another, so a z-power's
# running denominator grows and its held numerators are rescaled; bounds -inf
# or an int; a series may be empty and still carry a floor.  A series is
# built canonical: its draws below the floor are dropped by truncate.
_coeffs = st.sampled_from([Coefficient.rational(c) for c in (1, 2, 3, -1, -2, -3)]
                          + [Coefficient.rational(q) for q in (QQ(1, 2), QQ(-2, 3), QQ(3, 5))]
                          + [Coefficient.monomial(1, h=1), Coefficient.monomial(QQ(1, 7), h=1),
                             Coefficient.monomial(1, n=1) + COEFF_ONE])
_bounds = st.just(-inf) | st.integers(-6, 2)
_series = st.builds(lambda coeffs, floor: LaurentSeries(coeffs).truncate(floor),
                    st.dictionaries(st.integers(-5, 3), _coeffs, max_size=4), _bounds)
_operators = st.builds(ZOperator, st.dictionaries(st.integers(0, 2), _series, max_size=3), _bounds)


def assert_canonical(s: LaurentSeries):
    """The LaurentSeries invariant: no zero stored, nothing below the floor."""
    assert all(s.coeffs.values()) and all(n >= s.floor for n in s.coeffs), s


def assert_results_canonical(a: ZOperator, b: ZOperator, s: LaurentSeries, t: LaurentSeries,
                             c: Coefficient, k: int, floor: int):
    for r in (s + t, s - t, -s, s.scale(c), s.scale(0), s.shift(k), dz(s), s * t,
              s.truncate(floor), a.apply(s)):
        assert_canonical(r)
    for op in (a + b, a.compose(b)):
        for r in op.terms.values():
            assert_canonical(r)


@settings(max_examples=300, deadline=None)
@given(_operators, _operators, _series, _series, _coeffs, st.integers(-3, 3), _bounds)
def test_every_operation_keeps_series_canonical(a, b, s, t, c, k, floor):
    """Series ops (+ - neg scale shift dz * truncate) and ZOperator ops
    (+ apply compose) give canonical results on canonical inputs, so the
    constructor need not re-check its input."""
    assert_results_canonical(a, b, s, t, c, k, floor)


def test_canonical_check_sees_an_add_without_the_floor_filter(monkeypatch):
    """Negative control: an add that merges but keeps what lies below the
    raised floor fails the check above."""
    s = LaurentSeries({1: COEFF_ONE, -3: COEFF_ONE}).truncate(-4)
    t = LaurentSeries({0: COEFF_ONE}).truncate(-1)
    args = (ZOperator(), ZOperator(), s, t, COEFF_ONE, 0, -inf)
    assert_results_canonical(*args)
    monkeypatch.setattr(LaurentSeries, "__add__", lambda x, y: LaurentSeries(
        merged(x.coeffs, y.coeffs), max(x.floor, y.floor)))
    with pytest.raises(AssertionError):
        assert_results_canonical(*args)


@settings(max_examples=400, deadline=None)
@given(_operators, _operators, _series)
def test_compose_and_apply_match_the_full_product_reference_on_any_operator(a, b, s):
    """The reference check above on arbitrary small operators, not only the
    ones the KS suites build: floors, tail shifts and coefficients (repr)."""
    assert repr(a.compose(b)) == repr(full_product_compose(a, b))
    assert repr(a.apply(s)) == repr(full_product_apply(a, s))


def test_the_reference_property_sees_a_kernel_that_skips_the_rescale(monkeypatch):
    """Negative control: a product kernel whose shared rescale raises a
    z-power's running denominator but leaves the numerators it already holds
    over the old one fails the property above (its strategy draws non-nested
    denominators)."""
    monkeypatch.setattr(zcalculus, "rescaled", rescale_skipped())
    assert fails_its_property(
        test_compose_and_apply_match_the_full_product_reference_on_any_operator,
        _operators, _operators, _series, max_examples=400)


def power_by_composition(a: ZOperator, e: int) -> ZOperator:
    """Reference for ZOperator.power: e compositions from the identity."""
    out = ZOperator.identity()
    for _ in range(e):
        out = out.compose(a)
    return out


def test_power_matches_composition_from_the_identity_on_the_ks_operators():
    """Floors, tail shifts and coefficients (repr) of a^e, e = 0..3, for
    the KS operators and the step T, d's tail and d_inv's exact form
    included."""
    for m, N in product((1, 2, 3, 4), (0, QQ(7, 11), "symbolic", QQ(-1, 2))):
        ks = ks_operators(m, N, 6)
        for name, op in (("a", ks.a), ("b", ks.b), ("c", ks.c), ("d", ks.d),
                         ("d_inv", ks.d_inv), ("step", literal_step(m, N))):
            for e in range(4):
                assert repr(op.power(e)) == repr(power_by_composition(op, e)), (m, N, name, e)


@settings(max_examples=200, deadline=None)
@given(_operators, st.integers(0, 3))
def test_power_matches_composition_from_the_identity_on_any_operator(a, e):
    assert repr(a.power(e)) == repr(power_by_composition(a, e))


def literal_step(m: int, N) -> ZOperator:
    """The step T = -h z^-m (z d/dz - m/2 - N) of the KS operator d, written
    out: -h z^(1-m) d/dz + h (m/2 + N) z^-m."""
    hmn = (Coefficient.rational(QQ(m, 2)) + n_coeff(N)).times_h(1)
    return ZOperator({1: LaurentSeries.z_power(1 - m, Coefficient.monomial(-1, h=1)),
                      0: LaurentSeries.z_power(-m, hmn)})


def d_by_composition(m: int, N, depth: int) -> ZOperator:
    """Reference for ks_operators' d: the geometric series sum_k T^k z,
    each term composed from the previous one, summed, and given the tail
    shift 1 - m (k_max + 1)."""
    k_max = (depth + 2 + m) // m + 1
    step = literal_step(m, N)
    term = d = ZOperator({0: LaurentSeries.z_power(1)})
    for _ in range(k_max):
        term = step.compose(term)
        d = d + term
    return ZOperator(d.terms, 1 - m * (k_max + 1))


KS_GRID_N = (0, QQ(7, 11), "symbolic", QQ(-1, 2), "-m/2", QQ(1, 2), 1, -3)


def off_canonical(op: ZOperator) -> list:
    """(order, z-power) of every stored coefficient of op that is zero or
    not in lowest terms over a positive denominator."""
    return [(o, n) for o, s in op.terms.items() for n, c in s.coeffs.items()
            if not canonical_nonzero(c)]


def test_d_matches_the_composed_geometric_series():
    """d from the theta-recurrence equals the composed series structurally:
    the same tail shift and orders, and per order the same floor and
    coefficients (numerators and denominator, so an entry left unreduced
    fails although its repr would agree).  Every stored coefficient of the
    KS operators is canonical."""
    for m, N, depth in product((1, 2, 3, 4), KS_GRID_N, (3, 8, 12, 30)):
        N = QQ(-m, 2) if N == "-m/2" else N
        ks = ks_operators(m, N, depth)
        got, want = ks.d, d_by_composition(m, N, depth)
        assert got.tail_shift == want.tail_shift, (m, N, depth)
        assert sorted(got.terms) == sorted(want.terms), (m, N, depth)
        for o, s in want.terms.items():
            g = got.terms[o]
            assert g.floor == s.floor and g.coeffs == s.coeffs, (m, N, depth, o)
        for name, op in (("a", ks.a), ("b", ks.b), ("c", ks.c), ("d", ks.d),
                         ("d_inv", ks.d_inv), ("step", literal_step(m, N))):
            assert not off_canonical(op), (m, N, depth, name)


def test_d_inv_matches_the_literal_two_term_inverse():
    """d_inv = z^-1 (1 - T) equals its literal two-term form
    z^-1 (1 + h z^-m (z d/dz - m/2 - N)), repr included."""
    for m, N in product((1, 2, 3, 4, 5), KS_GRID_N + (-1, 3)):
        N = QQ(-m, 2) if N == "-m/2" else N
        hmn = (Coefficient.rational(QQ(m, 2)) + n_coeff(N)).times_h(1)
        want = ZOperator({1: LaurentSeries.z_power(-m, Coefficient.monomial(1, h=1)),
                          0: LaurentSeries.z_power(-1) + LaurentSeries.z_power(-m - 1, -hmn)})
        assert repr(ks_operators(m, N, 4).d_inv) == repr(want), (m, N)


def test_d_by_steps_matches_the_dense_action():
    """KSOperators.d_apply (k_max diagonal steps T on z s) equals d.apply(s),
    floors included, on basis vectors and on the edge series: a known zero,
    an exact single term and an empty series with a floor.  The grid holds
    N = 1/2 at m = 1, where the step factor h (m/2 + N - n) vanishes at
    n = 1, and N = -m/2, where it vanishes at n = 0."""
    edge = [LaurentSeries.zero(), LaurentSeries.z_power(3, QQ(2, 5)), LaurentSeries({}, -4)]
    for m, N, depth in product((1, 2, 3, 4), KS_GRID_N, (3, 8)):
        N = QQ(-m, 2) if N == "-m/2" else N
        ks = ks_operators(m, N, depth)
        series = [phi_series_gen(m, N, j, K) for j in range(6) for K in (2, 5, 9)] + edge
        for s in series:
            assert repr(ks.d_apply(s)) == repr(ks.d.apply(s)), (m, N, depth, s)


def test_d_by_steps_sees_a_step_factor_off_by_one(monkeypatch):
    """Negative control: a diagonal step factor h (m/2 + N - (n + 1)) fails
    the property above."""
    monkeypatch.setattr(zcalculus, "_step_factor",
                        lambda hmn, n: hmn - Coefficient.monomial(n + 1, h=1))
    with pytest.raises(AssertionError):
        test_d_by_steps_matches_the_dense_action()


def test_ks_series_store_no_zero():
    """No series of the KS operators, the canonical pair or Phi_j stores a
    zero coefficient; d_inv's h (m/2 + N) z^(-m-1) term vanishes at
    N = -m/2."""
    for m in (1, 2, 3):
        for N in (0, QQ(-1, 2), QQ(-1), QQ(-3, 2), "symbolic"):
            ks = ks_operators(m, N, 5)
            ops = [ks.a, ks.b, ks.c, ks.d, ks.d_inv]
            if m >= 2:
                ops += canonical_pair(m, N, 5)[:2]
            series = [s for op in ops for s in op.terms.values()]
            series += [phi_series_gen(m, N, j, 3) for j in range(0, 4)]
            for s in series:
                assert all(s.coeffs.values()), (m, N, s)


@settings(max_examples=300, deadline=None)
@given(_operators, _operators)
def test_commutator_matches_compose_minus_compose_on_any_operator(a, b):
    """z_commutator (the s >= 1 products of both orders only) equals
    a.compose(b) - b.compose(a): floors, tail shift, orders kept empty and
    coefficients (repr)."""
    assert repr(zcalculus.z_commutator(a, b)) == repr(a.compose(b) - b.compose(a))


def test_the_commutator_property_sees_a_dropped_product(monkeypatch):
    """Negative control: a commutator that also drops the first s >= 1
    product of a after b fails the property above."""
    commutator, pairs = zcalculus.z_commutator, zcalculus._compose_pairs

    def dropping(a, b):
        calls = []

        def pairs_dropping_one(x, y):
            calls.append(x)
            it = pairs(x, y)
            if len(calls) == 1:
                for o, s, triple in it:
                    if s:
                        break
                    yield o, s, triple
            yield from it

        with monkeypatch.context() as patch:
            patch.setattr(zcalculus, "_compose_pairs", pairs_dropping_one)
            return commutator(a, b)

    monkeypatch.setattr(zcalculus, "z_commutator", dropping)
    assert fails_its_property(test_commutator_matches_compose_minus_compose_on_any_operator,
                              _operators, _operators)


def test_ab_commutator_explicit():
    for m in (1, 2, 3, 4):
        ks = ks_operators(m, 0, 10)
        resid = z_commutator(ks.a, ks.b) - ks.b.scale(m + 1)
        assert all(series_is_zero(s) for s in resid.terms.values())


def test_canonical_pair_reports():
    assert check_canonical_pair(2, 0, 14).ok
    assert check_canonical_pair(3, "symbolic", 12).ok


def test_shape_cases_fail_on_the_zero_operator(monkeypatch):
    # a missing lead must fail the shape check, not pass it vacuously
    def zero_pair(m, N, depth):
        return ZOperator(), ZOperator(), ks_operators(m, N, depth)

    monkeypatch.setattr(zcalculus, "canonical_pair", zero_pair)
    lines = check_canonical_pair(2, 0, 6).lines()
    assert "FAIL canonical-pair[m=2,N=0]:P in ddz + D_-  [order d^1 has z^0 term]" in lines
    assert "FAIL canonical-pair[m=2,N=0]:Q in z + D_-  [order d^0 has z^1 term]" in lines


def test_the_bench_call_order_builds_each_phi_table_and_series_once(monkeypatch):
    """The ks checks in the bench's order (ladder actions, commutation,
    spectral curve, canonical pair; depth 3, j_max 1) at m = 1..3 and
    N = 0, 7/11, symbolic, from cold caches, build the stored phi
    coefficients once per m and bind each Phi_j once per (m, N, j): every
    check reads its series at the spectral curve's depth."""
    builds = []
    build = zcalculus._phi_coefficients

    def counted(m, K):
        builds.append(m)
        return build(m, K)

    monkeypatch.setattr(zcalculus, "_PHI_STORE", {})
    monkeypatch.setattr(zcalculus, "_phi_coefficients", counted)
    for cached in (phi_series_gen, ks_operators, _ks_exact):
        cached.cache_clear()
    bound = set()
    for m, N in product((1, 2, 3), (0, QQ(7, 11), "symbolic")):
        assert check_ks_actions(m, N, 1, 3).ok and check_commutation(m, N, 3).ok
        assert check_spectral_curve(m, N, 1, 3).ok
        bound |= {(m, N, j) for j in range(m + 3)}
        if m >= 2:
            assert check_canonical_pair(m, N, 3).ok
            bound |= {(m, N, j) for j in range(m + 5)}
    assert builds == [1, 2, 3]
    assert phi_series_gen.cache_info().misses == len(bound)


def test_phis_cut_to_a_check_floor_are_the_series_at_its_depth():
    """A check's basis vectors read at the spectral curve's depth and cut to
    the check's floor j - 1 - mK are phi_series_gen(m, N, j, K), repr (so
    floors) included, at the K of the ladder actions, the canonical pair and
    the spectral curve."""
    for m, N, depth, j_max in product((1, 2, 3), (0, QQ(7, 11), "symbolic"), (0, 3, 8), (1, 4)):
        for K in ((depth + j_max + m) // m + 1, (depth + m + 4) // m + 1,
                  (depth + j_max + 2 * m + 2) // m + 1):
            got = _phis(m, N, range(7), depth, j_max, K)
            for j, s in got.items():
                assert repr(s) == repr(phi_series_gen(m, N, j, K)), (m, N, depth, j_max, K, j)


def test_spectral_curve_reports():
    assert check_spectral_curve(1, 0, 3, 14).ok
    assert check_spectral_curve(2, "symbolic", 3, 12).ok
    assert check_spectral_curve(3, 0, 2, 10).ok


def test_quantum_bessel_explicit():
    phi1 = phi_series(1, 1, 20)
    bessel = (
        ZOperator.ddz(2)
        + ZOperator.ddz(1).scale(Coefficient.monomial(2, h=-1))
        + ZOperator({0: LaurentSeries.z_power(-2, QQ(1, 4))})
    )
    resid = bessel.apply(phi1)
    assert series_is_zero(resid) and resid.floor <= -20


def test_phi_series_symbolic_output_text():
    assert canonical_text(TimePolynomial.constant(phi_coefficients(2, 1)[1])) == \
        "-1/2*j^2+3/2*j-5/6"
