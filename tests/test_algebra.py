"""Exact polynomial ring: arithmetic, grading, substitution, serialization,
the sparse-sum kernel (add_into, merged) and the integer-numerator
Coefficient against a dense Fraction reference."""

from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    as_rational,
    fails_its_property,
    items_hnj,
    monomial_of,
    monomials_up_to,
    mutant,
    poly_term,
    polynomials as mixed_polynomials,
    reference_parse,
    reference_text,
    times_h,
)
from bgwtau import algebra
from bgwtau.algebra import (
    MONO_ONE,
    Coefficient,
    INHOMOGENEOUS,
    TimeMonomial,
    TimePolynomial,
    add_into,
    canonical_text,
    merged,
    parse_polynomial,
    weighted_degree,
)
from bgwtau.operators import DerivativeTable, n_coeff
from bgwtau.rational import QQ
from bgwtau.zcalculus import LaurentSeries, phi_coefficients, phi_series_gen, phi_terms

P = parse_polynomial


def convolution_oracle(a: TimePolynomial, b: TimePolynomial) -> TimePolynomial:
    """Brute-force term-by-term convolution, independent of TimePolynomial.__mul__."""
    out = TimePolynomial.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            d = dict(m1.exps)
            for k, e in m2.exps:
                d[k] = d.get(k, 0) + e
            prod = Coefficient()
            for (h1, n1, j1), q1 in items_hnj(c1):
                for (h2, n2, j2), q2 in items_hnj(c2):
                    prod = prod + Coefficient.monomial(q1 * q2, h=h1 + h2, n=n1 + n2, j=j1 + j2)
            out = out + poly_term(prod, monomial_of(d))
    return out


def test_monomial_products():
    assert P("1/1*t1") * P("1/1*t2") == P("1/1*t1*t2")
    assert P("1/3*t2") * P("1/3*t2") == P("1/9*t2^2")


def test_time_monomial_is_a_tuple_of_its_pairs():
    mono = monomial_of({3: 2, 1: 1, 5: 0})
    assert tuple(mono) == ((1, 1), (3, 2))
    assert hash(mono) == hash(tuple(mono))
    assert mono.exps == mono and mono.exps is mono
    assert repr(mono) == "t1*t3^2" and repr(MONO_ONE) == "1"
    assert not hasattr(mono, "__dict__")
    assert mono.degree == 7 and MONO_ONE.degree == 0
    prod = mono * TimeMonomial.var(1) * TimeMonomial.var(2)
    assert type(prod) is TimeMonomial and prod == TimeMonomial(((1, 2), (2, 1), (3, 2)))
    assert MONO_ONE * mono is mono and mono * MONO_ONE is mono


def test_square_against_convolution_oracle():
    p = P("-1/2*N*t1^2-1/1*N^2*t2+1/3*t2")
    assert p * p == convolution_oracle(p, p)


def test_weighted_degree():
    assert weighted_degree(P("1/1*t2")) == 2
    tau23 = P("-13/36*t1^4*t2+91/162*t2^3-4/3*t1^2*t4")
    assert weighted_degree(tau23) == 6
    assert weighted_degree(P("1/1*t1+1/1*t2")) == INHOMOGENEOUS
    with pytest.raises(ValueError, match="undefined degree"):
        weighted_degree(TimePolynomial.zero())


def test_substitute():
    assert not P("1/1*N*t1^2").substitute(n=0)
    # basis-vector coefficient at j -> 1-N
    phi = Coefficient.monomial(QQ(-1, 2), j=2) + Coefficient.monomial(QQ(3, 2), j=1) \
        + Coefficient.rational(QQ(-5, 6))
    shifted = phi.bind(0, powers_of(Coefficient.rational(1) - Coefficient.monomial(1, n=1), 2))
    expect = Coefficient.rational(QQ(1, 6)) + Coefficient.monomial(QQ(-1, 2), n=1) \
        + Coefficient.monomial(QQ(-1, 2), n=2)
    assert shifted == expect
    p = P("1/8*t1-1/2*N^2*t1")
    assert p.substitute(n=0) == P("1/8*t1")


def test_coefficient_equals_a_string_it_cannot_parse_as_false():
    one = Coefficient.one()
    assert one == "1" and one == 1 and Coefficient.rational(2) == 2
    assert Coefficient.rational(QQ(1, 2)) == "1/2"
    assert one != "abc" and not one == "" and one != "1/0"
    assert one not in ["abc", "t1"] and one in ["abc", "1"]


def test_canonical_text_basics():
    assert canonical_text(TimePolynomial.zero()) == "0"
    assert canonical_text(P("1/3*t2")) == "1/3*t2"
    assert canonical_text(P("-1/2*N*t1^2+1/3*t2-1/1*N^2*t2")) == "-1/2*N*t1^2-1/1*N^2*t2+1/3*t2"


coeff_strategy = st.builds(
    Coefficient.monomial,
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
    h=st.integers(-2, 2),
    n=st.integers(0, 2),
    j=st.integers(0, 2),
)


@st.composite
def polynomials(draw, max_terms=5):
    p = TimePolynomial.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        exps = draw(
            st.dictionaries(st.integers(1, 6), st.integers(1, 3), max_size=3)
        )
        c = draw(coeff_strategy)
        p = p + poly_term(c, monomial_of(exps))
    return p


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a


@settings(max_examples=80, deadline=None)
@given(polynomials())
def test_parse_print_round_trip(p):
    assert parse_polynomial(canonical_text(p)) == p


@settings(max_examples=50, deadline=None)
@given(polynomials(), polynomials(), st.fractions(min_value=-4, max_value=4, max_denominator=3))
def test_substitute_is_multiplicative(a, b, nval):
    lhs = (a * b).substitute(n=nval)
    rhs = a.substitute(n=nval) * b.substitute(n=nval)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_canonicality_audit(a, b):
    for p in (a + b, a - b, a * b):
        for mono, c in p.terms.items():
            assert c, f"zero coefficient stored at {mono!r}"
            assert all(q for _, q in items_hnj(c))


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_weighted_degrees_add_per_term(a, b):
    prod = a * b
    for mono in prod.terms:
        # every product monomial decomposes with additive degrees by construction;
        # canonical_text ordering must therefore be stable under re-parsing
        assert mono.degree >= 0
    assert parse_polynomial(canonical_text(prod)) == prod


def test_mul_matches_convolution_oracle_random():
    import random

    rng = random.Random(7)
    for _ in range(20):
        a = TimePolynomial.zero()
        b = TimePolynomial.zero()
        for _ in range(rng.randint(1, 4)):
            a = a + poly_term(
                Coefficient.monomial(QQ(rng.randint(-5, 5), rng.randint(1, 4)),
                                     h=rng.randint(-1, 1), n=rng.randint(0, 2)),
                monomial_of({rng.randint(1, 5): rng.randint(1, 3)}),
            )
            b = b + poly_term(
                Coefficient.monomial(QQ(rng.randint(-5, 5), rng.randint(1, 4)),
                                     j=rng.randint(0, 2)),
                monomial_of({rng.randint(1, 5): rng.randint(1, 2)}),
            )
        assert a * b == convolution_oracle(a, b)


# ---------------------------------------------------------------------------
# packed t-monomials (algebra.tpack) in the product kernel


def test_product_of_high_powers_of_one_variable():
    """Two exponents of one variable that each fit an 8-bit field but whose
    sum does not: a packing must not carry into the next variable."""
    assert canonical_text(P("1*t1^200") * P("1*t1^100")) == "1/1*t1^300"


def test_exponents_up_to_the_packing_bound_multiply_and_past_it_raise():
    top = algebra._TMAX - 1
    assert P(f"1*t1^{top}*t40^{top}") * P(f"1*t1^{top}*t40^{top}") == \
        P(f"1*t1^{2 * top}*t40^{2 * top}")
    big = P(f"1*t3^{algebra._TMAX}")
    with pytest.raises(ValueError, match="packing range"):
        big * P("1*t1")
    with pytest.raises(ValueError, match="packing range"):
        DerivativeTable(big)
    with pytest.raises(ValueError, match="packing range"):
        algebra.tpack(TimeMonomial.var(40, algebra._TMAX))


# Monomials in t1..t40: small exponents, exponents below the packing bound,
# and exponents near the top of a field, at or above the bound.
_exponents = (st.integers(1, 3) | st.integers(1, algebra._TMAX - 1)
              | st.integers(algebra._TMAX - 50, algebra.TMASK))
packing_monomials = st.dictionaries(st.integers(1, 40), _exponents, max_size=5).map(
    monomial_of)


@settings(max_examples=300, deadline=None)
@given(packing_monomials, packing_monomials)
@example(TimeMonomial.var(1, 40000), TimeMonomial.var(1, 30000))
def test_packing_round_trips_and_multiplies_as_the_tuple_monomials(a, b):
    """tpack raises ValueError exactly when an exponent is at or above the
    bound; otherwise unpacking gives the monomial back, and mul_sums on the
    packed one-term polynomials gives TimeMonomial.__mul__'s monomial."""
    too_big = any(e >= algebra._TMAX for _, e in a + b)
    if too_big:
        with pytest.raises(ValueError):
            algebra.tpack(a), algebra.tpack(b)
        return
    for m in (a, b):
        assert algebra.tunpack(algebra.tpack(m)) == m
        assert type(algebra.tunpack(algebra.tpack(m))) is TimeMonomial
    sums: dict = {}
    ra, rb = ([(algebra.tpack(m), [(algebra._KEY1, 1)])] for m in (a, b))
    algebra.mul_sums(sums, ra, 1, rb, 1)
    assert algebra.reduced(sums) == TimePolynomial({a * b: Coefficient.one()})


def test_packing_check_sees_a_field_with_no_headroom(monkeypatch):
    """Negative control: a bound at the full field width lets two packed
    exponents carry into the next field, which the property above sees."""
    monkeypatch.setattr(algebra, "_TMAX", algebra.TMASK + 1)
    with pytest.raises(AssertionError):
        test_packing_round_trips_and_multiplies_as_the_tuple_monomials()


# ---------------------------------------------------------------------------
# the sparse-sum kernel


def test_add_into_deletes_a_cancelled_key_and_never_stores_zero():
    terms = {}
    add_into(terms, "a", QQ(0))
    add_into(terms, "b", Coefficient())
    assert terms == {}
    add_into(terms, "a", QQ(1, 2))
    add_into(terms, "a", QQ(-1, 2))
    assert terms == {}
    c = Coefficient.monomial(3, h=-1, n=2)
    add_into(terms, "c", c)
    add_into(terms, "c", c)
    assert terms == {"c": c.scale(2)}
    add_into(terms, "c", c.scale(-2))
    assert terms == {}


def test_merged_leaves_its_inputs_unmodified():
    a = {1: QQ(1, 2), 2: QQ(1)}
    b = {1: QQ(-1, 2), 3: QQ(2)}
    a0, b0 = dict(a), dict(b)
    out = merged(a, b)
    assert out == {2: QQ(1), 3: QQ(2)}
    assert a == a0 and b == b0
    assert out is not a and out is not b


nonzero_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
sparse_sums = st.dictionaries(st.integers(0, 6), nonzero_fractions, max_size=6)


def dense(*sums):
    """Dense Fraction reference: one slot per key 0..6, summed."""
    out = [Fraction(0)] * 7
    for terms in sums:
        for k, v in terms:
            out[k] += v
    return {k: v for k, v in enumerate(out) if v}


@settings(max_examples=200, deadline=None)
@given(sparse_sums, sparse_sums,
       st.lists(st.tuples(st.integers(0, 6), st.fractions(-3, 3, max_denominator=4)),
                max_size=12))
def test_kernel_matches_dense_reference(a, b, updates):
    assert merged(a, b) == dense(a.items(), b.items())
    terms = dict(a)
    for k, v in updates:
        add_into(terms, k, v)
        assert all(terms.values())
    assert terms == dense(a.items(), updates)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-6, 3), coeff_strategy, max_size=5),
       st.dictionaries(st.integers(-6, 3), coeff_strategy, max_size=5),
       st.just(-inf) | st.integers(-8, 0), st.just(-inf) | st.integers(-8, 0))
def test_laurent_product_stores_nothing_below_its_floor(ca, cb, fa, fb):
    a = LaurentSeries({n: c for n, c in ca.items() if c}).truncate(fa)
    b = LaurentSeries({n: c for n, c in cb.items() if c}).truncate(fb)
    prod = a * b
    reference = [Coefficient()] * 19  # exponents -12..6
    for n1, c1 in a.coeffs.items():
        for n2, c2 in b.coeffs.items():
            reference[n1 + n2 + 12] = reference[n1 + n2 + 12] + c1 * c2
    assert all(c and n >= prod.floor for n, c in prod.coeffs.items())
    for n in range(max(prod.floor, -12), 7):
        assert prod.coeffs.get(n, Coefficient()) == reference[n + 12]


# ---------------------------------------------------------------------------
# the integer-numerator Coefficient against a Fraction-dict reference

EXPS = st.tuples(st.integers(-2, 2), st.integers(0, 2), st.integers(0, 2))
small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=12)
ref_coefficients = st.dictionaries(EXPS, small_fractions.filter(bool), max_size=5)


def build(ref: dict) -> Coefficient:
    """A Coefficient summed from one-term monomials."""
    out = Coefficient()
    for (h, n, j), q in ref.items():
        out = out + Coefficient.monomial(q, h=h, n=n, j=j)
    return out


def ref_of(c: Coefficient) -> dict:
    return dict(items_hnj(c))


def ref_add(*refs) -> dict:
    out: dict = {}
    for r in refs:
        for k, q in r.items():
            out[k] = out.get(k, Fraction(0)) + q
    return {k: q for k, q in out.items() if q}


def ref_mul(a: dict, b: dict) -> dict:
    return ref_add(*({(h1 + h2, n1 + n2, j1 + j2): q1 * q2}
                     for (h1, n1, j1), q1 in a.items() for (h2, n2, j2), q2 in b.items()))


def ref_substitute(a: dict, n=None, j=None) -> dict:
    """N binds to a Fraction, j to a Fraction or to a reference dict."""
    if j is not None and not isinstance(j, dict):
        j = {(0, 0, 0): Fraction(j)} if j else {}
    out = []
    for (he, ne, je), q in a.items():
        if n is not None:
            q, ne = q * Fraction(n) ** ne, 0
        term = {(he, ne, je if j is None else 0): q}
        for _ in range(0 if j is None else je):
            term = ref_mul(term, j)
        out.append(term)
    return ref_add(*out)


def assert_canonical(c: Coefficient):
    assert c.den > 0
    assert all(type(v) is int and v for v in c.terms.values())
    if c.terms:
        assert gcd(c.den, *c.terms.values()) == 1
    else:
        assert c.den == 1


@settings(max_examples=200, deadline=None)
@given(ref_coefficients, ref_coefficients, small_fractions, st.integers(-2, 2),
       st.integers(-4, 4), st.lists(EXPS, max_size=3))
def test_coefficient_ring_matches_fraction_reference(ra, rb, q, k, p, zero_exps):
    """The ring operations, and _canonical on a's numerators held unreduced
    (times 6) with zero numerators at zero_exps mixed in, and on zeros
    alone: the zeros are dropped, and all zeros give zero over 1."""
    a, b = build(ra), build(rb)
    held = {key: v * 6 for key, v in a.terms.items()}
    with_zeros = {**{algebra._ckey(*e): 0 for e in zero_exps}, **held}
    assert algebra._canonical(with_zeros, a.den * 6) == algebra._canonical(held, a.den * 6)
    results = [
        (algebra._canonical(with_zeros, a.den * 6), ra),
        (algebra._canonical(dict.fromkeys(with_zeros, 0), a.den * 6), {}),
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, {key: -v for key, v in rb.items()})),
        (-a, {key: -v for key, v in ra.items()}),
        (a * b, ref_mul(ra, rb)),
        (a.scale(q), {key: v * q for key, v in ra.items() if q}),
        (a * q, {key: v * q for key, v in ra.items() if q}),
        (a.times_h(k), {(h + k, n, j): v for (h, n, j), v in ra.items()}),
        (a.h_part(p), {(0, n, j): v for (h, n, j), v in ra.items() if h == p}),
    ]
    for c, ref in [(a, ra), (b, rb)] + results:
        assert_canonical(c)
        assert ref_of(c) == ref


@settings(max_examples=200, deadline=None)
@given(mixed_polynomials())
def test_h_parts_split_a_polynomial_by_h_power(p):
    """h_parts keys exactly the h-powers present; each part is h-free,
    nonzero and the per-power h_part reference, and sum_p h^p part_p
    rebuilds p."""
    parts = p.h_parts()
    assert set(parts) == {h for c in p.terms.values() for (h, _, _), _ in items_hnj(c)}
    rebuilt = TimePolynomial.zero()
    for h, part in parts.items():
        assert part and all(e[0] == 0 for c in part.terms.values() for e, _ in items_hnj(c))
        ref = {m: c.h_part(h) for m, c in p.terms.items()}
        assert part == TimePolynomial({m: c for m, c in ref.items() if c})
        rebuilt = rebuilt + times_h(part, h)
    assert rebuilt == p


def test_the_h_parts_property_sees_a_dropped_h_power(monkeypatch):
    """An h_parts that keeps only the first h-power of each coefficient
    loses the rest of a coefficient that spans two."""
    first_only = mutant(TimePolynomial.h_parts, "{(k >> 32) - _HOFF for k in c.terms}",
                        "[(next(iter(c.terms)) >> 32) - _HOFF]")
    monkeypatch.setattr(TimePolynomial, "h_parts", first_only)
    assert fails_its_property(test_h_parts_split_a_polynomial_by_h_power, mixed_polynomials())


def powers_of(j: Coefficient, top: int) -> list:
    """[j^0, ..., j^top]."""
    out = [Coefficient.one()]
    for _ in range(top):
        out.append(out[-1] * j)
    return out


_j_polynomials = st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(0, 2), st.just(0)),
                                 small_fractions.filter(bool), max_size=3)


@settings(max_examples=150, deadline=None)
@given(ref_coefficients, small_fractions, small_fractions, _j_polynomials, st.integers(0, 3))
def test_coefficient_substitute_matches_fraction_reference(ra, nq, jq, rj, extra):
    """bind sets N (shift _NSHIFT) to a rational and j (shift 0) to a
    rational or a polynomial, from a power table that may run past the
    degree (phi_terms passes one table to every coefficient of a series);
    substitute is bind at a rational N."""
    a = build(ra)
    top = max((max(n, j) for _, n, j in ra), default=0) + extra
    rational_n = powers_of(Coefficient.rational(nq), top)
    rational_j, poly_j = powers_of(Coefficient.rational(jq), top), powers_of(build(rj), top)
    for c, ref in [(a.substitute(n=nq), ref_substitute(ra, n=nq)),
                   (a.bind(algebra._NSHIFT, rational_n), ref_substitute(ra, n=nq)),
                   (a.bind(0, rational_j), ref_substitute(ra, j=jq)),
                   (a.bind(0, poly_j), ref_substitute(ra, j=rj)),
                   (a.bind(algebra._NSHIFT, rational_n).bind(0, poly_j),
                    ref_substitute(ra, n=nq, j=rj))]:
        assert_canonical(c)
        assert ref_of(c) == ref


def test_the_binding_property_sees_a_missing_rescale(monkeypatch):
    """bind brings each power's numerators over the top power's denominator,
    which each lower one divides; without that rescale the property fails."""
    monkeypatch.setattr(Coefficient, "bind", mutant(Coefficient.bind, "den // vp.den", "1"))
    assert fails_its_property(test_coefficient_substitute_matches_fraction_reference, ref_coefficients,
                              small_fractions, small_fractions, _j_polynomials, st.integers(0, 3))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_phi_binding_matches_per_coefficient_reference(m):
    """phi_terms and phi_series_gen bind j = j - N from one power table per
    series; the reference binds each stored phi[m,k] on its own."""
    for K in (0, 1, 3, 6):
        coeffs = [ref_of(c) for c in phi_coefficients(m, K)]
        for N in (0, QQ(7, 11), "symbolic", QQ(-1, 2)):
            for j in range(-2, 5):
                J = Coefficient.rational(j) - n_coeff(N)
                want = [build(ref_substitute(c, j=ref_of(J))).times_h(k)
                        for k, c in enumerate(coeffs)]
                assert repr(phi_terms(m, K, J)) == repr(want)
                lead = j - 1
                series = LaurentSeries({lead - m * k: c for k, c in enumerate(want) if c},
                                       lead - m * K)
                assert repr(phi_series_gen(m, N, j, K)) == repr(series)


@settings(max_examples=100, deadline=None)
@given(ref_coefficients, ref_coefficients, ref_coefficients)
def test_equal_coefficients_built_two_ways_compare_and_hash_equal(ra, rb, rc):
    a, b, c = build(ra), build(rb), build(rc)
    for x, y in [((a + b) * c, a * c + b * c), (a * b, b * a), ((a - a) + b, b),
                 (a.scale(Fraction(2, 3)).scale(Fraction(3, 2)), a)]:
        assert x == y and hash(x) == hash(y)
        assert TimePolynomial.constant(x) == TimePolynomial.constant(y)
        assert hash(TimePolynomial.constant(x)) == hash(TimePolynomial.constant(y))


def test_zero_and_rationals_are_canonical():
    assert Coefficient.rational(QQ(2, 4)) == Coefficient.rational(QQ(1, 2))
    assert Coefficient.rational(QQ(2, 4)).terms == Coefficient.rational(QQ(1, 2)).terms
    zero = Coefficient.monomial(3, h=1) - Coefficient.monomial(QQ(6, 2), h=1)
    assert (zero.terms, zero.den) == ({}, 1)
    assert zero == Coefficient() == 0 and hash(zero) == hash(Coefficient())
    third = Coefficient.rational(QQ(1, 3))
    assert third == QQ(1, 3) and as_rational(third) == QQ(1, 3)
    assert (third.scale(3).terms, third.scale(3).den) == (Coefficient.one().terms, 1)


def test_parse_reduces_to_lowest_terms():
    assert parse_polynomial("2/4*h") == parse_polynomial("1/2*h")
    assert canonical_text(parse_polynomial("2/4*h-6/3*t1")) == "-2/1*t1+1/2*h"
    with pytest.raises(ZeroDivisionError):
        parse_polynomial("1/0*h")


# ---------------------------------------------------------------------------
# canonical text against the per-piece references (conftest)


def _polynomial_of(atoms) -> TimePolynomial:
    p = TimePolynomial.zero()
    for mono, a, b, h, n, j in atoms:
        add_into(p.terms, mono, Coefficient.monomial(QQ(a, b), h=h, n=n, j=j))
    return p


# random polynomials: up to 24 atoms on the 12 monomials of degree <= 4, so
# that several share one; h^-2..h^2, N^0..N^3, j^0..j^2, denominators up to
# 30 that need not divide one another
_rich_polynomials = st.lists(
    st.tuples(st.sampled_from(monomials_up_to(4)), st.integers(-9, 9).filter(bool),
              st.integers(1, 30), st.integers(-2, 2), st.integers(0, 3), st.integers(0, 2)),
    max_size=24).map(_polynomial_of)
# random text: characters of the grammar, and near-canonical atoms whose
# signs, rationals and factors may be bad
_ATOM_PARTS = (("", "+", "-", "++", "+-", "--", "-+", " - "),
               ("0", "1", "2", "12", "480", "007"),
               ("", "/0", "/3", "/4", "/12", "/", "/-2"),
               ("*t1", "*t2^2", "*t0", "*t1^0", "*t1^+2", "*h", "*h^-2", "*h^0", "*N",
                "*N^2", "*N^-1", "*j^2", "*t3*N", "^2", "*", " "))
_texts = st.one_of(
    st.text(alphabet="0123456789/*^+-thNj ", max_size=24),
    st.lists(st.tuples(*(st.sampled_from(part) for part in _ATOM_PARTS[:3]),
                       st.lists(st.sampled_from(_ATOM_PARTS[3]), max_size=3).map("".join)),
             min_size=1, max_size=4).map(lambda atoms: "".join("".join(a) for a in atoms)))


def parse_outcome(parse, text):
    """The polynomial parse reads from text, or the class of what it raises."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(_rich_polynomials.map(reference_text) | _texts)
@example("480/0-")
@example("+-1*t1")
@example("1+-2*t1-3/2*t1")
@example("1*t0*t1")
@example(" -1/2 * t2*N*h^-1 *t2 ++ 3*N^2*t1*j - 0/5*t7")
def test_parse_matches_the_per_piece_reference(text):
    """The one-pass parser reads every text as the per-piece reference does:
    the same polynomial or the same exception class, the first bad atom in
    text order deciding which."""
    assert parse_outcome(algebra.parse_polynomial, text) == parse_outcome(reference_parse, text)


@settings(max_examples=300, deadline=None)
@given(_rich_polynomials)
def test_canonical_text_matches_the_per_atom_reference(p):
    assert algebra.canonical_text(p) == reference_text(p)


@pytest.mark.parametrize("old, new", [
    # the first atom's sign read as a separator: "+-1" is accepted at the start
    ('"+" + "".join(text.split())', '"+" + "".join(text.split()).removeprefix("+")'),
    # the '-' of a '+-' separator dropped
    ('sign[-1] == "-"', 'sign == "-"'),
])
def test_the_parse_property_sees_a_bad_tokenizer(monkeypatch, old, new):
    monkeypatch.setattr(algebra, "parse_polynomial", mutant(algebra.parse_polynomial, old, new))
    assert fails_its_property(test_parse_matches_the_per_piece_reference,
                              _rich_polynomials.map(reference_text) | _texts)


def test_the_text_property_sees_n_powers_in_ascending_order(monkeypatch):
    monkeypatch.setattr(algebra, "canonical_text",
                        mutant(algebra.canonical_text, "- (key & _LOW32)", "+ (key & _LOW32)"))
    assert fails_its_property(test_canonical_text_matches_the_per_atom_reference,
                              _rich_polynomials)


@pytest.mark.parametrize("text", ["1*t0", "1*t0*t1", "1/2*t1*t00^2"])
def test_parse_rejects_a_t_index_below_1(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)
