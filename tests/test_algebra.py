"""Exact polynomial ring: arithmetic, grading, substitution, serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from bgwtau.algebra import (
    Coefficient,
    INHOMOGENEOUS,
    TimeMonomial,
    TimePolynomial,
    canonical_text,
    parse_polynomial,
    substitute,
    weighted_degree,
)
from bgwtau.rational import QQ

P = parse_polynomial


def convolution_oracle(a: TimePolynomial, b: TimePolynomial) -> TimePolynomial:
    """Brute-force term-by-term convolution, independent of TimePolynomial.__mul__."""
    out = TimePolynomial.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            d = dict(m1.exps)
            for k, e in m2.exps:
                d[k] = d.get(k, 0) + e
            prod = Coefficient.zero()
            for (h1, n1, j1), q1 in c1.items_hnj():
                for (h2, n2, j2), q2 in c2.items_hnj():
                    prod = prod + Coefficient.monomial(q1 * q2, h=h1 + h2, n=n1 + n2, j=j1 + j2)
            out = out + TimePolynomial.term(prod, TimeMonomial.from_dict(d))
    return out


def test_monomial_products():
    assert P("1/1*t1") * P("1/1*t2") == P("1/1*t1*t2")
    assert P("1/3*t2") * P("1/3*t2") == P("1/9*t2^2")


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
    assert substitute(P("1/1*N*t1^2"), {"N": 0}).is_zero()
    # basis-vector coefficient at j -> 1-N
    phi = Coefficient.monomial(QQ(-1, 2), j=2) + Coefficient.monomial(QQ(3, 2), j=1) \
        + Coefficient.rational(QQ(-5, 6))
    shifted = phi.substitute(j=Coefficient.rational(1) - Coefficient.monomial(1, n=1))
    expect = Coefficient.rational(QQ(1, 6)) + Coefficient.monomial(QQ(-1, 2), n=1) \
        + Coefficient.monomial(QQ(-1, 2), n=2)
    assert shifted == expect
    p = P("1/8*t1-1/2*N^2*t1")
    assert substitute(p, {"N": 0}) == P("1/8*t1")


def test_substitute_pole():
    p = TimePolynomial.constant(Coefficient.monomial(1, h=-2))
    with pytest.raises(ValueError, match="pole at h=0"):
        substitute(p, {"h": 0})
    assert substitute(p, {"h": QQ(1, 2)}) == P("4/1")


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
        p = p + TimePolynomial.term(c, TimeMonomial.from_dict(exps))
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
    lhs = substitute(a * b, {"N": nval})
    rhs = substitute(a, {"N": nval}) * substitute(b, {"N": nval})
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials())
def test_canonicality_audit(a, b):
    for p in (a + b, a - b, a * b):
        for mono, c in p.terms.items():
            assert c, f"zero coefficient stored at {mono!r}"
            assert all(q for _, q in c.items_hnj())


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
            a = a + TimePolynomial.term(
                Coefficient.monomial(QQ(rng.randint(-5, 5), rng.randint(1, 4)),
                                     h=rng.randint(-1, 1), n=rng.randint(0, 2)),
                TimeMonomial.from_dict({rng.randint(1, 5): rng.randint(1, 3)}),
            )
            b = b + TimePolynomial.term(
                Coefficient.monomial(QQ(rng.randint(-5, 5), rng.randint(1, 4)),
                                     j=rng.randint(0, 2)),
                TimeMonomial.from_dict({rng.randint(1, 5): rng.randint(1, 2)}),
            )
        assert a * b == convolution_oracle(a, b)
