"""Normal-ordered operators: generator families, commutation relations,
constraint operators."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    Op,
    coefficients,
    commutator,
    euler,
    marker_poly,
    monomial_of,
    monomials,
    monomials_up_to,
    mutant,
    not_canonical,
    op_of,
    operator_text,
    polynomials,
    split_terms,
    w_bgw,
    whole,
)
from bgwtau.algebra import (
    MONO_ONE,
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    add_into,
    parse_polynomial,
)
from bgwtau import algebra, operators
from bgwtau.operators import (
    DerivativeTable,
    DiffOperator,
    a_constant,
    c_constant,
    constraint,
    constraint_index_bound,
    cubic,
    current,
    virasoro,
)
from bgwtau.cutjoin import w1_w2, w_gen
from bgwtau.rational import QQ

P = parse_polynomial
PROBE8 = marker_poly(monomials_up_to(8))


def test_apply_basics():
    ddt1 = op_of(current(1))
    assert ddt1.apply(P("1/1*t1^2")) == P("2/1*t1")
    tau23 = P("-13/36*t1^4*t2+91/162*t2^3-4/3*t1^2*t4")
    assert euler(8).apply(tau23) == tau23.scale(6)


def leibniz_apply(op: DiffOperator, p: TimePolynomial) -> TimePolynomial:
    """Reference application, one (operator term, polynomial term) pair at a
    time; independent of DerivativeTable."""
    out = TimePolynomial({})
    for (tm, dm), c in op.terms.items():
        for pm, pc in p.terms.items():
            fac = 1
            reduced = dict(pm.exps)
            for k, order in dm.exps:
                e = reduced.get(k, 0)
                if e < order:
                    fac = 0
                    break
                for i in range(order):
                    fac *= e - i
                if e == order:
                    del reduced[k]
                else:
                    reduced[k] = e - order
            if fac == 0:
                continue
            mono = TimeMonomial(tuple(sorted(reduced.items())))
            add_into(out.terms, tm * mono, (c * pc).scale(fac))
    return out


def test_apply_matches_leibniz_reference():
    """apply skips derivative parts heavier than p's top degree: the probes
    include the zero polynomial, a constant and inhomogeneous polynomials
    below the heaviest part; identities and L_0, M_0 carry d-free parts."""
    ops = [op_of(virasoro(k, 10)) for k in range(-4, 5)]
    ops += [op_of(cubic(k, 10)) for k in range(-4, 5)]
    for kind, k_lo in (("J", 1), ("L", 0), ("M", -1)):
        ops += [whole(constraint(2, "symbolic", kind, k, 10)) for k in range(k_lo, 4)]
    ops += [w_bgw(9), w_gen("symbolic", 9), *w1_w2("symbolic", 10)]
    ops += [Op.identity(), Op.identity(QQ(-3, 4))]
    probes = [PROBE8, TimePolynomial.zero(), TimePolynomial.one(),
              marker_poly(monomials_up_to(4)), P("2/1*t3+1/1*j*t1*t6-1/3*N*t1^2")]
    for op in ops:
        for p in probes:
            assert op.apply(p) == leibniz_apply(op, p), (operator_text(op)[:80], p)


def test_apply_differentiates_only_by_light_enough_parts(monkeypatch):
    seen = []
    derivative = DerivativeTable.derivative
    monkeypatch.setattr(DerivativeTable, "derivative",
                        lambda t, d: seen.append(d.degree) or derivative(t, d))
    p = P("1/1*t1^2+1/1*t2")
    assert op_of(virasoro(0, 10)).apply(p) == p.scale(2)
    assert sorted(seen) == [1, 2]


@st.composite
def _operators(draw, p: TimePolynomial):
    """Random terms plus c * (E - d), E = sum k t_k d/dt_k on t1..t4, d the
    degree of a monomial of p: on the degree-d part of p the Euler terms and
    the d-free term cancel exactly."""
    op = DiffOperator({})
    for tm, dm, c in draw(st.lists(st.tuples(monomials, monomials, coefficients),
                                   max_size=5)):
        op.add_term(c, tm, dm)
    if draw(st.booleans()):
        c = draw(coefficients)
        d = draw(st.sampled_from(sorted({pm.degree for pm in p.terms}) or [0]))
        for k in range(1, 5):
            op.add_term(c.scale(k), TimeMonomial.var(k), TimeMonomial.var(k))
        op.add_term(c.scale(-d), MONO_ONE, MONO_ONE)
    return op


@settings(max_examples=200, deadline=None)
@given(st.data(), polynomials())
def test_apply_is_the_reference_in_canonical_form_with_shared_or_private_tables(data, p):
    ops = data.draw(st.lists(_operators(p), min_size=1, max_size=3))
    table = DerivativeTable(p)
    shared = [op.apply(p, table) for op in ops]
    for op, got in zip(ops, shared):
        assert got == leibniz_apply(op, p)
        assert not not_canonical(got)
        assert got == op.apply(p)


def test_canonical_check_sees_an_apply_without_the_final_reduction(monkeypatch):
    """Negative control: (1/2) d/dt1 on t1^2 sums the numerator 2 over 2, so
    storing the sums unreduced breaks lowest terms."""
    op = DiffOperator({})
    op.add_term(Coefficient.rational(QQ(1, 2)), MONO_ONE, TimeMonomial.var(1))
    p = P("1/1*t1^2")
    assert not not_canonical(op.apply(p))
    monkeypatch.setattr(algebra, "_canonical", lambda terms, den: Coefficient(terms, den))
    assert not_canonical(op.apply(p))


def test_currents():
    assert op_of(current(3)) == Op(
        {(TimeMonomial(), TimeMonomial.var(3)): Coefficient.one()})
    assert op_of(current(-2)) == Op(
        {(TimeMonomial.var(2), TimeMonomial()): Coefficient.rational(2)}
    )
    assert current(0) == []


def test_virasoro_l0_is_euler():
    assert op_of(virasoro(0, 10)) == euler(10)


def test_virasoro_raising_witness():
    # the mixed sum of L_{-1} sends t_1 to 2 t_2
    assert op_of(virasoro(-1, 6)).apply(P("1/1*t1")) == P("2/1*t2")


def test_cubic_creation():
    assert op_of(cubic(-3, 8)).apply(TimePolynomial.one()) == P("1/3*t1^3")


def _ordered_monomial(*ks) -> TimeMonomial:
    """t_k1 t_k2 ... for indexes in any order, by monomial products."""
    out = MONO_ONE
    for k in ks:
        out = out * TimeMonomial.var(k)
    return out


GENERATOR_INDEXES = range(-9, 10)
GENERATOR_BOUNDS = (0, 1, 2, 3, 4, 6, 9)


def test_term_list_monomials_are_canonical():
    """Every tpart and dpart of every generator term is the sorted monomial
    of its exponents, each (tpart, dpart) comes once, and the weight is a
    plain rational.  The generators include the creation sums of L_m,
    m <= -2, and M_k, k <= -3, where the pairs a = b and the repeated
    triples a = b, b = c and a = b = c occur."""
    seen_powers = set()
    for k in GENERATOR_INDEXES:
        for bound in GENERATOR_BOUNDS:
            for terms in (current(k), virasoro(k, bound), cubic(k, bound)):
                keys = [(tm, dm) for _, tm, dm in terms]
                assert len(set(keys)) == len(keys), (k, bound)
                for w, tm, dm in terms:
                    assert not isinstance(w, Coefficient) and w
                    for mono in (tm, dm):
                        assert type(mono) is TimeMonomial
                        assert mono == monomial_of(dict(mono)), (k, bound, mono)
                        seen_powers.update(e for _, e in mono)
    assert seen_powers == {1, 2, 3}
    assert (QQ(8, 3), _ordered_monomial(2, 2, 2), MONO_ONE) in cubic(-6, 0)
    assert (4, _ordered_monomial(4, 1, 1), MONO_ONE) in cubic(-6, 0)
    assert (QQ(1, 3), MONO_ONE, _ordered_monomial(2, 2, 2)) in cubic(6, 6)
    assert (QQ(1, 1), MONO_ONE, _ordered_monomial(3, 1, 3)) in cubic(7, 7)
    assert (QQ(2, 1), _ordered_monomial(2, 2), MONO_ONE) in virasoro(-4, 0)


def brute_virasoro(m: int, bound: int) -> DiffOperator:
    """Independent double-sum enumeration of the Virasoro generator, one
    term per ordered index pair."""
    op = DiffOperator({})
    rng = range(1, 2 * bound + abs(m) + 2)
    for a in rng:
        for b in rng:
            if a + b == -m:
                op.add_term(Coefficient.rational(QQ(a * b, 2)), _ordered_monomial(a, b), MONO_ONE)
            if a + b == m and m <= bound:
                op.add_term(Coefficient.rational(QQ(1, 2)), MONO_ONE, _ordered_monomial(a, b))
        if a + m >= 1 and a + m <= bound:
            op.add_term(Coefficient.rational(a), TimeMonomial.var(a), TimeMonomial.var(a + m))
    return op


def brute_cubic(k: int, bound: int) -> DiffOperator:
    """Independent triple-sum enumeration of the cubic generator."""
    op = DiffOperator({})
    rng = range(1, 3 * bound + 4)
    for a in rng:
        for b in rng:
            for c in rng:
                if a + b + c == -k:
                    op.add_term(
                        Coefficient.rational(QQ(a * b * c, 3)),
                        monomial_of({a: 1}) * TimeMonomial.var(b) * TimeMonomial.var(c),
                        TimeMonomial(),
                    )
                if c - a - b == k and c <= bound:
                    op.add_term(
                        Coefficient.rational(a * b),
                        TimeMonomial.var(a) * TimeMonomial.var(b),
                        TimeMonomial.var(c),
                    )
                if b + c - a == k and b + c <= bound:
                    op.add_term(
                        Coefficient.rational(a),
                        TimeMonomial.var(a),
                        TimeMonomial.var(b) * TimeMonomial.var(c),
                    )
                if a + b + c == k and a + b + c <= bound:
                    op.add_term(
                        Coefficient.rational(QQ(1, 3)),
                        TimeMonomial(),
                        TimeMonomial.var(a) * TimeMonomial.var(b) * TimeMonomial.var(c),
                    )
    return op


# bound 16 is one the engine uses (constraint maxdeg at order 8, W1/W2 at
# order 9); brute_cubic is O(bound^3), so M_k is checked there on a subset
# with creation-only, mixed and derivative-only parts and repeated triples
LARGE_BOUND = 16
CUBIC_LARGE_INDEXES = (-9, -6, -3, -1, 0, 2, 6, 9)


def cubic_cases():
    """(k, bound) pairs where brute_cubic reaches all of M_k's indexes (its
    indexes reach 3 bound + 3, all of M_k's when -k <= 2 bound + 3)."""
    cases = [(k, bound) for k in GENERATOR_INDEXES for bound in GENERATOR_BOUNDS]
    cases += [(k, LARGE_BOUND) for k in CUBIC_LARGE_INDEXES]
    return [(k, bound) for k, bound in cases if -k <= 2 * bound + 3]


def virasoro_cases():
    return [(k, bound) for k in GENERATOR_INDEXES for bound in (*GENERATOR_BOUNDS, LARGE_BOUND)]


def test_cubic_against_brute_enumeration():
    """The operator of M_k's term list, built with add_scaled, equals the
    ordered-index enumeration term for term."""
    for k, bound in cubic_cases():
        assert op_of(cubic(k, bound)) == brute_cubic(k, bound), (k, bound)


def test_virasoro_against_brute_enumeration():
    for k, bound in virasoro_cases():
        assert op_of(virasoro(k, bound)) == brute_virasoro(k, bound), (k, bound)


def test_brute_enumeration_sees_a_missing_multiplicity_divisor(monkeypatch):
    """Negative control: a _normal_power that counts every ordering of a
    multiset with repeated indexes as distinct fails both brute comparisons."""
    monkeypatch.setattr(operators, "_normal_power",
                        mutant(operators._normal_power, " // (ma * mb)", ""))
    assert any(op_of(virasoro(k, b)) != brute_virasoro(k, b) for k, b in virasoro_cases())
    assert any(op_of(cubic(k, b)) != brute_cubic(k, b) for k, b in cubic_cases())


def test_generator_memo_leaks_no_state():
    """The term lists are the same with the _parts memo cleared before each
    call and warm, and mutating returned lists leaves the next calls' lists
    as they were."""
    cases = [(gen, k, bound) for gen in (virasoro, cubic) for k in GENERATOR_INDEXES
             for bound in (*GENERATOR_BOUNDS, LARGE_BOUND)]

    def lists(clear: bool) -> list:
        out = []
        for gen, k, bound in cases:
            if clear:
                operators._parts.cache_clear()
            out.append(gen(k, bound))
        return out

    cold = lists(clear=True)
    want = [list(terms) for terms in cold]
    assert lists(clear=False) == want
    for terms in cold:
        terms[:] = [(w + 1, tm, dm) for w, tm, dm in terms] + [(1, MONO_ONE, MONO_ONE)]
    assert lists(clear=False) == want
    assert lists(clear=True) == want


def test_commutator_jj():
    assert commutator(op_of(current(1)), op_of(current(-1))) == Op.identity()
    probe = PROBE8
    for k in range(-4, 5):
        for m in range(-4, 5):
            expect = Op.identity(k) if k == -m else Op.zero()
            got = commutator(op_of(current(k)), op_of(current(m)))
            assert got.apply(probe) == expect.apply(probe)


def test_w3_commutation_relations():
    """[J,L], [L,L], [J,M], [L,M] with central terms, on all monomials of
    weighted degree <= 10 for indexes in [-5, 5]."""
    probe = marker_poly(monomials_up_to(10))
    d = 16
    J = {k: op_of(current(k)) for k in range(-11, 12)}
    L = {k: op_of(virasoro(k, d)) for k in range(-11, 12)}
    M = {k: op_of(cubic(k, d)) for k in range(-11, 12)}
    JP = {k: J[k].apply(probe) for k in range(-11, 12)}
    LP = {k: L[k].apply(probe) for k in range(-11, 12)}
    MP = {k: M[k].apply(probe) for k in range(-11, 12)}
    for k in range(-5, 6):
        for m in range(-5, 6):
            lhs = J[k].apply(LP[m]) - L[m].apply(JP[k])
            rhs = JP[k + m].scale(k) if k else TimePolynomial.zero()
            assert lhs == rhs, f"[J_{k}, L_{m}]"
            lhs = J[k].apply(MP[m]) - M[m].apply(JP[k])
            rhs = LP[k + m].scale(2 * k) if k else TimePolynomial.zero()
            assert lhs == rhs, f"[J_{k}, M_{m}]"
            if m < k:
                continue  # antisymmetry covers the rest
            lhs = L[k].apply(LP[m]) - L[m].apply(LP[k])
            rhs = LP[k + m].scale(k - m)
            if k == -m:
                rhs = rhs + probe.scale(QQ(k * (k * k - 1), 12))
            assert lhs == rhs, f"[L_{k}, L_{m}]"
    for k in range(-5, 6):
        for m in range(-5, 6):
            lhs = L[k].apply(MP[m]) - M[m].apply(LP[k])
            rhs = MP[k + m].scale(2 * k - m) + JP[k + m].scale(QQ(k * (k * k - 1), 6))
            assert lhs == rhs, f"[L_{k}, M_{m}]"


def test_family_materialization_stability():
    probe = marker_poly(monomials_up_to(6))
    for k in (-4, -1, 0, 2, 5):
        small = op_of(virasoro(k, 6))
        large = op_of(virasoro(k, 14))
        assert small.apply(probe) == large.apply(probe)
    for k in (-3, 1, 4):
        assert op_of(cubic(k, 6)).apply(probe) == op_of(cubic(k, 12)).apply(probe)


def test_constraint_l0():
    lit = (
        op_of(virasoro(0, 10))
        - op_of(current(2)).scale(Coefficient.monomial(1, h=-1))
        + Op.identity(QQ(1, 3))
    ).scale(QQ(1, 3))
    assert whole(constraint(2, 0, "L", 0, 10)) == lit


def test_constraint_m1_matches_displayed_virasoro():
    """At m=1 the L-family is (1/2) L_{2k} - (1/2h) d/dt_{2k+1} + delta/16."""
    for k in range(0, 4):
        lit = op_of(virasoro(2 * k, 12)).scale(QQ(1, 2)) - op_of(current(2 * k + 1)).scale(
            Coefficient.monomial(QQ(1, 2), h=-1)
        )
        if k == 0:
            lit = lit + Op.identity(QQ(1, 16))
        assert whole(constraint(1, 0, "L", k, 12)) == lit


def test_constraint_m2n_literal():
    """Hand transcription of the displayed deformed cubic constraint at m=2."""
    for k in (-1, 0, 1):
        nsym = Coefficient.monomial(1, n=1)
        c2n = Coefficient.rational(QQ(2, 3)) - (nsym * nsym).scale(2)
        lit = op_of(cubic(3 * k, 12))
        lit = lit - op_of(virasoro(3 * k + 2, 12)).scale(Coefficient.monomial(2, h=-1))
        lit = lit + op_of(current(3 * k + 4)).scale(Coefficient.monomial(1, h=-2))
        lit = lit - (op_of(virasoro(3 * k, 12)) - op_of(current(3 * k + 2)).scale(
            Coefficient.monomial(1, h=-1))).scale(nsym)
        lit = lit + op_of(current(3 * k)).scale(c2n)
        if k == 0:
            lit = lit + Op.identity(
                (nsym * nsym * nsym - nsym).scale(QQ(1, 3))
            )
        lit = lit.scale(QQ(1, 3))
        assert whole(constraint(2, "symbolic", "M", k, 12)) == lit


def literal_constraint(m: int, N, kind: str, k: int, bound: int) -> DiffOperator:
    """The J/L/M operator as the paper displays it, one whole-operator sum
    with its 1/h and 1/h^2 pieces (independent of the h-graded build)."""
    hinv = Coefficient.monomial(1, h=-1)
    cmn, amn = c_constant(m, N), a_constant(m, N)
    n = (m + 1) * k
    J, L = (lambda i: op_of(current(i))), (lambda i: op_of(virasoro(i, bound)))
    if kind == "J":
        op = J(n)
    elif kind == "L":
        op = L(n) - J(n + m).scale(hinv)
        if k == 0:
            op = op + Op.identity(cmn.scale(QQ(1, 2)))
    else:
        op = op_of(cubic(n, bound)) - L(n + m).scale(hinv.scale(2))
        op = op + J(n + 2 * m).scale(hinv * hinv) + J(n).scale(cmn)
        op = op - (L(n) - J(n + m).scale(hinv)).scale(amn)
        if k == 0:
            op = op + Op.identity(amn.scale(QQ(-1, 3)) * (
                cmn.scale(QQ(1, 2)) + Coefficient.rational(QQ(m * m + 2 * m, 12))))
    return op.scale(QQ(1, m + 1))


def test_h_coefficients_rebuild_every_constraint_operator():
    """sum_e h^e parts[e] is the displayed operator for every J/L/M operator
    the constraint suite builds at order 6 (m = 1, 2, 3; N = 0, 7/11 and
    symbolic); each part is h-free and nonzero, and the h-powers run from
    the lowest, 0 for J, -1 for L and -2 for M, up to 0 (M_-1's 1/h^2 piece
    d/dt_(m-1) vanishes at m = 1; a 1/h piece L_(n+m) in between can vanish
    below the materialization bound)."""
    for m in (1, 2, 3):
        maxdeg = 6 * m
        for N in (0, QQ(7, 11), "symbolic"):
            for kind, k_lo in (("J", 1), ("L", 0), ("M", -1)):
                for k in range(k_lo, constraint_index_bound(m, maxdeg) + 1):
                    parts = constraint(m, N, kind, k, maxdeg)
                    lo = {"J": 0, "L": -1, "M": -2}[kind]
                    if kind == "M" and k < 0 and m == 1:
                        lo = -1
                    assert (min(parts), max(parts)) == (lo, 0), (m, N, kind, k)
                    for part in parts.values():
                        assert part and all(c.h_part(0) == c for c in part.terms.values())
                    assert whole(parts) == literal_constraint(m, N, kind, k, maxdeg), (m, N, kind, k)


def test_constraint_index_errors():
    with pytest.raises(ValueError, match="out of range"):
        constraint(2, 0, "J", 0, 6)
    with pytest.raises(ValueError, match="out of range"):
        constraint(2, 0, "L", -1, 6)
    with pytest.raises(ValueError, match="out of range"):
        constraint(2, 0, "M", -2, 6)


def test_constraint_family_commutators_with_deformation():
    """The deformed family closes as displayed, delta-constants included:
    [J_k, M_k'] = 2k L_{k+k'} - k A_{m,N} J_{k+k'} and
    [L_k, L_k'] = (k-k') L_{k+k'} (m=2, symbolic N, low-degree probe)."""
    probe = marker_poly(monomials_up_to(6))
    d = 14
    nsym = Coefficient.monomial(1, n=1)  # A_{2,N} = N

    def C(kind, k):
        return whole(constraint(2, "symbolic", kind, k, d))

    for k in (1, 2):
        for kp in (-1, 0, 1):
            Jk, Mkp = C("J", k), C("M", kp)
            lhs = Jk.apply(Mkp.apply(probe)) - Mkp.apply(Jk.apply(probe))
            rhs = C("L", k + kp).apply(probe).scale(2 * k)
            if k + kp >= 1:
                rhs = rhs - C("J", k + kp).apply(probe).scale(nsym.scale(k))
            assert lhs == rhs, f"[J_{k}, M_{kp}]"
    for k in (0, 1, 2):
        for kp in (0, 1, 2):
            Lk, Lkp = C("L", k), C("L", kp)
            lhs = Lk.apply(Lkp.apply(probe)) - Lkp.apply(Lk.apply(probe))
            rhs = C("L", k + kp).apply(probe).scale(k - kp) if k != kp \
                else TimePolynomial.zero()
            assert lhs == rhs, f"[L_{k}, L_{kp}]"


_DPART_RE = re.compile(r"^(.*?)((?:\*d\d+(?:\^\d+)?)*)$")
_DFACTOR_RE = re.compile(r"\*d(\d+)(?:\^(\d+))?")


def parse_operator(text: str) -> DiffOperator:
    """Parse the operator text grammar (inverse of operator_text)."""
    s = "".join(text.split())
    if s == "0":
        return Op.zero()
    op = DiffOperator({})
    for piece in split_terms(s):
        mt = _DPART_RE.match(piece)
        poly = parse_polynomial(mt.group(1))
        dvars: dict[int, int] = {}
        for fm in _DFACTOR_RE.finditer(mt.group(2)):
            k = int(fm.group(1))
            dvars[k] = dvars.get(k, 0) + int(fm.group(2) or 1)
        dm = monomial_of(dvars)
        for tm, c in poly.terms.items():
            op.add_term(c, tm, dm)
    return op


def test_operator_text_round_trip():
    for op in (
        op_of(virasoro(-2, 6)),
        op_of(cubic(3, 6)),
        whole(constraint(2, "symbolic", "M", -1, 8)),
        Op.zero(),
    ):
        assert parse_operator(operator_text(op)) == op
