"""Cut-and-join operators, the topological recursion, free energies."""

import pytest

from conftest import Op, commutator, euler, marker_poly, monomial_of, monomials_up_to, op_of, w_bgw
from bgwtau.algebra import (
    MONO_ONE,
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    parse_polynomial,
)
from bgwtau.cutjoin import (
    check_expansion_invariants,
    exp_series,
    free_energy,
    tau_expand,
    w1_w2,
    w_gen,
)
from bgwtau.operators import DerivativeTable, cubic, n_coeff, virasoro
from bgwtau.rational import QQ

P = parse_polynomial


def test_w_bgw_on_constants():
    assert w_bgw(8).apply(TimePolynomial.one()) == P("1/8*t1")


def test_w_gen_constant_term():
    assert w_gen(0, 8).apply(TimePolynomial.one()) == P("1/8*t1")
    got = w_gen("symbolic", 8).apply(TimePolynomial.one())
    assert got == P("1/8*t1-1/2*N^2*t1")


def test_w_gen_matches_w_bgw_on_odd_polynomials():
    odd = marker_poly(monomials_up_to(10, variable_filter=lambda v: v % 2 == 1))
    assert w_bgw(11).apply(odd) == w_gen(0, 11).apply(odd)


def test_w1_w2_on_constants():
    w1, w2 = w1_w2(0, 10)
    assert w1.apply(TimePolynomial.one()) == P("2/3*t2")
    assert w2.apply(TimePolynomial.one()) == P("-2/1*t1*t3-1/3*t1^4")
    w1n, _ = w1_w2("symbolic", 10)
    assert w1n.apply(TimePolynomial.one()) == P("-1/1*N*t1^2-2/1*N^2*t2+2/3*t2")


def test_w1_w2_do_not_commute():
    w1, w2 = w1_w2(0, 12)
    witness = commutator(w1, w2).apply(P("1/1*t1"))
    assert witness


def test_tau_expand_first_orders():
    T = tau_expand(2, 0, 3)
    assert T.coeffs[0] == TimePolynomial.one()
    assert T.coeffs[1] == P("1/3*t2")
    assert T.coeffs[2] == P("-1/12*t1^4+7/18*t2^2")
    assert T.coeffs[3] == P("-13/36*t1^4*t2+91/162*t2^3-4/3*t1^2*t4")


def test_tau_expand_symbolic_first_order():
    T = tau_expand(2, "symbolic", 1)
    assert T.coeffs[1] == P("-1/2*N*t1^2-1/1*N^2*t2+1/3*t2")


def test_tau_expand_spec_quoted_deep_coefficient():
    T = tau_expand(2, 0, 7)
    mono = monomial_of({1: 4, 2: 5})
    assert T.coeffs[7].terms[mono] == Coefficient.rational(QQ(-1416545, 69984))


def test_tau_expand_rejects_large_m():
    with pytest.raises(ValueError, match="recursion unavailable"):
        tau_expand(3, 0, 2)


def test_intermediate_reduction_terms_cancel_only_in_sum():
    """W1 tau_k alone carries t_3 terms; the recursion combination is free of
    them (asserted on the summed result only)."""
    T = tau_expand(2, 0, 3)
    w1, w2 = w1_w2(0, 12)
    partial = w1.apply(T.coeffs[1])
    assert any(v % 3 == 0 for v in partial.variables())
    combined = partial + w2.apply(T.coeffs[0])
    assert all(v % 3 for v in combined.variables())


def test_free_energy_first_orders():
    T = tau_expand(2, "symbolic", 2)
    F = free_energy(T)
    assert F[0] == P("-1/2*N*t1^2-1/1*N^2*t2+1/3*t2")
    assert F[1] == P("-1/12*t1^4-1/1*N*t1^2*t2-1/1*N^2*t2^2+1/3*t2^2+2/3*N^3*t4-1/1*N*t4")


def test_free_energy_exp_round_trip():
    T = tau_expand(2, "symbolic", 4)
    F = free_energy(T)
    assert exp_series(F, 4) == T.coeffs


def test_free_energy_requires_normalization():
    from bgwtau.cutjoin import TauExpansion

    bad = TauExpansion(2, 0, [P("2/1")])
    with pytest.raises(ValueError, match="not normalized"):
        free_energy(bad)


def test_invariants_pass_and_fail():
    T = tau_expand(2, 0, 4)
    rep = check_expansion_invariants(T)
    assert rep.ok
    # negative control: inject a t_3 term -> reduction check fails
    mutated = tau_expand(2, 0, 4)
    mutated.coeffs[2] = mutated.coeffs[2] + P("1/1*t3*t1")
    rep = check_expansion_invariants(mutated)
    assert not rep.ok
    assert any("reduction" in c.name for c in rep.failures)
    # homogeneity violation
    mutated2 = tau_expand(2, 0, 3)
    mutated2.coeffs[2] = mutated2.coeffs[2] + P("1/1*t1")
    rep2 = check_expansion_invariants(mutated2)
    assert any("homogeneous" in c.name for c in rep2.failures)


def test_symbolic_specialization_commutes_with_recursion():
    K = 4
    sym = tau_expand(2, "symbolic", K)
    for nval in (0, QQ(1, 2), QQ(-2, 3)):
        direct = tau_expand(2, nval, K)
        for k in range(K + 1):
            assert sym.coeffs[k].substitute(n=nval) == direct.coeffs[k]
    sym1 = tau_expand(1, "symbolic", 5)
    for nval in (QQ(1, 2), QQ(-2, 3)):
        direct = tau_expand(1, nval, 5)
        for k in range(6):
            assert sym1.coeffs[k].substitute(n=nval) == direct.coeffs[k]


def test_m1_recursions_agree():
    """The derived general-N operator at N=0 reproduces the plain recursion."""
    a = tau_expand(1, 0, 8)
    bound = 9
    w = w_gen(0, bound)
    coeffs = [TimePolynomial.one()]
    for k in range(1, 9):
        coeffs.append(w.apply(coeffs[k - 1]).scale(QQ(1, k)))
    assert coeffs == a.coeffs


def test_homogeneity_eigenvalue():
    T = tau_expand(2, 0, 4)
    for k in range(1, 5):
        assert euler(10).apply(T.coeffs[k]) == T.coeffs[k].scale(2 * k)


# The recursion builds W to degree K-1 and (W1, W2) to degree 2K-2, the top
# degree each is applied to, and drops every term differentiating by some
# t_{(m+1)l}.  The references below are the bounds and the construction used
# before: K+1 and 2K+4, the paper's BGW operator at m=1, N=0, the full
# operators otherwise, whole-operator merges.


def recursion_at_old_bounds(m, N, K):
    coeffs = [TimePolynomial.one()]
    if m == 1:
        w = w_bgw(K + 1) if N == 0 else w_gen(N, K + 1)
        for k in range(1, K + 1):
            coeffs.append(w.apply(coeffs[k - 1]).scale(QQ(1, k)))
        return coeffs
    w1, w2 = w1_w2(N, 2 * K + 4)
    prev2 = TimePolynomial.zero()
    for k in range(1, K + 1):
        tk = w1.apply(coeffs[k - 1]) + w2.apply(prev2)
        prev2 = coeffs[k - 1]
        coeffs.append(tk.scale(QQ(1, 2 * k)))
    return coeffs


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [0, QQ(1, 2), "symbolic"])
def test_trimmed_bounds_match_old_bounds(m, N):
    for K in range(9):
        assert tau_expand(m, N, K).coeffs == recursion_at_old_bounds(m, N, K), K


def test_bgw_operator_recursion_matches_tau_expand():
    """At m=1, N=0 the engine's w_gen-built W and the paper's literal BGW
    operator drive the same recursion."""
    want = recursion_at_old_bounds(1, 0, 16)
    for K in range(17):
        assert tau_expand(1, 0, K).coeffs == want[:K + 1], K


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [0, QQ(1, 3), QQ(1, 2), "symbolic"])
def test_recursion_never_differentiates_by_reduced_times(monkeypatch, m, N):
    """tau^(m,N) is free of every t_{(m+1)l}: the recursion drops the terms
    that would differentiate by one instead of applying them.  (At m=1,
    N=1/2 tau is 1 and nothing is differentiated at all.)"""
    seen = set()
    derivative = DerivativeTable.derivative
    monkeypatch.setattr(DerivativeTable, "derivative",
                        lambda t, d: seen.update(k for k, _ in d.exps) or derivative(t, d))
    tau_expand(m, N, 8)
    assert not [k for k in seen if k % (m + 1) == 0], sorted(seen)
    assert seen or (m, N) == (1, QQ(1, 2))


def _premul(mono, terms):
    op = op_of(terms)
    return Op({(mono * tm, dm): c for (tm, dm), c in op.terms.items()})


def merged_w_gen(N, bound):
    nc = n_coeff(N)
    op = Op()
    for k in range(0, bound // 2 + 1):
        op = op + _premul(TimeMonomial.var(2 * k + 1), virasoro(2 * k, bound)).scale(2 * k + 1)
    const = Coefficient.rational(QQ(1, 8)) - (nc * nc).scale(QQ(1, 2))
    op.add_term(const, TimeMonomial.var(1), MONO_ONE)
    return op


def merged_w1_w2(N, bound):
    nc = n_coeff(N)
    nsq = nc * nc
    w1 = Op()
    for k in range(0, bound // 3 + 2):
        w1 = w1 + _premul(TimeMonomial.var(3 * k + 2), virasoro(3 * k, bound)).scale(3 * k + 2)
        w1 = w1 + _premul(TimeMonomial.var(3 * k + 1), virasoro(3 * k - 1, bound)).scale(
            2 * (3 * k + 1)
        )
    w1.add_term(Coefficient.rational(QQ(2, 3)) - nsq.scale(2), TimeMonomial.var(2), MONO_ONE)
    w1.add_term(-nc, TimeMonomial.var(1, 2), MONO_ONE)
    w1.add_term(nc.scale(-4), TimeMonomial.var(4), TimeMonomial.var(2))
    w2 = Op()
    for k in range(0, bound // 3 + 2):
        w2 = w2 - _premul(TimeMonomial.var(3 * k + 1), cubic(3 * k - 3, bound)).scale(3 * k + 1)
    w2.add_term(
        Coefficient.rational(-2) + nsq.scale(6),
        TimeMonomial.var(3) * TimeMonomial.var(1),
        MONO_ONE,
    )
    w2 = w2 + _premul(TimeMonomial.var(4), virasoro(0, bound)).scale(nc.scale(4))
    w2 = w2 + _premul(TimeMonomial.var(1), virasoro(-3, bound)).scale(nc)
    w2.add_term((nc * nsq - nc).scale(QQ(-4, 3)), TimeMonomial.var(4), MONO_ONE)
    return w1, w2


@pytest.mark.parametrize("bound", [0, 1, 2, 5, 14, 20])
def test_term_by_term_build_matches_merged_build(bound):
    """Same terms in the same order, so every apply sums in the same order."""
    for N in (0, QQ(1, 2), "symbolic"):
        got = (w_gen(N, bound), *w1_w2(N, bound))
        want = (merged_w_gen(N, bound), *merged_w1_w2(N, bound))
        for a, b in zip(got, want):
            assert list(a.terms.items()) == list(b.terms.items())
