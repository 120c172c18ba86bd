"""Shared helpers: monomial enumeration, the linear-independence marker
trick for checking operator identities on a whole degree window at once, the
whole constraint operator from its h-graded parts, a generator's operator
from its term list, the Euler operator and commutators, and the paper's
odd-index BGW cut-and-join operator as a reference."""

from __future__ import annotations

from bgwtau.algebra import MONO_ONE, Coefficient, TimeMonomial, TimePolynomial
from bgwtau.operators import DiffOperator
from bgwtau.rational import QQ
from bgwtau.schur import partitions


def monomials_up_to(maxdeg: int, variable_filter=None) -> list[TimeMonomial]:
    out = [TimeMonomial()]
    for n in range(1, maxdeg + 1):
        for mu in partitions(n):
            if variable_filter is not None and not all(variable_filter(p) for p in mu):
                continue
            d: dict[int, int] = {}
            for p in mu:
                d[p] = d.get(p, 0) + 1
            out.append(TimeMonomial.from_dict(d))
    return out


def marker_poly(monomials) -> TimePolynomial:
    """sum_i j^i * m_i: operator linearity makes one application on this
    polynomial equivalent to applications on every monomial separately."""
    p = TimePolynomial({})
    for i, m in enumerate(monomials):
        p.add_term(m, Coefficient.monomial(1, j=i))
    return p


def whole(parts: dict) -> DiffOperator:
    """sum_e h^e parts[e]: a constraint operator from its h-graded parts."""
    op = DiffOperator({})
    for e, part in parts.items():
        op = op + part.scale(Coefficient.monomial(1, h=e))
    return op


def op_of(terms) -> DiffOperator:
    """The operator of a generator's (weight, tpart, dpart) term list."""
    op = DiffOperator({})
    op.add_scaled(1, terms)
    return op


def euler(bound: int) -> DiffOperator:
    """The grading operator sum k t_k d/dt_k (equals L_0), written out."""
    op = DiffOperator({})
    for k in range(1, bound + 1):
        op.add_term(Coefficient.rational(k), TimeMonomial.var(k), TimeMonomial.var(k))
    return op


def commutator(a: DiffOperator, b: DiffOperator) -> DiffOperator:
    """a b - b a; correct on polynomials of weighted degree <= d whenever both
    factors are materialized to d plus the other's creation shift."""
    return a.compose(b) - b.compose(a)


def ops_agree_on(a, b, probe: TimePolynomial) -> bool:
    return a.apply(probe) == b.apply(probe)


def w_bgw(bound: int) -> DiffOperator:
    """The BGW cut-and-join operator (m=1, N=0) as the paper writes it:
    odd-index cut and join sums plus t_1/8.  The engine builds it as w_gen(0)
    trimmed by the 2-reduction; this literal form is independent of that."""
    op = DiffOperator({})
    for k in range(1, bound + 2, 2):
        for m in range(1, bound + 2, 2):
            if k + m - 1 <= bound:
                op.add_term(
                    Coefficient.rational(k * m),
                    TimeMonomial.var(k) * TimeMonomial.var(m),
                    TimeMonomial.var(k + m - 1),
                )
            if k + m <= bound:
                op.add_term(
                    Coefficient.rational(QQ(k + m + 1, 2)),
                    TimeMonomial.var(k + m + 1),
                    TimeMonomial.var(k) * TimeMonomial.var(m),
                )
    op.add_term(Coefficient.rational(QQ(1, 8)), TimeMonomial.var(1), MONO_ONE)
    return op
