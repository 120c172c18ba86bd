"""Partitions, Schur polynomials of the times, and the Miwa-determinant
(Pluecker) oracle for tau-functions at any m.

The oracle works in x = 1/z row-rescaled form.  With f_j(x) = 1 + sum_k
phi[m,k](j..) h^k x^(mk) (the normalized basis vector) the tau-function in
the Miwa parametrization t_k = (1/k) sum_i x_i^k equals

    det_{i,j=1..M} ( x_i^(M-j) f_j(x_i) )  /  prod_{i<j} (x_i - x_j),

and multilinear column expansion turns the ratio into a Schur-function sum:
an exponent tuple (l_1..l_M) with all b_j = M - j + l_j distinct contributes
sign * prod_j c_{j,l_j} to C_mu where mu_j = b_j^(sorted desc) - (M - j).
Tuples with colliding exponents contribute zero.  Only l_j in m*Z appear
(the Phi support), so |mu| is a multiple of m and C_mu carries h^(|mu|/m).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import Coefficient, TimePolynomial
from .cutjoin import SCHUR_ORACLE, TauExpansion
from .operators import n_coeff
from .rational import QQ
from .zcalculus import phi_terms

Partition = tuple[int, ...]


def partitions(n: int, max_part: int | None = None):
    """Weakly decreasing tuples summing to n."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for p in range(top, 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


@lru_cache(maxsize=None)
def complete_homogeneous(n: int) -> TimePolynomial:
    """Elementary Schur function p_n: exp(sum t_k z^k) = sum p_n z^n, via
    n p_n = sum_{k=1..n} k t_k p_{n-k}."""
    if n < 0:
        return TimePolynomial.zero()
    if n == 0:
        return TimePolynomial.one()
    acc = TimePolynomial.zero()
    for k in range(1, n + 1):
        acc = acc + TimePolynomial.var(k).scale(QQ(k, n)) * complete_homogeneous(n - k)
    return acc


@lru_cache(maxsize=None)
def schur_in_times(mu: Partition) -> TimePolynomial:
    """Jacobi-Trudi determinant det( p_{mu_i - i + j} ), homogeneous of
    weighted degree |mu|."""
    r = len(mu)
    if r == 0:
        return TimePolynomial.one()
    rows = [[complete_homogeneous(mu[i] - i + j) for j in range(r)] for i in range(r)]

    @lru_cache(maxsize=None)
    def minor(cols: frozenset) -> TimePolynomial:
        i = r - len(cols)
        if not cols:
            return TimePolynomial.one()
        acc = TimePolynomial.zero()
        for sgn, j in zip((1, -1) * r, sorted(cols)):
            entry = rows[i][j]
            if entry.is_zero():
                continue
            sub = minor(cols - {j})
            acc = acc + (entry * sub).scale(sgn)
        return acc

    return minor(frozenset(range(r)))


@dataclass
class PlueckerTable:
    """Schur-expansion coefficients C_mu of tau^(m,N) through |mu| <= D."""

    m: int
    N: object
    degree: int
    table: dict[Partition, Coefficient] = field(default_factory=dict)

    def coefficient(self, mu: Partition) -> Coefficient:
        return self.table.get(tuple(mu), Coefficient.zero())


def plucker_expansion(m: int, N, degree: int, points: int | None = None) -> PlueckerTable:
    """Expand the Miwa determinant ratio into C_mu for |mu| <= degree, using
    M >= degree Miwa points (columns)."""
    M = degree if points is None else points
    if M < degree:
        raise ValueError("insufficient Miwa points for requested degree")
    K = degree // m
    nc = n_coeff(N)
    # column j: c_{j, m*k} = phi[m,k](j-N) h^k, the x^(mk) coefficients of f_j
    cols = [phi_terms(m, K, Coefficient.rational(j) - nc) for j in range(1, M + 1)]
    table: dict[Partition, Coefficient] = {}

    used: list[int] = []
    factors: list[Coefficient] = []

    def descend(j: int, budget: int) -> None:
        # column j contributes exponent b_j = M - j + l_j, l_j in {0, m, 2m, ...}
        if j == M:
            exps = used
            order = sorted(range(M), key=lambda i: -exps[i])
            b = [exps[i] for i in order]
            sign = _inversion_sign(order)
            mu = []
            for pos in range(M):
                part = b[pos] - (M - 1 - pos)
                if part:
                    mu.append(part)
            key = tuple(mu)
            coeff = Coefficient.one()
            for f in factors:
                coeff = coeff * f
            coeff = coeff.scale(sign)
            cur = table.get(key)
            table[key] = coeff if cur is None else cur + coeff
            return
        base = M - 1 - j
        for l in range(0, budget + 1, m):
            e = base + l
            if e in used:
                continue  # colliding exponents: alternating determinant
            c = cols[j][l // m]
            if not c:
                continue
            used.append(e)
            factors.append(c)
            descend(j + 1, budget - l)
            used.pop()
            factors.pop()

    descend(0, degree)
    table = {mu: c for mu, c in table.items() if c}
    return PlueckerTable(m, N, degree, table)


def _inversion_sign(perm: list[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for k in range(i + 1, len(perm)):
            if perm[i] > perm[k]:
                inv += 1
    return -1 if inv % 2 else 1


def tau_from_schur(table: PlueckerTable) -> TauExpansion:
    """tau_k = sum_{|mu| = m k} C_mu (h-stripped) s_mu(t)."""
    m = table.m
    K = table.degree // m
    coeffs = [TimePolynomial.zero() for _ in range(K + 1)]
    for mu, c in table.table.items():
        w = sum(mu)
        if w % m:
            raise ValueError(f"support violation: |mu|={w} not a multiple of m={m}")
        k = w // m
        if k > K:
            continue
        stripped = c.h_part(k)
        if c != stripped.times_h(k):
            raise ValueError(f"h-grading violation at mu={mu}")
        coeffs[k] = coeffs[k] + schur_in_times(mu).scale(stripped)
    out = TauExpansion(m, table.N, coeffs, SCHUR_ORACLE)
    return out
