"""Partitions, Schur polynomials of the times, and the Miwa-determinant
(Pluecker) oracle for tau-functions at any m.

The oracle works in x = 1/z row-rescaled form.  With f_j(x) = 1 + sum_k
phi[m,k](j..) h^k x^(mk) (the normalized basis vector) the tau-function in
the Miwa parametrization t_k = (1/k) sum_i x_i^k equals

    det_{i,j=1..M} ( x_i^(M-j) f_j(x_i) )  /  prod_{i<j} (x_i - x_j),

and multilinear column expansion turns the ratio into a Schur-function sum:
an exponent tuple (l_1..l_M) with all b_j = M - j + l_j distinct contributes
sign * prod_j c_{j,l_j} to C_mu where mu_j = b_j^(sorted desc) - (M - j),
the sign being that of the sorting permutation.  Tuples with colliding
exponents contribute zero.  Only l_j in m*Z appear (the Phi support), so
|mu| is a multiple of m and C_mu carries h^(|mu|/m).

plucker_expansion sums these terms in one pass over the columns, numbered
j = 0..M-1 from here on.  After columns 0..j-1 the chosen exponents, sorted
in descending order, are nu_i + M - 1 - i for a partition nu (zero parts
dropped), so the state is {nu: signed sum of the column products that reach
nu}.  Column j with exponent M - 1 - j + l keeps nu when l = 0.  For l > 0,
with r = len(nu) and x = l - j, the exponent collides with one already
chosen unless l > j - r (above the j - r columns still at their base) and
x is none of the nu_i - i; it then lands at sorted position
k = #{i: nu_i - i > x}, giving

    nu' = (nu_0, .., nu_(k-1), x + k, nu_k + 1, .., nu_(r-1) + 1, 1^(j-r))

with sign (-1)^(j-k), one factor for each chosen exponent below the new
one.  Which placements are allowed later, and their signs, depend only on
the set of chosen exponents, that is on nu, so merging the tuples that
reach one nu before the next column is exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, prod

from .algebra import Coefficient, TimeMonomial, TimePolynomial, add_into
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
def character(mu: Partition, lam: Partition) -> int:
    """Irreducible character chi^mu at cycle type lam (|mu| = |lam|) by
    Murnaghan-Nakayama: remove a rim hook of length lam[0] from mu in every
    way, with sign (-1)^height, and recurse on lam[1:].  On the beta-set
    {mu_i + r - i} a rim hook of length k is a bead moved from b down to an
    empty place b - k; its height is the number of beads it passes."""
    if not lam:
        return 1
    k, r = lam[0], len(mu)
    beta = [p + r - 1 - i for i, p in enumerate(mu)]
    total = 0
    for b in beta:
        if b < k or b - k in beta:
            continue
        moved = sorted([x for x in beta if x != b] + [b - k], reverse=True)
        nu = tuple(p for p in (x - r + 1 + i for i, x in enumerate(moved)) if p)
        chi = character(nu, lam[1:])
        total += -chi if sum(b - k < x < b for x in beta) % 2 else chi
    return total


@lru_cache(maxsize=None)
def schur_in_times(mu: Partition) -> TimePolynomial:
    """s_mu with p_k = k t_k: the coefficient of t^lam is
    chi^mu(lam) prod(lam_i) / z_lam = chi^mu(lam) / prod_k m_k(lam)!,
    m_k(lam) the multiplicity of k in lam.  Homogeneous of weighted degree |mu|."""
    out = TimePolynomial.zero()
    for lam in partitions(sum(mu)):
        chi = character.__wrapped__(mu, lam)  # asked once per (mu, lam): memoise only below
        if chi:
            mult = sorted(Counter(lam).items())
            z = prod(factorial(e) for _, e in mult)
            out.terms[TimeMonomial(mult)] = Coefficient.rational(QQ(chi, z))
    return out


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
    # column j: c_{j, m*k} = phi[m,k](j+1-N) h^k, the x^(mk) coefficients of f_(j+1)
    cols = [phi_terms(m, K, Coefficient.rational(j) - nc) for j in range(1, M + 1)]
    table: dict[Partition, Coefficient] = {(): Coefficient.one()}
    for j, col in enumerate(cols):
        step: dict[Partition, Coefficient] = {}
        for nu, coeff in table.items():
            r = len(nu)
            xs = [p - i for i, p in enumerate(nu)]
            for l in range(0, degree - sum(nu) + 1, m):
                c = col[l // m]
                x = l - j
                if not c or 0 < l <= j - r or x in xs:
                    continue  # a zero entry, or colliding exponents (alternating determinant)
                term = coeff * c
                if l == 0:
                    add_into(step, nu, term)
                    continue
                k = sum(y > x for y in xs)
                mu = nu[:k] + (x + k,) + tuple(p + 1 for p in nu[k:]) + (1,) * (j - r)
                add_into(step, mu, -term if (j - k) % 2 else term)
        table = step
    return PlueckerTable(m, N, degree, table)


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
        for mono, c0 in schur_in_times(mu).terms.items():
            add_into(coeffs[k].terms, mono, c0 * stripped)
    out = TauExpansion(m, table.N, coeffs, SCHUR_ORACLE)
    return out
