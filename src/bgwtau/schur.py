"""Schur polynomials of the times and the Miwa-determinant (Pluecker)
oracle for tau-functions at any m.

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

Both loops run in integer numerators (algebra's numerator form).  The
column pass keeps one running sum (algebra) per partition reached in the
current column: a pair (nu, l) adds its numerator products over
den(C_nu) den(c_{j,l}) with weight sign, and each partition is reduced
once per column.  schur_in_times brings its vector over one denominator
D, the lcm of its entries' denominators; a hook move adds or subtracts
numerator dicts, and each leaf lam gets one canonical Coefficient over
D z_lam.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, lcm, prod

from .algebra import (Coefficient, TimeMonomial, TimePolynomial, _canonical, _mul_nums, rescaled,
                      settled)
from .cutjoin import SCHUR_ORACLE, TauExpansion
from .operators import n_coeff
from .zcalculus import phi_terms

Partition = tuple[int, ...]


@lru_cache(maxsize=None)
def _hook_moves(nu: Partition, k: int) -> tuple[tuple[Partition, bool], ...]:
    """Every partition left after removing a rim hook of length k from nu,
    with whether the hook's height is odd: on the beta-set of nu a bead moves
    from b down to an empty place b - k, passing the beads between them."""
    r = len(nu)
    beta = [p + r - 1 - i for i, p in enumerate(nu)]  # strictly decreasing
    out = []
    for i, b in enumerate(beta):
        if b < k:
            break
        j = i + 1
        while j < r and beta[j] > b - k:
            j += 1
        if j < r and beta[j] == b - k:
            continue
        # the bead passes the j - i - 1 beads i+1..j-1 and becomes bead j - 1
        rest = nu[:i] + tuple(p - 1 for p in nu[i + 1:j]) + (nu[i] - k + j - 1 - i,) + nu[j:]
        out.append((tuple(p for p in rest if p), (j - i) % 2 == 0))
    return tuple(out)


def schur_in_times(vec: dict[Partition, Coefficient]) -> TimePolynomial:
    """sum_mu vec[mu] s_mu(t) with p_k = k t_k, every mu of one size n: the
    coefficient of t^lam is sum_mu vec[mu] chi^mu(lam) / prod_k m_k(lam)!,
    m_k(lam) the multiplicity of k in lam (the vector walk above, in
    numerator form).  Homogeneous of weighted degree n."""
    n = sum(next(iter(vec), ()))
    if any(sum(mu) != n for mu in vec):
        raise ValueError("schur_in_times needs partitions of one size")
    D = lcm(*(c.den for c in vec.values()))
    out: dict[TimeMonomial, Coefficient] = {}

    def walk(v: dict, rest: int, top: int, lam: Partition) -> None:
        if not rest:
            mult = sorted(Counter(lam).items())
            out[TimeMonomial(mult)] = _canonical(v[()], D * prod(factorial(e) for _, e in mult))
            return
        for k in range(min(top, rest), 0, -1):
            child: dict[Partition, dict] = {}
            for nu, nums in v.items():
                for mu, odd in _hook_moves(nu, k):
                    acc = child.setdefault(mu, {})
                    for key, x in nums.items():
                        acc[key] = acc.get(key, 0) + (-x if odd else x)
            child = {mu: nz for mu, nums in child.items()
                     if (nz := {key: x for key, x in nums.items() if x})}
            if child:
                walk(child, rest - k, k, lam + (k,))

    nums = {mu: {key: x * (D // c.den) for key, x in c.terms.items()} for mu, c in vec.items() if c}
    if nums:
        walk(nums, n, n, ())
    return TimePolynomial(out)


@dataclass
class PlueckerTable:
    """Schur-expansion coefficients C_mu of tau^(m,N) through |mu| <= D."""

    m: int
    N: object
    degree: int
    table: dict[Partition, Coefficient] = field(default_factory=dict)


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
        step: dict[Partition, list] = {}  # mu -> [den, {key: numerator}]
        get = step.get
        for nu, coeff in table.items():
            r = len(nu)
            xs = [p - i for i, p in enumerate(nu)]
            for l in range(0, degree - sum(nu) + 1, m):
                c = col[l // m]
                x = l - j
                if not c or 0 < l <= j - r or x in xs:
                    continue  # a zero entry, or colliding exponents (alternating determinant)
                if l:
                    k = sum(y > x for y in xs)
                    mu = nu[:k] + (x + k,) + tuple(p + 1 for p in nu[k:]) + (1,) * (j - r)
                    sign = -1 if (j - k) % 2 else 1
                else:
                    mu, sign = nu, 1
                d = coeff.den * c.den
                acc = get(mu)
                if acc is None:
                    step[mu] = acc = [d, {}]
                _mul_nums(acc[1], c.terms.items(), coeff.terms.items(),
                          sign if acc[0] == d else rescaled(acc, d) * sign)
        table = settled(step)
    return PlueckerTable(m, N, degree, table)


def tau_from_schur(table: PlueckerTable) -> TauExpansion:
    """tau_k = sum_{|mu| = m k} C_mu (h-stripped) s_mu(t), one vector walk per k."""
    m = table.m
    K = table.degree // m
    vecs: list[dict[Partition, Coefficient]] = [{} for _ in range(K + 1)]
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
        vecs[k][mu] = stripped
    return TauExpansion(m, table.N, [schur_in_times(v) for v in vecs], SCHUR_ORACLE)
