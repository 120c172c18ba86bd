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
j = 0..M-1 from here on, its state {(|nu|, S): signed sum of the column
products that reach S}, S the bitmask of the exponents chosen so far and
|nu| the sum of their shifts l.  Column j with shift l takes exponent
e = M - 1 - j + l: it is skipped when bit e of S is set (colliding
exponents: the alternating determinant vanishes), and otherwise adds 1 << e
with sign (-1)^popcount(S & (2^e - 1)), one factor per chosen exponent
below e.  What later columns may place, and their signs, depend only on S,
so merging the tuples that reach one S is exact.  After M columns S is the
beta-set of mu on M beads: its set bits b_0 > b_1 > .. give
mu_i = b_i - (M - 1 - i), zero parts dropped.  schur_in_times walks on the
same masks, each mu of its vector on R beads (R its longest length): a rim
hook of length k is a bead moved from b down to a clear bit b - k, its
height the number of beads it passes.

Both loops run in integer numerators (algebra's numerator form).  The
column pass keeps one running sum (algebra) per bead set, reduced once per
column; schur_in_times brings its vector over one denominator D, the lcm of
its entries' denominators, a hook move adds or subtracts numerator dicts,
and each leaf lam gets one canonical Coefficient over D z_lam.
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


def _partition(beads: int) -> Partition:
    """The partition whose beta-set has the bitmask beads: the i-th highest
    of its r beads, at b, gives the part b - (r - 1 - i), zero parts dropped."""
    bits = [b for b in range(beads.bit_length() - 1, -1, -1) if beads >> b & 1]
    return tuple(p for i, b in enumerate(bits) if (p := b - (len(bits) - 1 - i)))


@lru_cache(maxsize=None)
def _hook_moves(beads: int, k: int) -> tuple[tuple[int, bool], ...]:
    """Every bead mask left after removing a rim hook of length k from the
    one given, with whether the hook's height is odd: a bead moves from a set
    bit b >= k to a clear bit b - k, passing the set bits strictly between."""
    return tuple((beads ^ 1 << b ^ 1 << (b - k),
                  (beads >> (b - k + 1) & (1 << (k - 1)) - 1).bit_count() % 2 == 1)
                 for b in range(beads.bit_length() - 1, k - 1, -1)
                 if beads >> b & 1 and not beads >> (b - k) & 1)


def schur_in_times(vec: dict[Partition, Coefficient]) -> TimePolynomial:
    """sum_mu vec[mu] s_mu(t) with p_k = k t_k, every mu of one size n: the
    coefficient of t^lam is sum_mu vec[mu] chi^mu(lam) / prod_k m_k(lam)!,
    m_k(lam) the multiplicity of k in lam, by one Murnaghan-Nakayama walk
    over lam on bead masks (module docstring).  Homogeneous of weighted degree n."""
    n = sum(next(iter(vec), ()))
    if any(sum(mu) != n for mu in vec):
        raise ValueError("schur_in_times needs partitions of one size")
    D = lcm(*(c.den for c in vec.values()))
    R = max(map(len, vec), default=0)
    out: dict[TimeMonomial, Coefficient] = {}

    def walk(v: dict, rest: int, top: int, lam: Partition) -> None:
        if not rest:
            mult = sorted(Counter(lam).items())
            out[TimeMonomial(mult)] = _canonical(v[(1 << R) - 1],  # the leaf: R beads packed low
                                                 D * prod(factorial(e) for _, e in mult))
            return
        for k in range(min(top, rest), 0, -1):
            child: dict[int, dict] = {}
            for beads, nums in v.items():
                for moved, odd in _hook_moves(beads, k):
                    acc = child.setdefault(moved, {})
                    for key, x in nums.items():
                        acc[key] = acc.get(key, 0) + (-x if odd else x)
            child = {beads: nz for beads, nums in child.items()
                     if (nz := {key: x for key, x in nums.items() if x})}
            if child:
                walk(child, rest - k, k, lam + (k,))

    nums = {sum(1 << (p + R - 1 - i) for i, p in enumerate(mu)) | (1 << (R - len(mu))) - 1:
            {key: x * (D // c.den) for key, x in c.terms.items()} for mu, c in vec.items() if c}
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
    nc = n_coeff(N)
    # column j: c_{j, m*k} = phi[m,k](j+1-N) h^k, the x^(mk) coefficients of f_(j+1)
    cols = [phi_terms(m, degree // m, Coefficient.rational(j) - nc) for j in range(1, M + 1)]
    table: dict[tuple[int, int], Coefficient] = {(0, 0): Coefficient.one()}  # (|nu|, S)
    for j, col in enumerate(cols):
        step: dict[tuple[int, int], list] = {}  # (|mu|, S') -> [den, {key: numerator}]
        get = step.get
        for (w, S), coeff in table.items():
            for l in range(0, degree - w + 1, m):
                c = col[l // m]
                e = M - 1 - j + l
                if not c or S >> e & 1:
                    continue  # a zero entry, or colliding exponents (alternating determinant)
                sign = -1 if (S & (1 << e) - 1).bit_count() % 2 else 1
                d = coeff.den * c.den
                key = (w + l, S | 1 << e)
                acc = get(key)
                if acc is None:
                    step[key] = acc = [d, {}]
                _mul_nums(acc[1], c.terms.items(), coeff.terms.items(),
                          sign if acc[0] == d else rescaled(acc, d) * sign)
        table = settled(step)
    table = {_partition(S): c for (_, S), c in table.items()}
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
