"""Cut-and-join operators and the algebraic topological recursion.

tau = 1 + sum_k h^k tau_k with tau_k a homogeneous polynomial of weighted
degree m*k.  The recursion is

  m=1:  k tau_k = W . tau_{k-1}
  m=2:  2k tau_k = W1 . tau_{k-1} + W2 . tau_{k-2}

where W is the N-deformed BGW cut-and-join operator, derived by combining
the m=1 constraint family, and (W1, W2) is the displayed m=2 pair.
For m >= 3 no cut-and-join pair is available and the Schur oracle must be
used instead.

The operators are built the same way for every N; tau_expand trims them by
two rules whose dropped terms act as zero on every tau_k it feeds them:

  degree     each operator is materialized to the top weighted degree it is
             ever applied to, K-1 for W and 2K-2 for (W1, W2); a dropped
             term has a derivative part heavier than its input (see
             operators);
  reduction  terms whose derivative part contains some d/dt_k with
             (m+1) | k are dropped: tau^(m,N) is free of every t_{(m+1)l}
             (check_expansion_invariants checks it on the result).

w_gen and w1_w2 build to the bound they are given; only tau_expand applies
the reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    MONO_ONE,
    ONE_ROWS,
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    mul_sums,
    numerators,
    reduced,
    weighted_degree,
)
from .operators import DiffOperator, cubic, n_coeff, virasoro
from .rational import QQ
from .report import Report

RECURSION = "recursion"
SCHUR_ORACLE = "schur-oracle"


@dataclass
class TauExpansion:
    """Topological expansion (tau_0, ..., tau_K) of tau^(m,N)."""

    m: int
    N: object  # rational or "symbolic"
    coeffs: list[TimePolynomial] = field(default_factory=list)
    provenance: str = RECURSION

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def w_gen(N, bound: int) -> DiffOperator:
    """m=1 cut-and-join for the N-deformation, obtained by combining the m=1
    constraint family exactly as the m=2 pair is combined: the Euler grading
    of tau^(1,N) equals h times this operator acting on it.  On odd-times
    polynomials at N=0 it acts as the BGW operator (odd-index cut and join
    sums plus t_1/8)."""
    nc = n_coeff(N)
    op = DiffOperator({})
    for k in range(0, bound // 2 + 1):
        op.add_scaled(2 * k + 1, virasoro(2 * k, bound), TimeMonomial.var(2 * k + 1))
    const = Coefficient.rational(QQ(1, 8)) - (nc * nc).scale(QQ(1, 2))
    op.add_term(const, TimeMonomial.var(1), MONO_ONE)
    return op


def w1_w2(N, bound: int) -> tuple[DiffOperator, DiffOperator]:
    """The m=2 cut-and-join pair (W1, W2), N-deformed as displayed; N=0
    reduces to the undeformed pair."""
    nc = n_coeff(N)
    nsq = nc * nc

    w1 = DiffOperator({})
    for k in range(0, bound // 3 + 2):
        w1.add_scaled(3 * k + 2, virasoro(3 * k, bound), TimeMonomial.var(3 * k + 2))
        w1.add_scaled(2 * (3 * k + 1), virasoro(3 * k - 1, bound), TimeMonomial.var(3 * k + 1))
    w1.add_term(Coefficient.rational(QQ(2, 3)) - nsq.scale(2), TimeMonomial.var(2), MONO_ONE)
    w1.add_term(-nc, TimeMonomial.var(1, 2), MONO_ONE)
    w1.add_term(nc.scale(-4), TimeMonomial.var(4), TimeMonomial.var(2))

    w2 = DiffOperator({})
    for k in range(0, bound // 3 + 2):
        w2.add_scaled(-(3 * k + 1), cubic(3 * k - 3, bound), TimeMonomial.var(3 * k + 1))
    w2.add_term(
        Coefficient.rational(-2) + nsq.scale(6),
        TimeMonomial.var(3) * TimeMonomial.var(1),
        MONO_ONE,
    )
    w2.add_scaled(nc.scale(4), virasoro(0, bound), TimeMonomial.var(4))
    w2.add_scaled(nc, virasoro(-3, bound), TimeMonomial.var(1))
    w2.add_term((nc * nsq - nc).scale(QQ(-4, 3)), TimeMonomial.var(4), MONO_ONE)
    return w1, w2


def _reduced(op: DiffOperator, m: int) -> DiffOperator:
    """op without its terms that differentiate by some t_{(m+1)l}."""
    return DiffOperator({(tk, dm): nums for (tk, dm), nums in op.rows.items()
                         if all(k % (m + 1) for k, _ in dm)}, op.den)


def tau_expand(m: int, N, K: int) -> TauExpansion:
    """Run the algebraic topological recursion to order K."""
    if K < 0:
        raise ValueError("order K must be >= 0")
    if m == 1:
        ops = (w_gen(N, max(K - 1, 0)),)
    elif m == 2:
        ops = w1_w2(N, max(2 * K - 2, 0))
    else:
        raise ValueError(
            "recursion unavailable; cut-and-join operators are only known for m <= 2"
            " (use the schur oracle instead)"
        )
    ops = [_reduced(w, m) for w in ops]
    coeffs = [TimePolynomial.one()]
    for k in range(1, K + 1):
        tk = TimePolynomial.zero()
        for i, w in enumerate(ops[:k], 1):
            tk = tk + w.apply(coeffs[k - i])
        coeffs.append(tk.scale(QQ(1, m * k)))
    return TauExpansion(m, N, coeffs, RECURSION)


def free_energy(T: TauExpansion) -> list[TimePolynomial]:
    """Coefficients F^1..F^K of log tau = sum_k h^k F^k (formal log in h), by

      k F_k = k tau_k - sum_{i<k} (i F_i) tau_(k-i)

    in numerator form, as running sums (algebra): tau_k over its own
    denominator, each F_i tau_(k-i) over den(F_i) k den(tau_(k-i)) with
    weight -i."""
    if not T.coeffs or T.coeffs[0] != TimePolynomial.one():
        raise ValueError("not normalized: tau_0 must be 1")
    tau = [numerators(c) for c in T.coeffs]
    F: list[TimePolynomial] = []
    Fn: list[tuple[list, int]] = [([], 1)]  # F_i in numerator form
    for k in range(1, T.order + 1):
        sums: dict = {}
        mul_sums(sums, ONE_ROWS, 1, *tau[k])
        for i in range(1, k):
            fi, di = Fn[i]
            mul_sums(sums, fi, di * k, *tau[k - i], -i)
        F.append(reduced(sums))
        Fn.append(numerators(F[-1]))
    return F


def exp_series(F: list[TimePolynomial], K: int) -> list[TimePolynomial]:
    """Re-expand exp(sum h^k F^k) to order K (inverse of free_energy)."""
    tau = [TimePolynomial.one()]
    for k in range(1, K + 1):
        acc = TimePolynomial.zero()
        for i in range(1, k + 1):
            if i <= len(F):
                acc = acc + F[i - 1].scale(QQ(i, k)) * tau[k - i]
        tau.append(acc)
    return tau


def check_expansion_invariants(T: TauExpansion) -> Report:
    """Normalization, homogeneity deg tau_k = m k, and the (m+1)-reduction
    (tau free of every t_{(m+1)l})."""
    rep = Report()
    suite = "expansion-invariants"
    rep.add(suite, "tau0=1", T.coeffs[:1] == [TimePolynomial.one()], "tau_0 != 1")
    step = T.m + 1
    for k, p in enumerate(T.coeffs):
        if k == 0:
            continue
        if not p:
            rep.add(suite, f"homogeneous[k={k}]", True)
        else:
            d = weighted_degree(p)
            rep.add(
                suite,
                f"homogeneous[k={k}]",
                d == T.m * k,
                f"degree {d} != {T.m * k}",
            )
        bad = sorted(v for v in p.variables() if v % step == 0)
        rep.add(
            suite,
            f"reduction[k={k}]",
            not bad,
            f"depends on t_{{{step}l}} for l in {[v // step for v in bad]}" if bad else "",
        )
    return rep
