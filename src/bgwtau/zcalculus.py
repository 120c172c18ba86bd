"""Truncated Laurent series in z, differential operators in z, the basis
vector series Phi_j, and the Kac-Schwarz operator identities.

Validity floors.  A LaurentSeries asserts nothing below its floor: the
stored coefficients of z^n for n >= floor are exact, everything below is
unknown (not necessarily zero).  Like Coefficient and TimePolynomial, a
series is canonical and immutable: it stores no zero and no exponent below
its floor, and its constructor trusts its input.  Only add and truncate
raise a floor, so only they drop stored content; _product_sum keeps no sum
that cancels.  Propagation is conservative:

  add:        floor = max(floors)
  d/dz:       floor - 1
  * z^k:      floor + k
  s1 * s2:    floor = max(f1 + reach2, f2 + reach1)   (reach = highest
              exponent a factor may reach, LaurentSeries.reach; junk below
              a floor can only reach the product at exponents below that
              bound)

so recomputing at greater depth never changes previously asserted
coefficients.  Every series product is one call of _product_sum, which
computes nothing below the result's floor.

Products in integer numerators.  No derivative series is built: the k-th
z-derivative of a series is read through a view (_views), with floor
floor - k, and one item (n - k, den, numerator items, n(n-1)...(n-k+1)) per
coefficient c_n = numerators/den whose falling factorial is nonzero; its
reach is the largest kept exponent, or floor - k - 1 if none is kept, as for
the derivative taken term by term.  _product_sum takes (view, view, int
weight) triples (compose passes the binomial C(i, s), z_commutator +-C(i, s),
apply and * pass 1) and keeps one running sum (algebra) per output z-power:
a pair adds its numerator products over d1 d2 with weight w w1 w2, and each
z-power is reduced once, at the end.

Commutators.  In a b - b a the s = 0 products c_i b_l d^(i+l) of the two
orders are equal, because coefficients commute, and cancel exactly.
z_commutator sums only the s >= 1 products of both orders, with weights
+-C(i, s), in one _product_sum per d-order.  Each d-order keeps the floor of
a.compose(b) - b.compose(a): the largest of o + tail + 1 and of every pair
floor of both orders, s = 0 included, so an order whose products all cancel
stays present, empty, with that floor.

No bound.  A bound is an int or -inf, and -inf means "no bound": a floor
of -inf is exact everywhere, the top and reach of a known zero are -inf, and
so are the max shift of an operator with no stored content and the tail
shift of an operator with no missing content.  -inf absorbs every sum and
loses every max, so the rules above are plain arithmetic on every bound.

The KS operator d = sum_{k<=k_max} T^k z, T = -h z^-m (theta - m/2 - N),
theta = z d/dz, has T^k z = (-h)^k z^(1-mk) prod_{i<k} (theta + alpha_i)
with alpha_i = 1 - m i - m/2 - N.  In the basis theta(theta-1)...(theta-o+1)
= z^o d^o a factor (theta + alpha) maps coefficients e[o] to
e[o-1] + (o + alpha) e[o]; ks_operators builds d by this recurrence in
int numerators over D^k, D = den(m/2 + N), and reduces each entry once, at
the end, to a canonical Coefficient.  The ladder check applies d by steps:
k_max applications of T to z Phi_j.  T is diagonal up to its shift: it
sends z^n to h (m/2 + N - n) z^(n-m), so a step is one Coefficient product
per term, and a term whose factor vanishes is dropped.  The sum's floor is
that of z Phi_j cut where d.apply cuts, and no step lowers it (each term's
own floor, max(floor - m, cut), lies at or below it), so a step computes
nothing below the sum's floor and adds into one running sum.

Phi_j series.  Phi_j = z^(j-1)(1 + sum_k phi[m,k](j) h^k z^(-mk)) where the
phi[m,k] are polynomials in j produced by the Gaussian steepest-descent
expansion: expand (1 + i*phi*u)^(-j) with generalized binomials, expand
exp(sum_{l>=3} tstar_l phi^l) with tstar_l = ((-i)^l / l!) *
((m+l-1)!/(m+1)!) * u^(l-2), replace phi^(2r) by (2r-1)!! and odd powers by
zero, then substitute u^2 -> h z^(-m).  Two parity facts make the result
real and even in u: every exp-table entry u^p phi^q has p = q (mod 2), and
only binomial terms with r = q (mod 2) survive the moments, so the u-power
p + r and the i-power r + 3q are both even.  The coefficients are built
in two stages: the table's scalar weights are summed per (k, r) first, then
phi[m,k] is summed in int numerators over den L (L the lcm of the binomial
denominators), each (k, r) adding its weight times the binomial's
numerators, and reduced once to a canonical Coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, inf, lcm, prod

from .algebra import (_KEY1, COEFF_ONE, Coefficient, _canonical, _ckey, _mul_nums, add_into,
                      merged, rescaled, settled)
from .operators import n_coeff
from .rational import QQ
from .report import Report


# ---------------------------------------------------------------------------
# Laurent series


class LaurentSeries:
    """coeffs: dict z-exponent -> Coefficient, exact at and above floor;
    canonical and immutable (module docstring)."""

    __slots__ = ("coeffs", "floor")

    def __init__(self, coeffs=None, floor=-inf):
        self.coeffs: dict[int, Coefficient] = coeffs if coeffs is not None else {}
        self.floor = floor

    @classmethod
    def zero(cls) -> "LaurentSeries":
        return cls()

    @classmethod
    def z_power(cls, n: int, coeff=None) -> "LaurentSeries":
        c = coeff if coeff is not None else COEFF_ONE
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        return cls({n: c} if c else {})

    def top(self):
        """Highest stored exponent; -inf for none."""
        return max(self.coeffs, default=-inf)

    def reach(self):
        """Highest exponent the series may reach, junk below its floor
        included: top(), or floor - 1 when nothing is stored; -inf for a
        known zero."""
        return max(self.coeffs, default=self.floor - 1)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        fl = max(self.floor, other.floor)
        return LaurentSeries(merged(self.truncate(fl).coeffs, other.truncate(fl).coeffs), fl)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({n: -c for n, c in self.coeffs.items()}, self.floor)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        if not c:
            return LaurentSeries({}, self.floor)
        return LaurentSeries({n: c0 * c for n, c0 in self.coeffs.items()}, self.floor)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by z^k."""
        return LaurentSeries({n + k: c for n, c in self.coeffs.items()}, self.floor + k)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        return _product_sum([(_views(self, 0)[0], _views(other, 0)[0], 1)])

    def truncate(self, floor: int) -> "LaurentSeries":
        """The series with its floor raised to floor; self if it is not
        raised."""
        if floor <= self.floor:
            return self
        return LaurentSeries({n: c for n, c in self.coeffs.items() if n >= floor}, floor)

    def __repr__(self):
        bits = [f"({c!r})*z^{n}" for n, c in sorted(self.coeffs.items(), reverse=True)]
        s = " + ".join(bits) if bits else "0"
        if self.floor > -inf:
            s += f"  (floor z^{self.floor})"
        return s


# ---------------------------------------------------------------------------
# differential operators in z


class ZOperator:
    """terms: dict d/dz-order -> LaurentSeries coefficient.  LaurentSeries
    has no __bool__, so the sparse-sum kernel keeps a sum that comes out
    empty: its floor still bounds what is unknown at that order.

    tail_shift expresses truncation in the action filtration: the operator
    may be missing content (at any d-order) whose action on z^n only reaches
    exponents <= n + tail_shift.  -inf means no missing content.  The
    geometric series for the KS operator d is the one producer of tails;
    compose/apply fold them into result floors, so identity checks stay
    honest at every order.
    """

    __slots__ = ("terms", "tail_shift")

    def __init__(self, terms=None, tail_shift=-inf):
        self.terms: dict[int, LaurentSeries] = terms if terms is not None else {}
        self.tail_shift = tail_shift

    @classmethod
    def identity(cls, coeff=None) -> "ZOperator":
        return cls({0: LaurentSeries.z_power(0, coeff)})

    @classmethod
    def ddz(cls, order: int = 1) -> "ZOperator":
        return cls({order: LaurentSeries.z_power(0)})

    def max_shift(self):
        """Upper bound on the action shift of the stored content (junk below
        series floors included); -inf if there is no stored content."""
        return max((s.reach() - i for i, s in self.terms.items()), default=-inf)

    def __add__(self, other: "ZOperator") -> "ZOperator":
        tail = max(self.tail_shift, other.tail_shift)
        # one side's tail may cancel the other side's stored content:
        # nothing at order o is assertable at or below exponent o + tail
        out = {o: s.truncate(o + tail + 1) for o, s in merged(self.terms, other.terms).items()}
        return ZOperator(out, tail)

    def __neg__(self) -> "ZOperator":
        return ZOperator({o: -s for o, s in self.terms.items()}, self.tail_shift)

    def __sub__(self, other: "ZOperator") -> "ZOperator":
        return self + (-other)

    def scale(self, c) -> "ZOperator":
        return ZOperator({o: s.scale(c) for o, s in self.terms.items()}, self.tail_shift)

    def shift(self, k: int) -> "ZOperator":
        """Left-multiply by z^k."""
        return ZOperator({o: s.shift(k) for o, s in self.terms.items()}, self.tail_shift + k)

    def apply(self, s: LaurentSeries) -> "LaurentSeries":
        """The action on s; with a tail, the result is exact only above
        z^(reach + tail_shift), and nothing below that is computed."""
        vs = _views(s, max(self.terms, default=0))
        return _product_sum([(_views(c, 0)[0], vs[o], 1) for o, c in self.terms.items()],
                            s.reach() + self.tail_shift + 1)

    def compose(self, other: "ZOperator") -> "ZOperator":
        """self after other (operator product)."""
        tail = _compose_tail(self, other)
        pairs: dict[int, list] = {}
        for o, _, triple in _compose_pairs(self, other):
            pairs.setdefault(o, []).append(triple)
        return ZOperator({o: _product_sum(ps, o + tail + 1) for o, ps in pairs.items()}, tail)

    def power(self, e: int) -> "ZOperator":
        if e < 0:
            raise ValueError("negative operator powers are not supported")
        if not e:
            return ZOperator.identity()
        # identity().compose(self) without the products: each order cut at
        # o + tail + 1, as compose folds self's tail
        tail = self.tail_shift
        out = ZOperator({o: s.truncate(o + tail + 1) for o, s in self.terms.items()}, tail)
        for _ in range(e - 1):
            out = out.compose(self)
        return out

    def __repr__(self):
        bits = [f"[{s!r}] d^{o}" for o, s in sorted(self.terms.items())]
        s = " + ".join(bits) if bits else "0"
        if self.tail_shift > -inf:
            s += f"  (tail shift {self.tail_shift})"
        return s


def _compose_tail(a: ZOperator, b: ZOperator):
    """The tail shift of a after b, and of b after a: missing factors only
    act with small shifts, so order o of either product is exact only above
    z^(o + tail)."""
    ta, tb = a.tail_shift, b.tail_shift
    return max(ta + b.max_shift(), ta + tb, a.max_shift() + tb)


def _compose_pairs(a: ZOperator, b: ZOperator):
    """(order, s, (view, view, C(i, s))) for every product of a after b:
    c_i d^i (b_l d^l) = c_i sum_s C(i,s) (d^s b_l) d^(i+l-s)."""
    top = max(a.terms, default=0)
    views = {l: _views(bl, top) for l, bl in b.terms.items()}
    for i, ci in a.terms.items():
        vi = _views(ci, 0)[0]
        for l, vs in views.items():
            for s in range(i + 1):
                yield i + l - s, s, (vi, vs[s], comb(i, s))


def _views(s: LaurentSeries, n: int) -> list[tuple]:
    """The views (floor, reach, items) of s, s', ..., s^(n), each item
    (exponent, den, numerator items, integer weight) (module docstring)."""
    fl = s.floor
    items = [(e, c.den, c.terms.items(), 1) for e, c in s.coeffs.items()]
    out = [(fl, s.reach(), items)]
    for k in range(1, n + 1):
        items = [(e - 1, d, t, w * e) for e, d, t, w in items if e]
        out.append((fl - k, max((it[0] for it in items), default=fl - k - 1), items))
    return out


def _product_sum(triples: list, cut=-inf) -> LaurentSeries:
    """sum w*a*b over the triples (view a, view b, int w): the one product
    loop of the module, one running sum per z-power (module docstring).  Its floor is the largest of cut and the
    product floors, and no coefficient below it is computed."""
    fl = cut
    for (fa, ra, _), (fb, rb, _), _ in triples:
        fl = max(fl, fa + rb, fb + ra)
    sums: dict[int, list] = {}  # z-power -> [den, {key: numerator}]
    get = sums.get
    for (_, _, ia), (_, _, ib), w in triples:
        for n1, d1, t1, w1 in ia:
            w1 *= w
            for n2, d2, t2, w2 in ib:
                n = n1 + n2
                if n < fl:
                    continue
                d = d1 * d2
                acc = get(n)
                if acc is None:
                    sums[n] = acc = [d, {}]
                _mul_nums(acc[1], t1, t2, w1 * w2 if acc[0] == d else rescaled(acc, d) * w1 * w2)
    return LaurentSeries(settled(sums), fl)


def z_commutator(a: ZOperator, b: ZOperator) -> ZOperator:
    """a b - b a from the s >= 1 products of both orders (module docstring)."""
    tail = _compose_tail(a, b)
    pairs: dict[int, list] = {}
    cuts: dict[int, int] = {}
    for sign, x, y in ((1, a, b), (-1, b, a)):
        for o, s, (vx, vy, w) in _compose_pairs(x, y):
            ps = pairs.setdefault(o, [])
            if s:
                ps.append((vx, vy, sign * w))
            else:  # cancels against the other order; only its floor is kept
                cuts[o] = max(cuts.get(o, o + tail + 1), vx[0] + vy[1], vy[0] + vx[1])
    return ZOperator({o: _product_sum(ps, cuts.get(o, o + tail + 1)) for o, ps in pairs.items()},
                     tail)


# ---------------------------------------------------------------------------
# Phi series (steepest-descent expansion of the basis vectors)


def _exp_table(m: int, K: int) -> tuple:
    """exp(sum_{l>=3} tstar_l phi^l) truncated at u-power 2K.

    Returns (table, den): table maps (p, q) to the integer numerator over
    den of the entry u^p phi^q; the i-power of every entry at phi-degree q
    is 3q mod 4 (each factor carries (-i)^l), so only the rational part is
    stored.  Each factor adds s(l-2) to p and s*l to q, so p = q (mod 2).
    """
    cap = 2 * K
    table, den = {(0, 0): 1}, 1  # integer numerators over one denominator
    for l in range(3, cap + 3):
        # factor exp(tstar_l phi^l): sum_s (c_l phi^l u^(l-2))^s / s!
        cl = QQ(prod(range(m + 2, m + l)), factorial(l))  # (m+l-1)! / ((m+1)! l!)
        cn, cd = cl.numerator, cl.denominator
        smax = cap // (l - 2)
        if smax == 0:
            break
        # weights[s] = S c_l^s / s! with S = cd^smax smax!, an integer
        S = cd ** smax * factorial(smax)
        weights = [cn ** s * (S // (cd ** s * factorial(s))) for s in range(smax + 1)]
        new = {}
        for (p, q), v in table.items():
            for s in range(0, smax + 1):
                pp = p + s * (l - 2)
                if pp > cap:
                    break
                add_into(new, (pp, q + s * l), v * weights[s])
        table, den = new, den * S
    return table, den


_PHI_STORE: dict[int, tuple] = {}


def phi_coefficients(m: int, K: int) -> tuple:
    """Symbolic-j coefficients (phi[m,0]=1, phi[m,1], ..., phi[m,K]) with
    phi[m,k] multiplying h^k z^(-mk) in the normalized basis vector."""
    have = _PHI_STORE.get(m)
    if have is None or len(have) <= K:
        _PHI_STORE[m] = _phi_coefficients(m, K)
    return _PHI_STORE[m][: K + 1]


def _phi_coefficients(m: int, K: int) -> tuple:
    if m < 1:
        raise ValueError("m must be a positive integer")
    cap = 2 * K
    # generalized binomial expansion of (1 + i u phi)^(-j):
    # term r: C(-j, r) (i u)^r phi^r with C(-j, r) = (-1)^r j(j+1)...(j+r-1)/r!
    binoms = [COEFF_ONE]
    cur = COEFF_ONE
    for r in range(1, cap + 1):
        jshift = Coefficient.monomial(1, j=1) + Coefficient.rational(r - 1)
        cur = (cur * jshift).scale(QQ(-1, r))
        binoms.append(cur)
    # stage 1: the integer weight (over den) of binoms[r] at u^(p+r) =
    # h^k z^(-mk); odd Gaussian moments vanish, so r = q (mod 2) and
    # i^(r+3q) = (-1)^((r+3q)/2)
    table, den = _exp_table(m, K)
    moments = [1, 1]  # moments[n] = (n-1)!!
    for n in range(2, max(q for _, q in table) + cap + 1):
        moments.append(moments[n - 2] * (n - 1))
    weight: dict[tuple[int, int], int] = {}
    for (p, q), v in table.items():
        for r in range(q % 2, cap - p + 1, 2):
            w = v * moments[q + r]
            key = ((p + r) // 2, r)
            weight[key] = weight.get(key, 0) + (-w if (r + 3 * q) & 2 else w)
    # stage 2: phi[m,k] as int numerators over den L, L the lcm of the binomial
    # denominators; each k is reduced once
    L = lcm(*(c.den for c in binoms))
    nums = [[(key, v * (L // c.den)) for key, v in c.terms.items()] for c in binoms]
    out = [{} for _ in range(K + 1)]
    for (k, r), w in weight.items():
        _mul_nums(out[k], ((_KEY1, w),), nums[r])
    return tuple(_canonical(acc, den * L) for acc in out)


def phi_terms(m: int, K: int, j: Coefficient) -> list[Coefficient]:
    """[phi[m,k](j) h^k for k = 0..K], the h^k z^(-mk) coefficients of the
    normalized basis vector, with j bound to a Coefficient: a rational, or
    j - N for the generalized vectors.  The powers j^0..j^(2K) are built
    once per call; the stored coefficients are read on every call."""
    powers = [COEFF_ONE]
    for _ in range(2 * K):
        powers.append(powers[-1] * j)
    return [c.bind(0, powers).times_h(k) for k, c in enumerate(phi_coefficients(m, K))]


def phi_series(m: int, j: int, K: int) -> LaurentSeries:
    """Basis vector Phi_j^(m) = z^(j-1)(1 + ...) to depth K, exact down to
    z^(j-1-mK); phi_series_gen at N = 0, served from its cache."""
    return phi_series_gen(m, 0, j, K)


@lru_cache(maxsize=4096)
def phi_series_gen(m: int, N, j: int, K: int) -> LaurentSeries:
    """Generalized basis vector Phi_j^(m,N) = z^N Phi_{j-N}^(m): the j -> j-N
    shift applied inside the symbolic-j coefficients, leading power z^(j-1)."""
    terms = phi_terms(m, K, Coefficient.rational(j) - n_coeff(N))
    return LaurentSeries({j - 1 - m * k: c for k, c in enumerate(terms) if c}, j - 1 - m * K)


# ---------------------------------------------------------------------------
# Kac-Schwarz operators


@dataclass(frozen=True)
class KSOperators:
    a: ZOperator
    b: ZOperator
    c: ZOperator
    d: ZOperator
    d_inv: ZOperator
    k_max: int
    m: int
    hmn: Coefficient  # h (m/2 + N)

    def d_apply(self, s: LaurentSeries) -> LaurentSeries:
        """d s by steps: the sum of T^k (z s) for k <= k_max, T z^n =
        h (m/2 + N - n) z^(n-m) (module docstring).  The sum is cut where
        d.apply cuts, at the floor of z s cut there, so it equals d.apply(s);
        T only lowers exponents, so no term is computed below that floor."""
        m, hmn = self.m, self.hmn
        first = s.shift(1).truncate(s.reach() + self.d.tail_shift + 1)
        fl, term = first.floor, first.coeffs
        out = dict(term)
        factors: dict[int, Coefficient] = {}
        for _ in range(self.k_max):
            nxt = {}
            for n, c in term.items():
                if n - m >= fl:
                    f = factors.get(n)
                    if f is None:
                        f = factors[n] = _step_factor(hmn, n)
                    if cf := c * f:
                        nxt[n - m] = cf
                        add_into(out, n - m, cf)
            term = nxt
        return LaurentSeries(out, fl)


def _step_factor(hmn: Coefficient, n: int) -> Coefficient:
    """h (m/2 + N - n), the factor of T on z^n, from hmn = h (m/2 + N)."""
    return hmn - Coefficient.monomial(n, h=1)


@lru_cache(maxsize=256)
def _ks_exact(m: int, N) -> tuple:
    """(a, b, c, d_inv, h (m/2 + N)): the KS operators that do not depend on
    the depth (ks_operators), built once per (m, N)."""
    nc = n_coeff(N)
    half_m = QQ(m, 2)

    a = ZOperator(
        {
            1: LaurentSeries.z_power(1),
            0: LaurentSeries({0: Coefficient.rational(-half_m), m: Coefficient.monomial(1, h=-1)}),
        }
    )
    b = ZOperator({0: LaurentSeries.z_power(m + 1)})

    a_minus = a - ZOperator.identity(nc)
    a_plus = a + ZOperator.identity(nc.scale(m))
    c = (a_minus.compose(a_plus)).shift(-(m + 1)).scale(Coefficient.monomial(1, h=1))
    hmn = (Coefficient.rational(half_m) + nc).times_h(1)  # zero at N = -m/2
    step = ZOperator(
        {
            1: LaurentSeries.z_power(1 - m, Coefficient.monomial(-1, h=1)),
            0: LaurentSeries.z_power(-m, hmn),
        }
    )
    d_inv = (ZOperator.identity() - step).shift(-1)
    return a, b, c, d_inv, hmn


@lru_cache(maxsize=256)
def ks_operators(m: int, N, depth: int) -> KSOperators:
    """The KS operators for tau^(m,N).

    a = z d/dz - m/2 + z^m/h and b = z^(m+1) are exact; c is the exact
    normal-ordered form of h z^-(m+1) (a-N)(a+Nm); d is the geometric series
    sum_k T^k z with step T = -h z^-m (z d/dz - m/2 - N), truncated at
    k_max so that its order-i coefficient is exact above
    z^(i+1-m*ceil((depth+2)/m+1)); d_inv is the exact two-term inverse
    z^-1 (1 - T).  Only d depends on depth; the others come from _ks_exact."""
    a, b, c, d_inv, hmn = _ks_exact(m, N)
    # d from the theta-recurrence (module docstring).  Every term T^k z
    # shifts z-degree by exactly 1 - m k, so the omitted k > k_max tail has
    # action shift <= 1 - m (k_max + 1).
    k_max = (depth + 2 + m) // m + 1
    # e[k][o]: numerators over D^k of the z^(1-mk+o) d^o coefficient of T^k z,
    # D = den(m/2 + N); one more factor -h z^-m (theta + alpha_k) gives
    # -h (D e[o-1] + ((o + 1 - mk) D - D (m/2 + N)) e[o]) over D^(k+1)
    D, h1 = hmn.den, _ckey(1, 0, 0)  # h1: the key of h
    c0 = hmn.terms.get(h1, 0)
    hn = [(key, v) for key, v in hmn.terms.items() if key != h1]  # h D (N-part)
    e = [[{_KEY1: 1}]]
    for k in range(k_max):
        row = []
        for o, (lower, same) in enumerate(zip([{}] + e[-1], e[-1] + [{}])):
            out: dict[int, int] = {}
            _mul_nums(out, ((h1, -D),), lower.items())
            _mul_nums(out, [(h1, c0 - (o + 1 - m * k) * D), *hn], same.items())
            row.append(out)
        e.append(row)
    d = ZOperator(
        {o: LaurentSeries({1 - m * k + o: eko for k, ek in enumerate(e[o:], o)
                           if (eko := _canonical(ek[o], D ** k))})
         for o in range(k_max + 1)},
        1 - m * (k_max + 1),
    )
    return KSOperators(a, b, c, d, d_inv, k_max, m, hmn)


def canonical_pair(m: int, N, depth: int) -> tuple[ZOperator, ZOperator, KSOperators]:
    """(P, Q): P = (c - h^-1 d^(m-1))/(m+1); Q = (h c + 2 d)/3 for m=2 and
    Q = d for m >= 3."""
    if m < 2:
        raise ValueError("canonical pair via c,d needs m >= 2")
    ks = ks_operators(m, N, depth)
    hinv = Coefficient.monomial(1, h=-1)
    p = (ks.c - ks.d.power(m - 1).scale(hinv)).scale(QQ(1, m + 1))
    if m == 2:
        q = (ks.c.scale(Coefficient.monomial(1, h=1)) + ks.d.scale(2)).scale(QQ(1, 3))
    else:
        q = ks.d
    return p, q, ks


# ---------------------------------------------------------------------------
# identity suites


def _series_eq_case(rep: Report, suite: str, name: str, lhs: LaurentSeries, rhs: LaurentSeries):
    t = (lhs - rhs).top()
    rep.add(suite, name, t == -inf, f"first residual at z^{t}" if t > -inf else "")


def _phis(m: int, N, js, depth: int, j_max: int, K: int) -> dict[int, LaurentSeries]:
    """{j: Phi_j^(m,N) exact down to z^(j-1-mK)} for j in js.  Every check
    reads its series at the spectral curve's depth (depth + j_max + 2m + 2)//m
    + 1 >= K, so one (m, N, depth, j_max) builds the stored coefficients and
    binds each Phi_j once; cut to the check's floor the deeper series is the
    series at K, since greater depth never changes asserted coefficients."""
    deep = (depth + j_max + 2 * m + 2) // m + 1
    return {j: phi_series_gen(m, N, j, deep).truncate(j - 1 - m * K) for j in js}


def check_ks_actions(m: int, N, j_max: int, depth: int) -> Report:
    """Ladder actions of a, b, c, d on Phi_j for j = 1..j_max:

      a Phi_j = ((j-1)(m+1) - N m) Phi_j + h^-1 Phi_{j+m}
      b Phi_j = (j-N)(m+1) h Phi_{j+1} + Phi_{j+m+1}
      c Phi_j = (j-1)(m+1) Phi_{j-1} + h^-1 Phi_{j+m-1}
      d Phi_j = Phi_{j+1}
    """
    rep = Report()
    suite = f"ks-actions[m={m},N={N}]"
    K = (depth + j_max + m) // m + 1
    ks = ks_operators(m, N, depth + j_max + m + 1)
    nc = n_coeff(N)
    phis = _phis(m, N, range(0, j_max + m + 2), depth, j_max, K)
    hinv = Coefficient.monomial(1, h=-1)
    hpow = Coefficient.monomial(1, h=1)
    for j in range(1, j_max + 1):
        eig_a = Coefficient.rational((j - 1) * (m + 1)) - nc.scale(m)
        _series_eq_case(
            rep, suite, f"a.Phi_{j}", ks.a.apply(phis[j]),
            phis[j].scale(eig_a) + phis[j + m].scale(hinv),
        )
        eig_b = (Coefficient.rational(j) - nc).scale(m + 1) * hpow
        _series_eq_case(
            rep, suite, f"b.Phi_{j}", ks.b.apply(phis[j]),
            phis[j + 1].scale(eig_b) + phis[j + m + 1],
        )
        _series_eq_case(
            rep, suite, f"c.Phi_{j}", ks.c.apply(phis[j]),
            phis[j - 1].scale((j - 1) * (m + 1)) + phis[j + m - 1].scale(hinv),
        )
        _series_eq_case(rep, suite, f"d.Phi_{j}", ks.d_apply(phis[j]), phis[j + 1])
        _series_eq_case(rep, suite, f"d_inv.Phi_{j+1}", ks.d_inv.apply(phis[j + 1]), phis[j])
    return rep


def _op_residual_case(rep: Report, suite: str, name: str, op: ZOperator):
    bad = next((f"order d^{order}, first residual at z^{s.top()}"
                for order, s in sorted(op.terms.items()) if s.top() > -inf), "")
    rep.add(suite, name, not bad, bad)


def check_commutation(m: int, N, depth: int) -> Report:
    """[a,b] = (m+1) b and [c,d] = m+1 as operator identities up to floors."""
    rep = Report()
    suite = f"ks-commutation[m={m},N={N}]"
    ks = ks_operators(m, N, depth)
    _op_residual_case(rep, suite, "[a,b]=(m+1)b", z_commutator(ks.a, ks.b) - ks.b.scale(m + 1))
    _op_residual_case(
        rep, suite, "[c,d]=m+1", z_commutator(ks.c, ks.d) - ZOperator.identity().scale(m + 1)
    )
    _op_residual_case(
        rep, suite, "d.d_inv=1", ks.d.compose(ks.d_inv) - ZOperator.identity()
    )
    _op_residual_case(
        rep, suite, "d_inv.d=1", ks.d_inv.compose(ks.d) - ZOperator.identity()
    )
    return rep


def _shape_case(rep: Report, suite: str, name: str, op: ZOperator, lead_order: int, lead: LaurentSeries):
    """op must equal lead at d^lead_order plus strictly negative z-orders;
    the lead order is checked even where op stores nothing."""
    ok, why = True, ""
    terms = dict(op.terms)
    terms.setdefault(lead_order, LaurentSeries.zero())
    for order, s in terms.items():
        probe = s - lead if order == lead_order else s
        t = probe.top()
        if t >= 0:
            ok, why = False, f"order d^{order} has z^{t} term"
            break
    rep.add(suite, name, ok, why)


def check_canonical_pair(m: int, N, depth: int) -> Report:
    """Prop-level checks: P Phi_1 = 0, [P,Q] = 1, leading shapes, and the
    ladder Q Phi_j = Phi_{j+1} + (j-1) h Phi_{j-1} (m=2) or Phi_{j+1} (m>=3)."""
    rep = Report()
    suite = f"canonical-pair[m={m},N={N}]"
    p, q, ks = canonical_pair(m, N, depth)
    _shape_case(rep, suite, "P in ddz + D_-", p, 1, LaurentSeries.z_power(0))
    _shape_case(rep, suite, "Q in z + D_-", q, 0, LaurentSeries.z_power(1))
    _op_residual_case(rep, suite, "[P,Q]=1", z_commutator(p, q) - ZOperator.identity())
    K = (depth + m + 4) // m + 1
    phis = _phis(m, N, range(0, m + 5), depth, 1, K)
    _series_eq_case(rep, suite, "P.Phi_1=0", p.apply(phis[1]), LaurentSeries.zero())
    for j in range(1, 4):
        expect = phis[j + 1]
        if m == 2 and j > 1:
            expect = expect + phis[j - 1].scale(Coefficient.monomial(j - 1, h=1))
        _series_eq_case(rep, suite, f"Q.Phi_{j} ladder", q.apply(phis[j]), expect)
    return rep


def check_spectral_curve(m: int, N, j_max: int, depth: int) -> Report:
    """Quantum spectral curve residuals:

      ((m+1)(m+1-j+N) h d^-m + b d^-(m+1) - 1) Phi_j = 0

    plus, at m=1 and N=0, the quantum Bessel equation
    (d/dz^2 + (2/h) d/dz + 1/(4 z^2)) Phi_1 = 0, and the closing identity
    h^-1 d^(m-1) (curve operator at j=1) = c - h^-1 d^(m-1) for N=0."""
    rep = Report()
    suite = f"spectral-curve[m={m},N={N}]"
    K = (depth + j_max + 2 * m + 2) // m + 1
    ks = ks_operators(m, N, depth + j_max + 2 * m + 2)
    nc = n_coeff(N)
    dm = ks.d_inv.power(m)
    dm1 = dm.compose(ks.d_inv)  # power composes left to right: d_inv^(m+1)
    b_dm1 = ks.b.compose(dm1)
    hpow = Coefficient.monomial(1, h=1)
    phis = _phis(m, N, range(1, j_max + 1), depth, j_max, K)
    for j, phi in phis.items():
        coeff = (Coefficient.rational(m + 1 - j) + nc).scale(m + 1) * hpow
        resid = dm.apply(phi).scale(coeff) + b_dm1.apply(phi) - phi
        _series_eq_case(rep, suite, f"curve residual j={j}", resid, LaurentSeries.zero())
    if m == 1 and not nc:
        bessel = (
            ZOperator.ddz(2)
            + ZOperator.ddz(1).scale(Coefficient.monomial(2, h=-1))
            + ZOperator({0: LaurentSeries.z_power(-2, QQ(1, 4))})
        )
        _series_eq_case(rep, suite, "quantum Bessel", bessel.apply(phis[1]), LaurentSeries.zero())
    if not nc and m >= 2:
        hinv = Coefficient.monomial(1, h=-1)
        curve = dm.scale(Coefficient.monomial(m * (m + 1), h=1)) + b_dm1 - ZOperator.identity()
        dh = ks.d.power(m - 1).scale(hinv)
        lhs = dh.compose(curve)
        rhs = ks.c - dh
        _op_residual_case(rep, suite, "closing identity (j=1)", lhs - rhs)
    return rep
