"""Normal-ordered differential operators in the KP times.

An operator is a finite sum of terms  coeff * t-monomial * d-monomial  with
every derivative standing to the right of every time variable.  A
DiffOperator holds its terms as integer numerator rows over one common
denominator den: (tpart, dpart) -> {coefficient key: numerator}, tpart
packed (algebra.tpack) and dpart a TimeMonomial ((k, order) pairs).  Terms
are added in plain ints, with no canonical Coefficient and no gcd per term;
DiffOperator.terms is the canonical view, one Coefficient per nonzero term.

The infinite generator families (Virasoro L_m, cubic M_k, the constraint
families) are materialized to a degree bound d: a term is included iff its
derivative part has weighted order sum <= d, which is exactly the set of
terms that can act nontrivially on polynomials of weighted degree <= d.
Materializing to a larger bound never changes the action on such
polynomials.  A generator is a list of (weight, tpart, dpart) terms with a
plain rational weight, each (tpart, dpart) at most once; add_scaled adds it
into an operator, raising den at most once per call.  L_m and M_k are one rule,
(1/n) sum :J_a1...J_an: at n = 2, 3: creation and derivative index multisets A,
B give one term, weight prod(A)/n times their orderings n!/prod mult!.

Application runs in plain ints: a DerivativeTable keeps p's derivatives as
integer numerators over p's own denominator (it is the engine's one
differentiation routine), and apply hands the operator's rows and the
table's rows to algebra's product kernel (mul_sums, one running sum per
output monomial, see algebra).  TimePolynomial.__mul__,
cutjoin.free_energy and verify.hirota_suite share that kernel.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm, perm

from .algebra import (
    TMASK,
    Coefficient,
    MONO_ONE,
    TimeMonomial,
    TimePolynomial,
    _canonical,
    mul_sums,
    numerators,
    reduced,
    tfield,
    tpack,
    tunpack,
)
from .rational import QQ


def n_coeff(N) -> Coefficient:
    """Coefficient for an N binding: the string "symbolic" keeps N formal."""
    if isinstance(N, Coefficient):
        return N
    if N == "symbolic":
        return Coefficient.monomial(1, n=1)
    return Coefficient.rational(QQ(N))


class DiffOperator:
    """Finite normal-ordered operator: rows (tpart, dpart) -> {key:
    numerator} over den (module docstring).  Numerators are summed as
    written, so a row may hold zeros or cancel to nothing.  Rows change only
    through add_scaled."""

    __slots__ = ("rows", "den", "_terms")

    def __init__(self, rows=None, den: int = 1):
        self.rows: dict[tuple[int, TimeMonomial], dict[int, int]] = (
            rows if rows is not None else {}
        )
        self.den = den
        self._terms = None

    @property
    def terms(self) -> dict[tuple[TimeMonomial, TimeMonomial], Coefficient]:
        """The canonical view, read-only: (tpart, dpart) -> Coefficient for
        every nonzero term, tpart unpacked.  Built on the first read after a
        change and kept, since a traced run reads it on every apply."""
        if self._terms is None:
            self._terms = {}
            for (tk, dm), nums in self.rows.items():
                c = _canonical(nums, self.den)
                if c:
                    self._terms[tunpack(tk), dm] = c
        return self._terms

    def add_term(self, coeff: Coefficient, tpart: TimeMonomial, dpart: TimeMonomial) -> None:
        self.add_scaled(coeff, [(1, tpart, dpart)])

    def __bool__(self):
        return any(any(nums.values()) for nums in self.rows.values())

    def add_scaled(self, c, terms: list, mono: TimeMonomial = MONO_ONE) -> None:
        """self += c * mono * (the generator of terms), in place: each
        (weight, tpart, dpart) term adds the numerators of c * weight at
        (mono * tpart, dpart).  den first rises to the lcm of itself and
        every den(c) den(weight), rescaling the rows once."""
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        if not c:
            return
        self._terms = None
        ws = [(w.numerator, w.denominator) for w, _, _ in terms]
        den = lcm(self.den, *(c.den * q for _, q in ws))
        if den != self.den:
            f = den // self.den
            for nums in self.rows.values():
                for k in nums:
                    nums[k] *= f
            self.den = den
        off, citems, rows = tpack(mono), c.terms.items(), self.rows
        for (p, q), (_, tm, dm) in zip(ws, terms):
            r = p * (den // (c.den * q))
            key = (off + tpack(tm), dm)
            row = rows.get(key)
            if row is None:
                row = rows[key] = {}
            for k, v in citems:
                row[k] = row.get(k, 0) + v * r

    def apply(self, p: TimePolynomial, table: "DerivativeTable | None" = None) -> TimePolynomial:
        """Exact application; linear in p.  p's derivatives come from table,
        a DerivativeTable of p (a private one by default): each distinct
        derivative part differentiates p once per table, so a caller that
        applies several operators to one p shares one table among them.

        Every row meets its derivative in algebra.mul_sums, over
        den * table.den; each output coefficient is reduced once, at the
        end, and a monomial whose sum cancels is left out."""
        if table is None:
            table = DerivativeTable(p)
        sums: dict = {}
        for (tk, dm), nums in self.rows.items():
            entries = table[dm]
            if entries:
                mul_sums(sums, [(tk, nums.items())], self.den, entries, table.den)
        return reduced(sums)


class DerivativeTable(dict):
    """The derivatives of one polynomial p, each computed on first use:
    derivative part -> p's derivative in numerator form (algebra.numerators),
    over den, the lcm of p's coefficient denominators.  A derivative's
    coefficients are p's times the integers perm(e, order), and a part maps
    the monomials of p it keeps one-to-one, so each entry is read straight
    off p's rows.  top is p's top weighted degree (-1 for zero); a part
    heavier than top kills every monomial of p, so its entry is empty and p
    is not differentiated."""

    __slots__ = ("rows", "top", "den")

    def __init__(self, p: TimePolynomial):
        super().__init__()
        self.rows, self.den = numerators(p)
        self.top = max((pm.degree for pm in p.terms), default=-1)

    def __missing__(self, dm: TimeMonomial) -> list:
        terms = self[dm] = self.derivative(dm) if dm.degree <= self.top else []
        return terms

    def derivative(self, dm: TimeMonomial) -> list:
        """p's derivative by dm, the product of (d/dt_k)^order over its
        (k, order) pairs, in numerator form over den: a row survives when
        each exponent e of t_k, read by shift and mask, is >= order; its key
        loses dm's packed key and its numerators gain perm(e, order)."""
        if not dm:
            return self.rows
        fields = [(tfield(k), order) for k, order in dm]
        dkey = tpack(dm)
        out = []
        for pk, nums in self.rows:
            fac = 1
            for shift, order in fields:
                e = pk >> shift & TMASK
                if e < order:
                    break
                fac *= perm(e, order)
            else:
                out.append((pk - dkey, nums if fac == 1 else [(k, v * fac) for k, v in nums]))
        return out


# ---------------------------------------------------------------------------
# Heisenberg-Virasoro and cubic generators, as term lists: (1/n) sum :J_a1...J_an:
# over ordered nonzero indexes summing to k.  Indexes -A (J_{-a} = a t_a) and B
# (J_b = d/dt_b) give prod(A) t^A d^B, as do all n!/prod mult! orderings of the
# two multisets, so each (t^A, d^B) comes once at weight n!/prod mult! prod(A)/n.


def current(k: int) -> list:
    """J_k's terms: d/dt_k (k>0), none (k=0), -k t_{-k} (k<0)."""
    if k > 0:
        return [(1, MONO_ONE, TimeMonomial.var(k))]
    return [(-k, TimeMonomial.var(-k), MONO_ONE)] if k else []


@lru_cache(maxsize=None)
def _parts(total: int, count: int) -> tuple:
    """The multisets of count indexes summing to total, ascending, as (t-monomial,
    product of the indexes, product of the multiplicities' factorials): each is
    its smallest index a added to one of count - 1 indexes >= a."""
    if not count:
        return ((MONO_ONE, 1, 1),) if not total else ()
    out = []
    for a in range(1, total // count + 1):
        for mono, prod, mult in _parts(total - a, count - 1):
            b, e = mono[0] if mono else (a + 1, 0)
            if b >= a:
                e = e + 1 if b == a else 1  # an a already there raises its power
                out.append((TimeMonomial(((a, e),) + mono[e > 1:]), a * prod, mult * e))
    return tuple(out)


def _normal_power(n: int, k: int, bound: int) -> list:
    """(1/n) sum :J_a1...J_an: to derivative weight <= bound: p = n..0
    creation indexes A, n - p derivative indexes B, sum(B) - sum(A) = k."""
    terms, orderings = [], factorial(n)
    for p in range(n, -1, -1):
        for sb in range(max(k, 0), bound + 1):
            creations = _parts(sb - k, p)
            for dm, _, mb in _parts(sb, n - p) if creations else ():
                for tm, pa, ma in creations:
                    w = orderings // (ma * mb) * pa
                    terms.append((w // n if w % n == 0 else QQ(w, n), tm, dm))
    return terms


def virasoro(m: int, bound: int) -> list:
    """L_m's terms to derivative weight <= bound."""
    return _normal_power(2, m, bound)


def cubic(k: int, bound: int) -> list:
    """M_k's terms to derivative weight <= bound."""
    return _normal_power(3, k, bound)


# ---------------------------------------------------------------------------
# W3 constraint operators for the (generalized) higher BGW tau-functions


def c_constant(m: int, N) -> Coefficient:
    """C_{m,N} = m(m+2)/12 - N^2 m."""
    nc = n_coeff(N)
    return Coefficient.rational(QQ(m * (m + 2), 12)) - (nc * nc).scale(m)


def a_constant(m: int, N) -> Coefficient:
    """A_{m,N} = N (m-1)."""
    return n_coeff(N).scale(m - 1)


# the constraint kinds, in the order the constraint suite checks them, and the
# lowest index k of each
CONSTRAINT_KINDS = {"J": 1, "L": 0, "M": -1}


def constraint(m: int, N, kind: str, k: int, bound: int) -> dict[int, DiffOperator]:
    """The operator annihilating tau^(m,N), kind "J" (k>=1), "L" (k>=0) or
    "M" (k>=-1), as its h-graded parts: e -> the h-free operator that
    multiplies h^e, for e = 0 and the -1, -2 of the 1/h and 1/h^2 pieces,
    the delta_{k,0} constants included; a part that vanishes is left out.
    The whole operator is sum_e h^e parts[e].  N=0 gives the undeformed
    family."""
    k_lo = CONSTRAINT_KINDS.get(kind)
    if k_lo is None:
        raise ValueError(f"unknown constraint kind {kind!r}")
    if k < k_lo:
        raise ValueError(f"constraint index out of range: {kind} needs k >= {k_lo}")
    w = QQ(1, m + 1)
    n = (m + 1) * k
    cmn, amn = c_constant(m, N), a_constant(m, N)
    one = [(1, MONO_ONE, MONO_ONE)]
    if kind == "J":
        gens = [(0, w, current(n))]
    elif kind == "L":
        gens = [(0, w, virasoro(n, bound)), (-1, -w, current(n + m)),
                (0, cmn.scale(w / 2) if k == 0 else 0, one)]
    else:
        const = cmn.scale(QQ(1, 2)) + Coefficient.rational(QQ(m * m + 2 * m, 12))
        gens = [(0, w, cubic(n, bound)), (0, cmn.scale(w), current(n)),
                (0, amn.scale(-w), virasoro(n, bound)),
                (-1, -2 * w, virasoro(n + m, bound)), (-1, amn.scale(w), current(n + m)),
                (-2, w, current(n + 2 * m)),
                (0, amn.scale(-w / 3) * const if k == 0 else 0, one)]
    parts: dict[int, DiffOperator] = {}
    for e, c, terms in gens:
        if c:
            parts.setdefault(e, DiffOperator({})).add_scaled(c, terms)
    return {e: part for e, part in parts.items() if part}


def constraint_index_bound(m: int, max_degree: int) -> int:
    """Largest k for which some piece of the J/L/M constraint can act
    nontrivially on polynomials of weighted degree <= max_degree (the pure
    annihilator J_{(m+1)k} is the last to die)."""
    return max_degree // (m + 1)
