"""Shared helpers: partitions, a monomial from its exponent dict
(monomial_of) and monomial enumeration, the
linear-independence marker trick for checking operator identities on a
whole degree window at once, one-term polynomials and the value of a plain
rational coefficient, the test-only views items_hnj, times_h and a Schur
table's coefficient, the pair-at-a-time references mul_into (products)
and derivative (differentiation), the term-by-term z-derivative dz of a
Laurent series with the zero test and equality of series, the
canonical-form check, the per-piece text references (split_terms,
reference_parse, term_texts, join_terms, reference_text), operators built
from their canonical view with equality, text, sums, scalings and products
(Op, operator_text), source mutants and the property check they must fail
(mutant, fails_its_property; rescale_skipped, the running-sum rescale
without its rescale loop), the whole constraint operator from its
h-graded parts, a generator's operator from its term list, the Euler
operator and commutators, and the paper's odd-index BGW cut-and-join
operator as a reference."""

from __future__ import annotations

import inspect
import re
import textwrap
import types
from math import gcd

from hypothesis import Phase, given, settings, strategies as st

from bgwtau.algebra import (
    COEFF_ONE,
    MONO_ONE,
    Coefficient,
    TimeMonomial,
    TimePolynomial,
    _canonical,
    _ckey,
    _cunpack,
    add_into,
    merged,
    rescaled,
)
from bgwtau.operators import DiffOperator
from bgwtau.rational import QQ
from bgwtau.zcalculus import LaurentSeries


def partitions(n: int, max_part: int | None = None):
    """Weakly decreasing tuples summing to n."""
    if n == 0:
        yield ()
        return
    top = n if max_part is None else min(n, max_part)
    for p in range(top, 0, -1):
        for rest in partitions(n - p, p):
            yield (p,) + rest


def monomial_of(d: dict[int, int]) -> TimeMonomial:
    """The monomial prod t_k^d[k] (zero exponents dropped)."""
    return TimeMonomial(sorted((k, e) for k, e in d.items() if e))


def monomials_up_to(maxdeg: int, variable_filter=None) -> list[TimeMonomial]:
    out = [TimeMonomial()]
    for n in range(1, maxdeg + 1):
        for mu in partitions(n):
            if variable_filter is not None and not all(variable_filter(p) for p in mu):
                continue
            d: dict[int, int] = {}
            for p in mu:
                d[p] = d.get(p, 0) + 1
            out.append(monomial_of(d))
    return out


def poly_term(coeff, mono: TimeMonomial) -> TimePolynomial:
    """The polynomial coeff * mono (zero when coeff is zero)."""
    c = coeff if isinstance(coeff, Coefficient) else Coefficient.rational(coeff)
    return TimePolynomial({mono: c} if c else {})


def items_hnj(c: Coefficient):
    """Iterate the ((h_exp, N_exp, j_exp), rational) pairs of c."""
    for k, v in c.terms.items():
        yield _cunpack(k), QQ(v, c.den)


def times_h(p: TimePolynomial, k: int) -> TimePolynomial:
    """p times h^k (k may be negative)."""
    return TimePolynomial({m: c.times_h(k) for m, c in p.terms.items()})


def coefficient(table, mu) -> Coefficient:
    """C_mu of a PlueckerTable, zero when mu is not stored."""
    return table.table.get(tuple(mu), Coefficient())


def mul_into(terms: dict, a: dict, b: dict) -> None:
    """terms += a * b in place, one pair at a time, for sparse sums whose keys
    and values multiply: the product reference, independent of the
    numerator-form kernel (each pair's product is one canonical value)."""
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            add_into(terms, k1 * k2, v1 * v2)


def derivative(p: TimePolynomial, d: TimeMonomial) -> TimePolynomial:
    """Partial derivative of p by a derivative monomial d, the product of
    (d/dt_k)^order over its (k, order) pairs: the reference for
    DerivativeTable, term by term through Coefficient.scale."""
    out: dict[TimeMonomial, Coefficient] = {}
    for m, c in p.terms.items():
        exps = dict(m)
        fac = 1
        for k, order in d:
            e = exps.get(k, 0)
            if e < order:
                break
            for i in range(order):
                fac *= e - i
            if e == order:
                del exps[k]
            else:
                exps[k] = e - order
        else:
            add_into(out, TimeMonomial(exps.items()), c.scale(fac))
    return TimePolynomial(out)


def dz(s: LaurentSeries) -> LaurentSeries:
    """d/dz of s, one coefficient at a time: the z^0 term drops out and the
    floor falls by one.  The reference for the derivative views of
    zcalculus._views."""
    return LaurentSeries({n - 1: c.scale(n) for n, c in s.coeffs.items() if n}, s.floor - 1)


def series_is_zero(s: LaurentSeries) -> bool:
    return not s.coeffs


def series_eq(a: LaurentSeries, b: LaurentSeries) -> bool:
    """a == b at and above the larger of their floors."""
    return series_is_zero(a - b)


def canonical_nonzero(c: Coefficient) -> bool:
    """c is nonzero, stores no zero numerator, and is in lowest terms over a
    positive denominator."""
    return (bool(c.terms) and c.den > 0 and gcd(c.den, *c.terms.values()) == 1
            and all(c.terms.values()))


def not_canonical(p: TimePolynomial) -> list:
    """The coefficients of p that are zero or not in lowest terms over a
    positive denominator."""
    return [c for c in p.terms.values() if not canonical_nonzero(c)]


def as_rational(c: Coefficient):
    """The value of a coefficient free of h, N and j, as a QQ."""
    out = QQ(0)
    for hnj, q in items_hnj(c):
        if hnj != (0, 0, 0):
            raise ValueError(f"coefficient is not a plain rational: {c!r}")
        out = q
    return out


# The text references: the per-piece parser and the per-atom renderer that
# algebra.parse_polynomial and algebra.canonical_text replace.


def split_terms(s: str) -> list[str]:
    """Split whitespace-free text into signed terms (inverse of join_terms);
    a '-' directly after '^' is an exponent sign, not a term boundary."""
    pieces, cur = [], ""
    for ch in s:
        if ch in "+-" and cur and not cur.endswith("^"):
            pieces.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch
    pieces.append(cur)
    return pieces


_TERM_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)((?:\*(?:t\d+|[hNj])(?:\^-?\d+)?)*)$")
_FACTOR_RE = re.compile(r"\*(t(\d+)|[hNj])(?:\^(-?\d+))?")


def reference_parse(text: str) -> TimePolynomial:
    """The canonical text grammar read one piece of split_terms at a time,
    each atom a canonical Coefficient added into its monomial."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return TimePolynomial.zero()
    out = TimePolynomial.zero()
    for piece in split_terms(s):
        mt = _TERM_RE.match(piece)
        if not mt:
            raise ValueError(f"bad term {piece!r}")
        num, _, den = mt.group(1).partition("/")
        p, r = int(num), int(den or 1)
        if not r:
            raise ZeroDivisionError(f"zero denominator in {piece!r}")
        h = n = j = 0
        tvars: dict[int, int] = {}
        for fm in _FACTOR_RE.finditer(mt.group(2)):
            name, tidx, exp = fm.group(1), fm.group(2), fm.group(3)
            e = int(exp) if exp is not None else 1
            if tidx is not None:
                k = int(tidx)
                if k < 1 or e < 1:
                    raise ValueError(f"bad t-factor in {piece!r}")
                tvars[k] = tvars.get(k, 0) + e
            elif name == "h":
                h += e
            elif name == "N":
                if e < 0:
                    raise ValueError("negative N exponent")
                n += e
            else:
                if e < 0:
                    raise ValueError("negative j exponent")
                j += e
        add_into(out.terms, monomial_of(tvars), _canonical({_ckey(h, n, j): p}, r))
    return out


def term_texts(p: TimePolynomial) -> list[str]:
    """The signed term strings of p in canonical order, one per atom: h
    ascending, weighted degree ascending, lexicographic on the (variable,
    exponent) pairs, then N- and j-exponent descending."""
    atoms = []
    for m, c in p.terms.items():
        for k, v in c.terms.items():
            h, n, j = _cunpack(k)
            atoms.append(((h, m.degree, m, -n, -j), (h, n, j, m, v, c.den)))
    out = []
    for _, (h, n, j, m, v, den) in sorted(atoms, key=lambda kv: kv[0]):
        g = gcd(v, den)
        s = f"{v // g}/{den // g}"
        for name, e in (("h", h), ("N", n), ("j", j), *((f"t{k}", e) for k, e in m)):
            if e:
                s += f"*{name}" + (f"^{e}" if e != 1 else "")
        out.append(s)
    return out


def join_terms(bits: list[str]) -> str:
    """Join signed term strings into one text; no terms gives "0"."""
    out = []
    for b in bits:
        if out and not b.startswith("-"):
            out.append("+")
        out.append(b)
    return "".join(out) or "0"


def reference_text(p: TimePolynomial) -> str:
    return join_terms(term_texts(p))


# Random polynomials (Hypothesis): coefficients of one to three atoms with
# mixed denominators, h^-2..h^2 and powers of N and j; monomials in t1..t4.
coefficients = st.lists(
    st.builds(Coefficient.monomial,
              st.fractions(min_value=-6, max_value=6, max_denominator=12).filter(bool),
              h=st.integers(-2, 2), n=st.integers(0, 2), j=st.integers(0, 2)),
    min_size=1, max_size=3).map(lambda cs: sum(cs[1:], cs[0]))
monomials = st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=3).map(
    monomial_of)


@st.composite
def polynomials(draw):
    """A random polynomial (same-monomial terms merge, some cancel), or the
    zero or unit polynomial."""
    kind = draw(st.sampled_from(("zero", "one", "random", "random")))
    if kind != "random":
        return TimePolynomial.zero() if kind == "zero" else TimePolynomial.one()
    p = TimePolynomial.zero()
    for mono, c in draw(st.lists(st.tuples(monomials, coefficients), max_size=6)):
        add_into(p.terms, mono, c)
    return p


def mutant(fn, old: str, new: str = ""):
    """fn (a function or a method) with one fragment of its source replaced;
    its globals stay fn's live module, so a name patched there reaches it."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1
    namespace = dict(fn.__globals__)
    exec(source.replace(old, new), namespace)
    return types.FunctionType(namespace[fn.__name__].__code__, fn.__globals__, fn.__name__,
                              fn.__defaults__)


def rescale_skipped():
    """algebra.rescaled without its rescale loop: it raises a running
    denominator but leaves the numerators held over the old one.  Every
    product sum calls it through its own module's name, where a control
    patches it."""
    return mutant(rescaled, "        for k in nums:\n            nums[k] *= up\n")


def fails_its_property(test, *strategies, max_examples: int = 300) -> bool:
    """Whether a Hypothesis property fails on its strategies, drawn
    deterministically; the first failure is enough."""
    check = settings(max_examples=max_examples, deadline=None, database=None, derandomize=True,
                     phases=[Phase.generate], report_multiple_bugs=False)(
        given(*strategies)(test.hypothesis.inner_test))
    try:
        check()
    except AssertionError:
        return True
    return False


def marker_poly(monomials) -> TimePolynomial:
    """sum_i j^i * m_i: operator linearity makes one application on this
    polynomial equivalent to applications on every monomial separately."""
    p = TimePolynomial({})
    for i, m in enumerate(monomials):
        add_into(p.terms, m, Coefficient.monomial(1, j=i))
    return p


class Op(DiffOperator):
    """A DiffOperator with the operator algebra that only tests use: built
    from a canonical view {(tpart, dpart): Coefficient} (DiffOperator.terms),
    equality and text on that view, sums, scalings and the normal-ordered
    product."""

    __slots__ = ()

    def __init__(self, terms=None):
        super().__init__()
        for (tm, dm), c in (terms or {}).items():
            self.add_term(c, tm, dm)

    def __eq__(self, other):
        return isinstance(other, DiffOperator) and self.terms == other.terms

    def __repr__(self):
        return operator_text(self)

    @classmethod
    def of(cls, op: DiffOperator) -> "Op":
        return cls(op.terms)

    @classmethod
    def zero(cls) -> "Op":
        return cls({})

    @classmethod
    def identity(cls, coeff=None) -> "Op":
        c = coeff if coeff is not None else COEFF_ONE
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        return cls({(MONO_ONE, MONO_ONE): c} if c else {})

    def __add__(self, other: DiffOperator) -> "Op":
        return Op(merged(self.terms, other.terms))

    def __neg__(self) -> "Op":
        return Op({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: DiffOperator) -> "Op":
        return self + (-Op.of(other))

    def scale(self, c) -> "Op":
        """Multiply by a coefficient; a nonzero c cannot cancel a term."""
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        return Op({k: c0 * c for k, c0 in self.terms.items()} if c else {})

    def compose(self, other: DiffOperator) -> "Op":
        """self after other, normal-ordered (self's derivatives Leibniz across
        other's t-part)."""
        out: dict[tuple[TimeMonomial, TimeMonomial], Coefficient] = {}
        for (tA, dA), cA in self.terms.items():
            for (tB, dB), cB in other.terms.items():
                c0 = cA * cB
                # distribute each derivative of dA over tB or pass it through
                splits = [(1, dict(tB), {})]
                for k, a in dA:
                    new = []
                    for fac, texps, dpass in splits:
                        e = texps.get(k, 0)
                        top = min(a, e)
                        binom = 1
                        ffac = 1
                        for i in range(top + 1):
                            if i:
                                binom = binom * (a - i + 1) // i
                                ffac *= e - i + 1
                            t2 = dict(texps)
                            if i:
                                if e == i:
                                    del t2[k]
                                else:
                                    t2[k] = e - i
                            d2 = dict(dpass)
                            if a - i:
                                d2[k] = a - i
                            new.append((fac * binom * ffac, t2, d2))
                    splits = new
                for fac, texps, dpass in splits:
                    tpart = tA * TimeMonomial(sorted(texps.items()))
                    dd = dict(dB)
                    for k, o in dpass.items():
                        dd[k] = dd.get(k, 0) + o
                    dpart = TimeMonomial(sorted(dd.items()))
                    add_into(out, (tpart, dpart), c0.scale(fac))
        return Op(out)


def operator_text(op: DiffOperator) -> str:
    """Serialize in the polynomial text grammar extended with d<k> factors
    for d/dt_k (normal-ordered: all d-factors after the t- and scalar
    factors).  Deterministic: terms sorted by (dpart, tpart, coefficient
    key)."""
    bits = []
    for (tm, dm), c in sorted(
        op.terms.items(), key=lambda kv: (kv[0][1], kv[0][0])
    ):
        dsuffix = "".join(f"*d{k}" + (f"^{e}" if e > 1 else "") for k, e in dm)
        bits.extend(atom + dsuffix for atom in term_texts(TimePolynomial({tm: c})))
    return join_terms(bits)


def whole(parts: dict) -> Op:
    """sum_e h^e parts[e]: a constraint operator from its h-graded parts."""
    op = Op()
    for e, part in parts.items():
        op = op + Op.of(part).scale(Coefficient.monomial(1, h=e))
    return op


def op_of(terms) -> Op:
    """The operator of a generator's (weight, tpart, dpart) term list."""
    op = Op()
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
    return Op.of(a).compose(b) - Op.of(b).compose(a)


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
