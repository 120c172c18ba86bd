"""Sparse exact polynomial arithmetic over QQ[N,j][h,h^-1] in the KP times.

Representation:

  Coefficient     integer numerators over one common denominator: terms,
                  a dict packed (h_exp, N_exp, j_exp) -> nonzero int, and
                  den > 0 with gcd(den, *numerators) == 1; zero is {} over
                  1.  The form is canonical, so == and hash are structural.
                  h_exp may be negative (constraint operators carry 1/h and
                  1/h^2); N_exp and j_exp are >= 0.  Arithmetic is plain
                  int arithmetic; rational.QQ appears only at the
                  boundaries (see Coefficient).
  TimeMonomial    a tuple subclass: sorted pairs ((k, e), ...) for t_k^e
                  with k >= 1, e >= 1; the empty tuple is the unit
                  monomial.  weighted degree is sum k*e.
  TimePolynomial  dict TimeMonomial -> Coefficient, no zero coefficients;
                  this storage is what callers read.
  numerator form  rows (tkey, [(key, numerator), ...]) over one
                  denominator, tkey the monomial packed into one int
                  (tpack): what the product kernel (mul_sums, reduced)
                  multiplies, in plain ints, a monomial product being one
                  int addition and each output coefficient reduced once.

Running sums.  Every sum of products (mul_sums, zcalculus._product_sum,
the schur column step) keeps a running sum [D, {key: numerator}] per
output key.  A product over d adds its numerators times D/d; a d that does
not divide D first raises D to lcm(D, d), rescaling the held numerators
(rescaled, called only when d != D).  Zeros and cancelled keys stay until
settled reduces each key once, at the end, to a canonical Coefficient
(_canonical drops zero numerators) and leaves out the keys that cancel.

Binding.  Coefficient.bind(shift, powers) sets the variable whose exponent
field starts at bit shift (_NSHIFT for N, 0 for j) to a value V, given the
table powers = [V^0, V^1, ...].  substitute binds N to a rational;
zcalculus.phi_terms builds the powers of the bound j once per basis-vector
series and binds every coefficient from that table.

All arithmetic is exact; there is no floating point anywhere in this module.

Canonical text (also the golden-file and cache format):

  text    ::= ['+'|'-'] term {('+' | '++' | '+-' | '-') term}
  term    ::= INT ['/' INT] {'*' factor}
  factor  ::= ('t'INT | 'h' | 'N' | 'j') ['^' ['-'] INT]      INT ::= digits

Whitespace is ignored, a bare integer is a rational, factors may come in
any order and repeated factors add; t-indices and t-exponents are >= 1,
N- and j-exponents >= 0, h-exponents may be negative.  The first faulty
term raises: ZeroDivisionError for a zero denominator, else ValueError.
The printer writes "p/q" in lowest terms, then h, N, j and t_k by
increasing k; zero is "0".  Each direction is one pass per polynomial:
canonical_text sorts the monomials once and the atoms by one int key;
parse_polynomial makes one anchored match per atom and one Coefficient
per monomial.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .rational import QQ

INHOMOGENEOUS = "inhomogeneous"

# Exponent triples (h_exp, N_exp, j_exp) are packed into one int so that
# multiplying monomials is a single integer addition:
#   key = (h_exp + 2^15) << 32 | N_exp << 16 | j_exp
# h_exp may be negative (|h_exp| < 2^15); N_exp, j_exp in [0, 2^16).
_HOFF = 1 << 15
_HBASE = _HOFF << 32
_NSHIFT = 16  # the bit where N_exp's field starts; j_exp's starts at 0
_MASK16 = (1 << 16) - 1


def _ckey(h: int, n: int, j: int) -> int:
    if not (-_HOFF < h < _HOFF and 0 <= n < _MASK16 and 0 <= j < _MASK16):
        raise ValueError(f"exponent out of packing range: {(h, n, j)}")
    return ((h + _HOFF) << 32) | (n << _NSHIFT) | j


def _cunpack(key: int) -> tuple[int, int, int]:
    return (key >> 32) - _HOFF, (key >> _NSHIFT) & _MASK16, key & _MASK16


_KEY1 = _ckey(0, 0, 0)

# t-monomials in numerator form are packed into one int, the exponent of t_k
# in the _TBITS-bit field at bit _TBITS*(k-1).  Every packed operand of the
# product kernel is tpack output, a derivative of one, or 0, so its
# exponents stay below _TMAX, half the field: the sum of two never carries
# into the next field.  A product is never packed again before tunpack.
_TBITS = 16
_TMAX = 1 << (_TBITS - 1)
TMASK = (1 << _TBITS) - 1


def tpack(m) -> int:
    """The packed key of a TimeMonomial; ValueError for an exponent >= _TMAX."""
    key = 0
    for k, e in m:
        if e >= _TMAX:
            raise ValueError(f"t-exponent out of packing range: t{k}^{e}")
        key |= e << (_TBITS * (k - 1))
    return key


def tunpack(key: int) -> "TimeMonomial":
    """The TimeMonomial of a packed key (a product of two packed operands
    included), one field per variable up to the highest one set."""
    pairs = []
    k = 0
    while key:
        k += 1
        e = key & TMASK
        if e:
            pairs.append((k, e))
        key >>= _TBITS
    return TimeMonomial(pairs)


def tfield(k: int) -> int:
    """The bit offset of t_k's exponent in a packed key: the exponent is
    key >> tfield(k) & TMASK."""
    return _TBITS * (k - 1)


# The sparse-sum kernel.  Every exact linear combination in the engine is a
# dict key -> nonzero value; these functions keep it canonical: a zero is
# never stored and a key whose sum cancels is deleted.


def add_into(terms: dict, key, value) -> None:
    """terms[key] += value in place, keeping terms canonical."""
    cur = terms.get(key)
    if cur is None:
        if value:
            terms[key] = value
    else:
        s = cur + value
        if s:
            terms[key] = s
        else:
            del terms[key]


def merged(a: dict, b: dict) -> dict:
    """The canonical sum of two canonical sparse sums, as a new dict; a and b
    are not modified.  The add_into loop is inlined: this is the hot path of
    Coefficient.__add__."""
    out = dict(a)
    get = out.get
    for k, v in b.items():
        s = get(k)
        if s is None:
            out[k] = v
        else:
            s = s + v
            if s:
                out[k] = s
            else:
                del out[k]
    return out


class Coefficient:
    """Element of QQ[N,j][h,h^-1]: integer numerators over one common
    denominator, the value sum(terms[key] * h^a N^b j^c) / den with
    key = _ckey(a, b, c).

    Canonical form, so == and hash are structural: no zero numerator,
    den > 0, gcd(den, *numerators) == 1, and zero is {} over 1.  Every
    operation below returns a canonical Coefficient; rationals (rational.QQ)
    appear only at the boundaries: the rational/monomial/scale arguments."""

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den: int = 1):
        # terms/den must already be canonical; _canonical() makes them so
        self.terms: dict[int, int] = terms if terms is not None else {}
        self.den = den

    @classmethod
    def rational(cls, q) -> "Coefficient":
        p, r = _ratio(q)
        return _canonical({_KEY1: p}, r)

    @classmethod
    def monomial(cls, q, h: int = 0, n: int = 0, j: int = 0) -> "Coefficient":
        if n < 0 or j < 0:
            raise ValueError("N and j exponents must be nonnegative")
        p, r = _ratio(q)
        return _canonical({_ckey(h, n, j): p}, r)

    @classmethod
    def one(cls) -> "Coefficient":
        return cls({_KEY1: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coefficient):
            if not isinstance(other, (int, str)) and not hasattr(other, "denominator"):
                return NotImplemented
            try:
                other = Coefficient.rational(other)
            except (ValueError, ZeroDivisionError):
                return False  # a string that names no rational
        return self.den == other.den and self.terms == other.terms

    def __hash__(self):
        return hash((self.den, frozenset(self.terms.items())))

    def __add__(self, other: "Coefficient") -> "Coefficient":
        da, db = self.den, other.den
        if da == db:
            return _canonical(merged(self.terms, other.terms), da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        return _canonical(merged({k: v * ma for k, v in self.terms.items()},
                                 {k: v * mb for k, v in other.terms.items()}), da * ma)

    def __neg__(self) -> "Coefficient":
        return Coefficient({k: -v for k, v in self.terms.items()}, self.den)

    def __sub__(self, other: "Coefficient") -> "Coefficient":
        return self + (-other)

    def __mul__(self, other) -> "Coefficient":
        if not isinstance(other, Coefficient):
            return self.scale(other)
        a, b = self, other
        if not a.terms or not b.terms:
            return Coefficient({})
        if len(b.terms) < len(a.terms):
            a, b = b, a
        if len(a.terms) == 1:
            (ka, va), = a.terms.items()
            return _scaled(b.terms, b.den, va, a.den, ka - _HBASE)
        out: dict[int, int] = {}
        _mul_nums(out, a.terms.items(), list(b.terms.items()))
        return _canonical(out, a.den * b.den)

    __rmul__ = __mul__

    def scale(self, q) -> "Coefficient":
        p, r = _ratio(q)
        if not p or not self.terms:
            return Coefficient({})
        return _scaled(self.terms, self.den, p, r, 0)

    def times_h(self, k: int) -> "Coefficient":
        """Multiply by h^k (k may be negative)."""
        off = k << 32
        return Coefficient({key + off: v for key, v in self.terms.items()}, self.den)

    def h_part(self, p: int) -> "Coefficient":
        """Terms multiplying h^p, with the h-power stripped."""
        off = p << 32
        return _canonical(
            {k - off: v for k, v in self.terms.items() if (k >> 32) - _HOFF == p}, self.den
        )

    def substitute(self, n) -> "Coefficient":
        """The value at N = n, a rational."""
        q, hi = QQ(n), max((k >> _NSHIFT & _MASK16 for k in self.terms), default=0)
        return self.bind(_NSHIFT, [Coefficient.rational(q ** e) for e in range(hi + 1)])

    def bind(self, shift: int, powers: list) -> "Coefficient":
        """The value at V of the variable whose exponent field starts at bit
        shift (_NSHIFT for N, 0 for j), given powers = [V^0, V^1, ...] up to
        at least its degree in self.  Every numerator is brought over the
        denominator of the top power used: for V = (c/d) f with f primitive,
        V^e has denominator exactly d^e, so each lower one divides it."""
        mask = _MASK16 << shift
        den = powers[max((k & mask for k in self.terms), default=0) >> shift].den
        out: dict[int, int] = {}
        for k, v in self.terms.items():
            f = k & mask
            vp = powers[f >> shift]
            v *= den // vp.den
            off = k - f - _HBASE
            for kv, w in vp.terms.items():
                add_into(out, kv + off, v * w)
        return _canonical(out, self.den * den)

    def __repr__(self):
        return _terms_text([(v, self.den, _hnj_text(k)) for k, v in sorted(self.terms.items())])


def _ratio(q) -> tuple[int, int]:
    """(p, r), q = p/r in lowest terms with r > 0, for an int, a QQ, or
    anything QQ() accepts."""
    if not hasattr(q, "denominator"):
        q = QQ(q)
    return q.numerator, q.denominator


def _canonical(terms: dict, den: int) -> Coefficient:
    """The Coefficient terms/den in lowest terms, den > 0; zero numerators
    are dropped."""
    if not all(terms.values()):
        terms = {k: v for k, v in terms.items() if v}
    if not terms:
        return Coefficient({})
    if den != 1:
        g = gcd(den, *terms.values())
        if g != 1:
            return Coefficient({k: v // g for k, v in terms.items()}, den // g)
    return Coefficient(terms, den)


def _mul_nums(out: dict, a_items, b_items, r: int = 1) -> None:
    """out += r * (a) * (b) in place for numerator sums over packed keys:
    each pair adds r * v1 * v2 at k1 + k2 - _HBASE (the h offsets add).
    Plain int sums with no reduction, so out may end with zero entries;
    b_items is iterated once per item of a_items."""
    get = out.get
    for k1, v1 in a_items:
        off = k1 - _HBASE
        v1 *= r
        for k2, v2 in b_items:
            k = k2 + off
            s = get(k)
            out[k] = v1 * v2 if s is None else s + v1 * v2


def _scaled(terms: dict, den: int, p: int, r: int, off: int) -> Coefficient:
    """(p/r) * (terms/den) with every key shifted by off; terms/den is
    canonical and nonzero, p != 0, r > 0, gcd(p, r) == 1.  The common
    factors cancel crosswise before multiplying, as in Fraction.__mul__:
    p against den and r against the numerators' content."""
    g = gcd(p, den)
    if g != 1:
        p //= g
        den //= g
    if r != 1:
        g = gcd(r, *terms.values())
        if g != 1:
            r //= g
            return Coefficient({k + off: v // g * p for k, v in terms.items()}, den * r)
    return Coefficient({k + off: v * p for k, v in terms.items()}, den * r)


COEFF_ONE = Coefficient.one()


class TimeMonomial(tuple):
    """Monomial in the times t_1, t_2, ...: a tuple of sorted (variable
    index, positive exponent) pairs, so it hashes and compares as one."""

    __slots__ = ()

    @classmethod
    def var(cls, k: int, e: int = 1) -> "TimeMonomial":
        if k < 1 or e < 1:
            raise ValueError("variable index and exponent must be positive")
        return cls(((k, e),))

    @property
    def exps(self) -> "TimeMonomial":
        """The (k, e) pairs: the monomial itself."""
        return self

    @property
    def degree(self) -> int:
        return sum(k * e for k, e in self)

    def __mul__(self, other: "TimeMonomial") -> "TimeMonomial":
        if not self:
            return other
        if not other:
            return self
        d = dict(self)
        for k, e in other:
            d[k] = d.get(k, 0) + e
        return TimeMonomial(sorted(d.items()))

    def __repr__(self):
        if not self:
            return "1"
        return "*".join(f"t{k}" + (f"^{e}" if e > 1 else "") for k, e in self)


MONO_ONE = TimeMonomial()


class TimePolynomial:
    """Sparse polynomial in the times over QQ[N,j][h,h^-1]."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict[TimeMonomial, Coefficient] = terms if terms is not None else {}

    @classmethod
    def zero(cls) -> "TimePolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "TimePolynomial":
        return cls({MONO_ONE: Coefficient.one()})

    @classmethod
    def constant(cls, c) -> "TimePolynomial":
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        return cls({MONO_ONE: c} if c else {})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, TimePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "TimePolynomial") -> "TimePolynomial":
        return TimePolynomial(merged(self.terms, other.terms))

    def __neg__(self) -> "TimePolynomial":
        return TimePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TimePolynomial") -> "TimePolynomial":
        return self + (-other)

    def __mul__(self, other: "TimePolynomial") -> "TimePolynomial":
        sums: dict = {}
        mul_sums(sums, *numerators(self), *numerators(other))
        return reduced(sums)

    def scale(self, c) -> "TimePolynomial":
        """Multiply by a coefficient; a nonzero c cannot cancel a term
        (QQ[N,j][h,1/h] has no zero divisors)."""
        c = c if isinstance(c, Coefficient) else Coefficient.rational(c)
        if not c:
            return TimePolynomial({})
        return TimePolynomial({m: c0 * c for m, c0 in self.terms.items()})

    def h_parts(self) -> dict[int, "TimePolynomial"]:
        """{p: the polynomial multiplying h^p, its h-power stripped} for
        every h-power p present, in one pass over the coefficients."""
        parts: dict[int, dict] = {}
        for m, c in self.terms.items():
            for p in {(k >> 32) - _HOFF for k in c.terms}:
                parts.setdefault(p, {})[m] = c.h_part(p)
        return {p: TimePolynomial(terms) for p, terms in parts.items()}

    def variables(self) -> set[int]:
        out: set[int] = set()
        for m in self.terms:
            out.update(k for k, _ in m)
        return out

    def substitute(self, n) -> "TimePolynomial":
        """The polynomial at N = n, a rational."""
        return TimePolynomial({m: b for m, c in self.terms.items() if (b := c.substitute(n))})

    def __repr__(self):
        return canonical_text(self)


# ---------------------------------------------------------------------------
# The product kernel on polynomials in numerator form (module docstring).


def numerators(p: TimePolynomial) -> tuple[list, int]:
    """(rows, den): p in numerator form over den, the lcm of its coefficient
    denominators."""
    den = lcm(*(c.den for c in p.terms.values()))
    return [(tpack(m), [(k, v * (den // c.den)) for k, v in c.terms.items()])
            for m, c in p.terms.items()], den


ONE_ROWS = [(0, [(_KEY1, 1)])]  # the polynomial 1 in numerator form over 1


def rescaled(acc: list, d: int) -> int:
    """D/d for adding a product over d into the running sum acc = [D, nums]
    (module docstring); a d that does not divide D first raises D to
    lcm(D, d), rescaling the held numerators."""
    den, nums = acc
    if den % d:
        up = d // gcd(den, d)
        for k in nums:
            nums[k] *= up
        den = acc[0] = den * up
    return den // d


def mul_sums(sums: dict, a: list, da: int, b: list, db: int, w: int = 1) -> None:
    """sums += w * (a/da) * (b/db) in place, a and b in numerator form:
    sums maps each packed output monomial to its running sum [D, {key:
    numerator}] (module docstring); b is iterated once per row of a."""
    d = da * db
    get = sums.get
    for ma, na in a:
        for mb, nb in b:
            mono = ma + mb
            acc = get(mono)
            if acc is None:
                acc = sums[mono] = [d, {}]
            _mul_nums(acc[1], na, nb, w if acc[0] == d else rescaled(acc, d) * w)


def settled(sums: dict) -> dict:
    """{key: Coefficient} of a dict of running sums, each reduced once; a
    key whose sum cancels is left out."""
    return {key: c for key, (den, nums) in sums.items() if (c := _canonical(nums, den))}


def reduced(sums: dict) -> TimePolynomial:
    """The polynomial of mul_sums' running sums, its monomials unpacked."""
    return TimePolynomial({tunpack(tkey): c for tkey, c in settled(sums).items()})


# ---------------------------------------------------------------------------
# spec-level operations


def weighted_degree(p: TimePolynomial):
    """Common weighted degree of all terms (deg t_k = k), the string
    "inhomogeneous" if terms disagree; the zero polynomial has no degree."""
    if not p.terms:
        raise ValueError("undefined degree: zero polynomial")
    degs = {m.degree for m in p.terms}
    return degs.pop() if len(degs) == 1 else INHOMOGENEOUS


def _hnj_text(key: int) -> str:
    """The h, N and j factors of a packed key ("*h^-2*N")."""
    s = ""
    for name, e in zip("hNj", _cunpack(key)):
        if e:
            s += f"*{name}^{e}" if e != 1 else f"*{name}"
    return s


def _terms_text(atoms) -> str:
    """The (numerator, denominator, factor text) atoms as signed terms
    "p/q<factors>", p/q in lowest terms; no atoms give "0"."""
    bits = [f"{'+' if v > 0 else ''}{v // (g := gcd(v, den))}/{den // g}{f}" for v, den, f in atoms]
    return "".join(bits).removeprefix("+") or "0"


_LOW32 = (1 << 32) - 1


def canonical_text(p: TimePolynomial) -> str:
    """Deterministic serialization; parses back to an equal polynomial.
    Atoms go by h ascending, then monomial (weighted degree, then its (k, e)
    pairs), then N and j descending: the monomials are sorted once, and an
    atom's order is one int, (h, rank) over the complement of its (N, j)."""
    monos = sorted(p.terms, key=lambda m: (m.degree, m))
    rows = []
    tfactors: dict[tuple, str] = {}  # (k, e) -> "*t<k>^<e>"
    for rank, m in enumerate(monos):
        suffix = ""
        for ke in m:
            t = tfactors.get(ke)
            if t is None:
                t = tfactors[ke] = f"*t{ke[0]}^{ke[1]}" if ke[1] != 1 else f"*t{ke[0]}"
            suffix += t
        c = p.terms[m]
        for key, v in c.terms.items():
            rows.append(((((key >> 32) * len(monos) + rank) << 32) - (key & _LOW32),
                         key, v, c.den, suffix))
    rows.sort()  # the orders are distinct: only they are compared
    hnj = {key: _hnj_text(key) for key in {row[1] for row in rows}}
    return _terms_text([(v, den, hnj[key] + suffix) for _, key, v, den, suffix in rows])


# One atom: its sign ('+', '++', '+-' or '-'; the text is read with a '+' in
# front, so the first atom's optional sign is a separator too), rational and
# factors, up to the next separator or the end.
_ATOM_RE = re.compile(r"(\+[+-]?|-)(\d+)(?:/(\d+))?((?:\*(?:t\d+|[hNj])(?:\^-?\d+)?)*)(?=[+-]|\Z)")
_SLOTS = {"h": 0, "N": -1, "j": -2}  # a factor's variable is k >= 1 for t_k, -i for [h, N, j][i]


def _read_factors(text: str, tokens: dict) -> tuple[int, TimeMonomial]:
    """(packed h/N/j key, t-monomial) of a factor string that _ATOM_RE
    matched; repeated factors add.  tokens holds the (variable, exponent)
    of each factor token read so far in this parse."""
    hnj = [0, 0, 0]
    tvars: dict[int, int] = {}
    for tok in text.split("*")[1:]:
        ke = tokens.get(tok)
        if ke is None:
            name, _, exp = tok.partition("^")
            e = int(exp) if exp else 1
            if name[0] == "t":
                k = int(name[1:])
                if k < 1 or e < 1:
                    raise ValueError(f"bad t-factor {tok!r}")
            elif e < 0 and name != "h":
                raise ValueError(f"negative {name} exponent")
            else:
                k = _SLOTS[name]
            ke = tokens[tok] = k, e
        k, e = ke
        if k > 0:
            tvars[k] = tvars.get(k, 0) + e
        else:
            hnj[-k] += e
    return _ckey(*hnj), TimeMonomial(sorted(tvars.items()))


def parse_polynomial(text: str) -> TimePolynomial:
    """Parse canonical text (module docstring): one anchored match per atom,
    each distinct factor string read once, and each monomial's atoms summed
    as numerators over the lcm of their denominators into one Coefficient."""
    s = "+" + "".join(text.split())
    pos, end = 0, len(s)
    match = _ATOM_RE.match
    factors: dict[str, tuple] = {}  # factor string -> (key, atoms of its monomial)
    tokens: dict[str, tuple] = {}
    monos: dict[TimeMonomial, list] = {}  # monomial -> [(key, p, r), ...]
    while pos < end:
        mt = match(s, pos)
        if mt is None:
            raise ValueError(f"bad term at {s[pos:pos + 32]!r}")
        sign, num, den, ftext = mt.groups()
        p = int(num)
        r = int(den) if den else 1
        if not r:
            raise ZeroDivisionError(f"zero denominator in {mt.group()!r}")
        f = factors.get(ftext)
        if f is None:
            key, mono = _read_factors(ftext, tokens)
            f = factors[ftext] = key, monos.setdefault(mono, [])
        f[1].append((f[0], -p if sign[-1] == "-" else p, r))
        pos = mt.end()
    out: dict[TimeMonomial, Coefficient] = {}
    for mono, atoms in monos.items():
        den = lcm(*[atom[2] for atom in atoms])
        nums: dict[int, int] = {}
        for key, p, r in atoms:
            nums[key] = nums.get(key, 0) + p * (den // r)
        c = _canonical(nums, den)
        if c:
            out[mono] = c
    return TimePolynomial(out)
