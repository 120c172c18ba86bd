"""Exact rational scalars at the boundaries of the engine.

QQ is gmpy2.mpq when available, else fractions.Fraction.  Polynomial
arithmetic does not use it: algebra.Coefficient keeps integer numerators
over one common denominator.  QQ appears only where a single rational goes
in or comes out: the arguments of Coefficient.rational/monomial/scale,
parsed N values, and scalar tables such as zcalculus._exp_table.  Only the
API shared by both types is used: construction from ints/strings,
arithmetic, comparison, hashing, .numerator/.denominator (read through
int(), so an mpq works too).
"""

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def rat_str(q) -> str:
    """Canonical p/q form, lowest terms, explicit denominator."""
    return f"{q.numerator}/{q.denominator}"
