"""Exact rational scalars at the boundaries of the engine.

QQ is fractions.Fraction.  Polynomial arithmetic does not use it:
algebra.Coefficient keeps integer numerators over one common denominator.
QQ appears only where a single rational goes in or comes out: the
arguments of Coefficient.rational/monomial/scale, parsed N values, and
scalar tables such as zcalculus._exp_table.
"""

from fractions import Fraction as QQ


def rat_str(q) -> str:
    """Canonical p/q form, lowest terms, explicit denominator."""
    return f"{q.numerator}/{q.denominator}"
