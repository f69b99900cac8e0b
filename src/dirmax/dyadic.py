"""Exact dyadic rational scalars: n / 2**e, canonical, no rounding anywhere."""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

_PARSE_RE = re.compile(r"^(-?\d+)(?:/2\^(\d+))?$")
_HASH_MODULUS = sys.hash_info.modulus


def _ordering(op):
    """An order comparison of a DyadicRational with a DyadicRational, int or
    Fraction, exact: numerators at a common exponent, or as Fractions.  Any
    other operand gives NotImplemented, so Python raises TypeError."""

    def compare(self, other):
        if isinstance(other, Fraction):
            return op(self.as_fraction(), other)
        other = _coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exp, other.exp)
        return op(self.num << (e - self.exp), other.num << (e - other.exp))

    return compare


class DyadicRational:
    """A rational with power-of-two denominator, kept in canonical form.

    Canonical form: exponent == 0, or numerator is odd; zero is 0/2^0.
    Plain integers therefore have exponent 0.  add/sub/mul are closed and
    exact; division raises unless the quotient is again dyadic.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        num, exp = operator.index(num), operator.index(exp)  # numpy ints to Python ints
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0 and num & 1 == 0:
            shift = min(exp, (num & -num).bit_length() - 1)  # trailing zero bits, at most exp
            num >>= shift
            exp -= shift
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):
        raise AttributeError("DyadicRational is immutable")

    # -- conversions --------------------------------------------------

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "DyadicRational":
        den = fr.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{fr} is not a dyadic rational")
        return cls(fr.numerator, exp)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return self.num / (1 << self.exp)

    # -- text form -----------------------------------------------------

    def render(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    @classmethod
    def parse(cls, text: str) -> "DyadicRational":
        m = _PARSE_RE.match(text.strip())
        if m is None:
            raise ValueError(f"not a dyadic rational literal: {text!r}")
        return cls(int(m.group(1)), int(m.group(2) or 0))

    def __repr__(self) -> str:
        return f"DyadicRational({self.num}, {self.exp})"

    def __str__(self) -> str:
        return self.render()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exp, other.exp)
        return DyadicRational(
            (self.num << (e - self.exp)) + (other.num << (e - other.exp)), e
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.exp, other.exp)
        return DyadicRational(
            (self.num << (e - self.exp)) - (other.num << (e - other.exp)), e
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return DyadicRational(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.num == 0:
            raise ZeroDivisionError("division by zero dyadic")
        fr = Fraction(self.num, 1) / Fraction(other.num, 1)
        den = fr.denominator
        shift = den.bit_length() - 1
        if den != 1 << shift:
            raise ValueError("quotient is not a dyadic rational")
        return DyadicRational(fr.numerator, self.exp - other.exp + shift)

    def __neg__(self):
        return DyadicRational(-self.num, self.exp)

    def __abs__(self):
        return DyadicRational(abs(self.num), self.exp)

    def __bool__(self) -> bool:
        return self.num != 0

    # -- comparisons (total order; Fraction comparisons supported) ------

    def __eq__(self, other):
        if isinstance(other, (Fraction, float)):  # exact, as Fraction compares a float
            return self.as_fraction() == other
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    __lt__ = _ordering(operator.lt)
    __le__ = _ordering(operator.le)
    __gt__ = _ordering(operator.gt)
    __ge__ = _ordering(operator.ge)

    def __hash__(self):
        # Python's numeric hash of num / 2^exp, so that equal ints and
        # Fractions hash equal (what Fraction.__hash__ computes)
        h = abs(self.num) % _HASH_MODULUS * pow(2, -self.exp, _HASH_MODULUS) % _HASH_MODULUS
        if self.num < 0:
            h = -h
        return -2 if h == -1 else h


def _coerce(value) -> DyadicRational | None:
    if isinstance(value, DyadicRational):
        return value
    if isinstance(value, int):
        return DyadicRational(value)
    return None
