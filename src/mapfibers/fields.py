"""Exact coefficient fields: the rationals and prime fields GF(p).

Coefficients are stored as plain Python values (Fraction for QQ, int
residues in [0, p) for GF(p)); the field object supplies the arithmetic.
"""

from __future__ import annotations

import sys
from fractions import Fraction

# A prime modulus must lie below this: primality is tested by trial division
# and `solve` finds roots over GF(p) by trying every element.
PRIME_CAP = 1 << 16


class CoefficientTooLongError(ValueError):
    """A coefficient cannot be printed: it is past the interpreter's limit
    on int/str conversion (4300 digits by default since Python 3.10.7)."""


class Field:
    """Common interface for exact coefficient arithmetic."""

    name: str

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def div(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        return not a

    def characteristic(self) -> int:
        return 0

    def parse(self, text: str):
        """Parse an integer or a/b literal into a field element."""
        raise NotImplementedError

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self) -> str:
        return self.name


class RationalField(Field):
    """Arbitrary-precision rationals in canonical reduced form."""

    name = "QQ"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        return Fraction(a) / b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero in QQ")
        return 1 / Fraction(a)

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def parse(self, text: str):
        return Fraction(text)

    def to_str(self, a) -> str:
        try:
            return str(a)
        except ValueError:      # the only failure of str on a Fraction
            raise CoefficientTooLongError(
                "a computed coefficient is past the interpreter's limit of "
                f"{sys.get_int_max_str_digits()} digits for integer string "
                "conversion") from None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    """Integers mod a prime p, residues normalized to [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_CAP:
            raise ValueError(f"modulus {p} is not below the cap {PRIME_CAP}")
        if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n: int):
        return n % self.p

    def characteristic(self) -> int:
        return self.p

    def parse(self, text: str):
        if "/" in text:
            num, den = text.split("/")
            return self.div(int(num) % self.p, int(den) % self.p)
        return int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()
