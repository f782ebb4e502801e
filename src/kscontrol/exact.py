"""Exact arithmetic for critical-set decisions.

Every quantity entering the critical-value equation
``nu = 2*mu_j + pi^2 (k^2 + l^2) / a^2`` lives in the module
Q + Q*pi^2 whenever the user supplies rational data:

* lengths are rational multiples of 1 or of pi (``"pi"``, ``"pi/2"``, ``"3/4"``),
* mu values on boxes are sums (m_i pi / b_i)^2, hence in Q + Q*pi^2,
* nu is rational.

`ExactScalar` stores the pair (rat, pi2) meaning ``rat + pi2 * pi**2`` and
supports the exact arithmetic the dichotomy needs.  Anything the
user supplies as a bare float is non-exact and only ever compared within
tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

@dataclass(frozen=True)
class ExactScalar:
    """A value ``rat + pi2 * pi**2`` with Fraction coefficients."""

    rat: Fraction = Fraction(0)
    pi2: Fraction = Fraction(0)

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.rat + other.rat, self.pi2 + other.pi2)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return ExactScalar(self.rat - other.rat, self.pi2 - other.pi2)

    def scale(self, c: Fraction) -> "ExactScalar":
        return ExactScalar(self.rat * c, self.pi2 * c)

    @staticmethod
    def rational(q) -> "ExactScalar":
        return ExactScalar(Fraction(q), Fraction(0))


@dataclass(frozen=True)
class ExactLength:
    """A positive length ``scale * pi**pi_power`` with ``pi_power`` in {0, 1}."""

    scale: Fraction
    pi_power: int = 0

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("length must be positive")
        if self.pi_power not in (0, 1):
            raise ValueError("pi_power must be 0 or 1")

    def __float__(self) -> float:
        return float(self.scale) * (math.pi if self.pi_power else 1.0)

    def pi_over_length_squared(self) -> ExactScalar:
        """(pi / L)^2 as an exact scalar."""
        if self.pi_power:
            return ExactScalar(1 / self.scale**2, Fraction(0))
        return ExactScalar(Fraction(0), 1 / self.scale**2)


def parse_rational(text) -> Fraction:
    """Parse ``"p/q"``, integer, or decimal strings/numbers into a Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        return Fraction(text).limit_denominator(10**12)
    return Fraction(str(text).strip())


def parse_length(value) -> ExactLength | None:
    """Parse a length literal into exact form, or None when inexact.

    Accepted exact forms: ``"pi"``, ``"2*pi"``, ``"pi/2"``, ``"3/4"``, ``2``,
    ``"1.5"``.  Bare floats (non-representable decimals aside) are treated as
    inexact and the caller falls back to float-only comparisons.
    """
    if isinstance(value, ExactLength):
        return value
    if isinstance(value, int):
        return ExactLength(Fraction(value), 0)
    if isinstance(value, float):
        return None
    s = str(value).strip().lower().replace(" ", "")
    if "pi" in s:
        m = re.match(r"^(?:(\d+(?:/\d+)?|\d*\.\d+)\*)?pi(?:/(\d+))?$", s)
        if not m:
            return None
        num = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        den = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        return ExactLength(num / den, 1) if den else None
    try:
        return ExactLength(Fraction(s), 0)
    except (ValueError, ZeroDivisionError):
        return None

