"""Exact scalar types for point coordinates.

Complex chart coordinates in exact mode are Gaussian rationals; the circle
factor of a log point is an exact rational angle measured in turns; its
radius is an exact nonnegative real radical q**(1/k).  Floating complex
points use ``complex`` directly.
"""

from __future__ import annotations

import cmath
import re
from fractions import Fraction
from math import gcd

from ._record import Record


class GaussianRational(Record):
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value) -> GaussianRational:
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value))

    def __add__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: GaussianRational) -> GaussianRational:
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: GaussianRational) -> GaussianRational:
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by Gaussian-rational zero")
        return GaussianRational((self.re * other.re + self.im * other.im) / d,
                                (self.im * other.re - self.re * other.im) / d)

    def __pow__(self, exponent: int) -> GaussianRational:
        exponent = int(exponent)
        if exponent < 0:
            return GAUSSIAN_ONE / self ** (-exponent)
        # Multiply in the first needed power as is, and square no further
        # than the highest bit.
        out, base = None, self
        while exponent:
            if exponent & 1:
                out = base if out is None else out * base
            exponent >>= 1
            if exponent:
                base = base * base
        return GAUSSIAN_ONE if out is None else out

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


GAUSSIAN_ONE = GaussianRational(Fraction(1))


def _int_nth_root(x: int, n: int) -> int:
    """Floor of the n-th root of a nonnegative integer, exactly."""
    if x in (0, 1) or n == 1:
        return x
    if x.bit_length() <= n:
        return 1  # 2 <= x < 2^n
    # Integer Newton iteration descends from 2^ceil(bits/n) > root to the floor.
    guess = 1 << -(-x.bit_length() // n)
    while True:
        step = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if step >= guess:
            return guess
        guess = step

def rational_nth_root(q: Fraction, n: int) -> Fraction | None:
    """The exact rational n-th root of q >= 0, or None if irrational."""
    if q < 0:
        raise ValueError("negative radicand")
    num = _int_nth_root(q.numerator, n)
    den = _int_nth_root(q.denominator, n)
    if num ** n == q.numerator and den ** n == q.denominator:
        return Fraction(num, den)
    return None


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, ascending, by trial division up to sqrt(n)."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


# A radical as NonnegRoot prints it: q^(1/k), or (a/b)^(1/k) for a base
# that is not an integer.  NonnegRoot.of reads it only for 1 <= k <= 64: a
# torsor check raises the base to n * k, and normalising trial-divides k.
_RADICAL = re.compile(r"([0-9]+|\([0-9]+/[0-9]+\))\^\(1/([0-9]+)\)")
_MAX_TEXT_DEGREE = 64


class NonnegRoot(Record):
    """The exact nonnegative real number base**(1/degree), base rational.

    Normalized on construction: perfect powers are extracted until the
    degree is the least k with a rational k-th power, so two roots are
    equal iff their normalized (base, degree) pairs are, and no comparison
    raises a base to the lcm of two degrees.
    """

    base: Fraction
    degree: int = 1

    def __post_init__(self):
        base = Fraction(self.base)
        degree = int(self.degree)
        if base < 0:
            raise ValueError("radicand must be nonnegative")
        if degree < 1:
            raise ValueError("root degree must be positive")
        if base in (0, 1):
            degree = 1
        else:
            # Pull out perfect p-th powers for each prime p | degree; a
            # composite never succeeds once its prime factors are out.
            for p in _prime_factors(degree):
                while degree % p == 0 and (root := rational_nth_root(base, p)) is not None:
                    base, degree = root, degree // p
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "degree", degree)

    @staticmethod
    def of(value) -> NonnegRoot:
        """A NonnegRoot, or a rational; a string is read as a radical in
        the form ``str`` prints, with a degree of at most 64, or else as a
        Fraction."""
        if isinstance(value, NonnegRoot):
            return value
        if isinstance(value, str) and (radical := _RADICAL.fullmatch(value)):
            if int(radical[2]) > _MAX_TEXT_DEGREE:
                raise ValueError(f"root degree {radical[2]} is above {_MAX_TEXT_DEGREE}")
            return NonnegRoot(Fraction(radical[1].strip("()")), int(radical[2]))
        return NonnegRoot(Fraction(value), 1)

    def is_zero(self) -> bool:
        return self.base == 0

    def is_rational(self) -> bool:
        return self.degree == 1

    def as_rational(self) -> Fraction:
        if self.degree != 1:
            raise ValueError(f"{self} is irrational")
        return self.base

    def __mul__(self, other: NonnegRoot) -> NonnegRoot:
        other = NonnegRoot.of(other)
        l = self.degree // gcd(self.degree, other.degree) * other.degree
        return NonnegRoot(self.base ** (l // self.degree) * other.base ** (l // other.degree), l)

    def __pow__(self, exponent: int) -> NonnegRoot:
        exponent = int(exponent)
        if exponent == 0:
            return NonnegRoot(Fraction(1), 1)
        if exponent < 0:
            if self.base == 0:
                raise ZeroDivisionError("zero radius to a negative power")
            return NonnegRoot(Fraction(1) / self.base ** -exponent, self.degree)
        return NonnegRoot(self.base ** exponent, self.degree)

    def root(self, n: int) -> NonnegRoot:
        """The n-th root of this value."""
        return NonnegRoot(self.base, self.degree * int(n))

    def __eq__(self, other):
        if isinstance(other, NonnegRoot):
            return self.base == other.base and self.degree == other.degree
        if isinstance(other, (Fraction, int)):
            return self.degree == 1 and self.base == other
        return NotImplemented

    def __hash__(self):
        # A rational value is normalized to degree 1 and compares equal to
        # its Fraction, so it must hash like one.
        if self.degree == 1:
            return hash(self.base)
        return hash((self.base, self.degree))

    def __float__(self):
        return float(self.base) ** (1.0 / self.degree)

    def __str__(self):
        base = str(self.base) if self.base.denominator == 1 else f"({self.base})"
        return str(self.base) if self.degree == 1 else f"{base}^(1/{self.degree})"


def turn_mod1(t: Fraction) -> Fraction:
    """Normalize an exact angle in turns to [0, 1)."""
    t = Fraction(t)
    return t - (t.numerator // t.denominator)


QUARTER_TURN_UNITS = {
    Fraction(0): GaussianRational(Fraction(1), Fraction(0)),
    Fraction(1, 4): GaussianRational(Fraction(0), Fraction(1)),
    Fraction(1, 2): GaussianRational(Fraction(-1), Fraction(0)),
    Fraction(3, 4): GaussianRational(Fraction(0), Fraction(-1)),
}


def unit_from_turn_exact(t: Fraction) -> GaussianRational | None:
    """exp(2*pi*i*t) as a Gaussian rational, if it is one.

    By Niven's theorem a rational turn has rational cosine and sine only at
    quarter turns, which are exactly the Gaussian-rational points among
    rational-turn points of the unit circle.
    """
    return QUARTER_TURN_UNITS.get(turn_mod1(t))


def unit_from_turn_float(t) -> complex:
    return cmath.exp(2j * cmath.pi * float(t))
