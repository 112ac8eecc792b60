"""Defining equations of the chart spaces and their points.

A chart with generators p_1..p_k and relations sum r_ij p_j = sum s_ij p_j
has two point spaces. The complex model C(P) = Hom(P, C) embeds into C^k
cut out by the binomial equations prod z_j^{r_ij} = prod z_j^{s_ij}.  The
log model C(P)_log = Hom(P, R>=0 x S^1) is cut out of (R>=0 x S^1)^k by
the same exponent data read componentwise: radii multiplicatively, angles
additively modulo one full turn.  One monomial product, ``_monomial``,
evaluates prod v_j^{e_j} for radii and for complex values, exact or
floating, and :func:`check_membership` reads the chart's relations at a
point by the point's type.  The factored (radius, angle) form is kept
throughout; the real-algebraic embedding into (R^3)^k would add
arithmetic without adding checkable content.

A log point is exact: each radius a NonnegRoot, each angle a Fraction of
a turn in S^1 = R/Z, decided by exact equality.  Floating log input is
read once, by :meth:`KnPoint.floating`, as rationals that round back to
each radius and, with denominator at most 10^6, approximate each turn.
Complex points are exact (Gaussian-rational coordinates, decided by
exact equality) or floating; a floating one is checked at the one
tolerance FLOAT_TOLERANCE, on each equation's relative residual and turn
sum.  A Gaussian rational such as 3+4i has no rational turn, so a
complex point has no exact polar form in general.

The torus Hom(P^gp, C*) acts transitively on each stratum, and the action
lifts to the Kummer covers, so every fiber over a stratum is isomorphic
to every other: one exact point per stratum, :func:`distinguished_point`,
stands for it.
"""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

from ._record import Record
from .errors import ArityMismatch, ChartError, InvalidPoint
from .exactnum import (GAUSSIAN_ONE, GaussianRational, NonnegRoot, turn_mod1,
                       unit_from_turn_exact, unit_from_turn_float)
from .monoid import AffineMonoid, Face

FLOAT_TOLERANCE = 1e-9  # the residual and modulus a floating complex point may miss by
_LEAST_RESIDUAL = math.ulp(0.0)  # reported for an exact equation that fails
POWER_BITS_CAP = 1 << 20  # |e| times the bits of v an exact v ** e may reach: a few ms


class BinomialSystem(Record):
    """The equations of one chart model, relation exponents verbatim;
    ``target`` is "complex" or "kn"."""

    variable_count: int
    equations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    target: str


class CxPoint(Record):
    """A generator-value assignment into C.

    Exact points hold GaussianRational values; floating points hold
    complex values, each with a finite modulus.
    """

    values: tuple
    exact: bool

    @staticmethod
    def exact_point(values) -> CxPoint:
        return CxPoint(tuple(GaussianRational.of(v) for v in values), True)

    @staticmethod
    def floating(values) -> CxPoint:
        values = tuple(complex(v) for v in values)
        for i, v in enumerate(values):
            if not math.hypot(v.real, v.imag) < math.inf:  # NaN fails it too
                raise InvalidPoint(f"complex coordinate {i} is {v!r}, not of finite modulus")
        return CxPoint(values, False)

    @property
    def arity(self) -> int:
        return len(self.values)

    def is_zero_at(self, i) -> bool:
        v = self.values[i]
        return v.is_zero() if self.exact else abs(v) <= FLOAT_TOLERANCE

    def to_complex(self) -> tuple[complex, ...]:
        """The coordinates as complex floats; an exact coordinate beyond the
        float range raises InvalidPoint naming it."""
        return (tuple(_float_or_refuse(i, v.to_complex) for i, v in enumerate(self.values))
                if self.exact else self.values)

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


def _float_or_refuse(i, convert):
    """``convert()``, a float form of exact coordinate i, or InvalidPoint
    naming the coordinate where it or its modulus is beyond the float
    range."""
    try:
        value = convert()
        if math.hypot(value.real, value.imag) < math.inf:
            return value
    except OverflowError:
        pass
    raise InvalidPoint(f"exact coordinate {i} is beyond the float range")


class KnPoint(Record):
    """A generator-value assignment into R>=0 x S^1: per generator a
    NonnegRoot radius and a Fraction angle in turns, in [0, 1).
    :meth:`exact_point` builds one from rationals (or NonnegRoot radii),
    :meth:`floating` from floats.
    """

    values: tuple

    @staticmethod
    def exact_point(pairs) -> KnPoint:
        return KnPoint(tuple((NonnegRoot.of(radius), turn_mod1(Fraction(angle)))
                             for radius, angle in pairs))

    @staticmethod
    def floating(pairs) -> KnPoint:
        """The exact point read from floating input.  A radius is the
        closest rational with denominator at most 10^6 to the decimal it
        prints as, if that rounds to the same float (0.3333333333333333 is
        1/3), else that decimal (2.1e51 is 21 * 10^50, not its binary
        value): either way it rounds back to the float.  An angle, a finite
        nonzero complex number, is its phase / 2 pi (its modulus never
        formed) as the closest rational turn with denominator at most 10^6."""
        exact = []
        for radius, angle in pairs:
            radius, angle = float(radius), complex(angle)
            if not 0 <= radius < math.inf:
                raise InvalidPoint("radius must be finite and nonnegative")
            if not (cmath.isfinite(angle) and angle):
                raise InvalidPoint("angle must be a finite nonzero complex number")
            decimal = Fraction(repr(radius))
            simple = decimal.limit_denominator(10 ** 6)
            turn = Fraction(math.atan2(angle.imag, angle.real) / (2 * math.pi))
            exact.append((simple if float(simple) == radius else decimal,
                          turn.limit_denominator(10 ** 6)))
        return KnPoint.exact_point(exact)

    @property
    def arity(self) -> int:
        return len(self.values)

    def is_zero_at(self, i) -> bool:
        return self.values[i][0].is_zero()

    def __str__(self):
        return "(" + ", ".join(f"({r}, {a} turn)" for r, a in self.values) + ")"


def emit_equations(m: AffineMonoid, target: str) -> BinomialSystem:
    """One binomial equation per verified relation of the chart, for the
    complex model ("complex") or the log model ("kn")."""
    if target not in ("complex", "kn"):
        raise ChartError(f"target {target!r} is not 'complex' or 'kn'")
    return BinomialSystem(m.generator_count, tuple(m.relations), target)


def distinguished_point(m: AffineMonoid, face: Face) -> KnPoint:
    """The distinguished point of the face's stratum (Fulton, §3.1):
    radius 1 and turn 0 on the face's support, radius 0 and turn 0 off it."""
    support = set(face.support)
    return KnPoint.exact_point([(int(i in support), 0) for i in range(m.generator_count)])


def _monomial(values, exponents, one, exact=False):
    """prod v**e over the nonzero exponents e, from ``one``: the single
    product behind both chart models, exact and floating complex.  With
    ``exact`` (GaussianRational or NonnegRoot values) the product is the
    first vanishing base with a positive exponent, so a point on a low
    stratum costs no exact arithmetic.  A floating product multiplies
    every factor, so a zero beside a factor beyond the float range still
    gives the OverflowError or NaN that callers read as inf.  An exact
    power whose size, read off the bit lengths of the base's fields, would
    exceed POWER_BITS_CAP raises ChartError before it is taken, and so
    does a product of radicals, whose base is each factor's base to the
    lcm of the degrees over its own degree."""
    out = one
    for v, e in zip(values, exponents):
        if e:
            if exact and v.is_zero():
                return v
            if not isinstance(v, complex):  # bits <= 0 for 0, 1 and i, else about log2 |v|
                bits = sum(q.numerator.bit_length() + q.denominator.bit_length() - 1 for q in (
                    (v.re, v.im) if isinstance(v, GaussianRational) else (v.base,))) - 1
                if abs(e) * bits > POWER_BITS_CAP:
                    raise ChartError(f"exponent {e} would make a power of about {abs(e) * bits} "
                                     f"bits, above the limit of {POWER_BITS_CAP}")
            power = v ** e
            if isinstance(power, NonnegRoot):
                lcm = math.lcm(out.degree, power.degree)
                bits = sum((x.base.numerator.bit_length() + x.base.denominator.bit_length() - 2)
                           * (lcm // x.degree) for x in (out, power))
                if bits > POWER_BITS_CAP:
                    raise ChartError(f"a product of radicals would make a base of about {bits} "
                                     f"bits, above the limit of {POWER_BITS_CAP}")
            out = out * power
    return out


def _check_exact_types(point):
    """Refuse an exact point with values exact arithmetic cannot take: a
    KnPoint holds (NonnegRoot, Fraction) pairs, an exact CxPoint
    GaussianRationals."""
    kn = isinstance(point, KnPoint)
    for i, v in enumerate(point.values if kn or point.exact else ()):
        if not (isinstance(v[0], NonnegRoot) and isinstance(v[1], Fraction) if kn
                else isinstance(v, GaussianRational)):
            raise InvalidPoint(f"exact coordinate {i} is {v!r}, not " + (
                "a NonnegRoot radius and a Fraction turn" if kn else "a GaussianRational"))


def check_membership(m: AffineMonoid, point):
    """Evaluate every relation of the chart at the point, by the log rule
    at a KnPoint and the complex rule at a CxPoint: the one membership
    rule, which ``strata.stratum_of_point`` and the Kummer fibers read.

    Returns (ok, max_residual).  Log points and exact complex points are
    decided by exact equality, a log point's turn sums by
    :func:`_turn_offsets`; their residual is only reported, as a float
    that is 0.0 exactly when every equation holds (inf where a conversion
    overflows), and is not computed on a valid point: the larger of the
    radii's gap and the chord |exp(2 pi i d) - 1| of the turn d past a
    whole one.  A floating complex equation's residual is |lhs - rhs| /
    max(1, |lhs|, |rhs|), or, where none of its coordinates vanishes
    within FLOAT_TOLERANCE, the chord of its turn sum if that is larger
    ([1e-5, 1e-5 i, 1e-5] meets z0 z2 = z1^2 to 2e-10, half a turn off),
    and it passes up to FLOAT_TOLERANCE; sides that overflow or are not
    both finite give inf, since sides beyond the float range cannot be
    told apart.  Raises InvalidPoint when the point is neither a KnPoint
    nor a CxPoint or an exact point holds values of other types, and
    ArityMismatch when it has the wrong number of coordinates.
    """
    kn = isinstance(point, KnPoint)
    if not (kn or isinstance(point, CxPoint)):
        raise InvalidPoint(f"a chart point is a KnPoint or a CxPoint, not {type(point).__name__}")
    if point.arity != m.generator_count:
        raise ArityMismatch(
            f"point has {point.arity} coordinates, chart has {m.generator_count} generators")
    _check_exact_types(point)
    bound = 0.0 if kn or point.exact else FLOAT_TOLERANCE
    if kn:
        radii, one = [radius for radius, _ in point.values], NonnegRoot.of(1)
        sums = _turn_offsets([tuple(map(operator.sub, r, s)) for r, s in m.relations],
                             [a for _, a in point.values])
    elif not point.exact:  # the unit z / |z| of each live coordinate, None at vanishing ones
        units = [None if point.is_zero_at(i) else z / abs(z) for i, z in enumerate(point.values)]

    max_residual, ok = 0.0, True
    for i, (r, s) in enumerate(m.relations):
        if kn:
            lhs, rhs = (_monomial(radii, x, one, True) for x in (r, s))
            turn = sums[i][1]
            residual = 0.0 if lhs == rhs and turn == 0 else _exact_gap(
                lambda: max(_radius_gap(lhs, rhs), abs(unit_from_turn_float(turn) - 1.0)))
        elif point.exact:
            diff = (_monomial(point.values, r, GAUSSIAN_ONE, True)
                    - _monomial(point.values, s, GAUSSIAN_ONE, True))
            residual = 0.0 if diff.is_zero() else _exact_gap(lambda: abs(diff.to_complex()))
        else:
            try:
                residual = _float_gap(_monomial(point.values, r, complex(1)),
                                      _monomial(point.values, s, complex(1)))
            except OverflowError:  # a floating power beyond the float range
                residual = math.inf
            if None not in (u for u, rj, sj in zip(units, r, s) if rj or sj):
                # the chord |exp(2 pi i d) - 1| of the turn sum d, as the units' gap
                residual = max(residual, abs(_monomial(units, r, complex(1))
                                             - _monomial(units, s, complex(1))))
        ok = ok and residual <= bound
        max_residual = max(max_residual, residual)
    return ok, max_residual


def _turn_offsets(rows, turns):
    """The turn sum sum_j row_j t_j of the exact turns t along each
    relation row, as (c, d): the whole turns c below it and the Fraction
    d in [0, 1) of a turn past them, 0 exactly where the row holds.  Summed
    on integers over the turns' common denominator: the one whole-turn sum
    of a log point, whose d membership reads and whose c are the Kummer
    fibers' offsets."""
    den = math.lcm(*(t.denominator for t in turns))
    nums = [t.numerator * (den // t.denominator) for t in turns]
    return [(total // den, Fraction(total % den, den))
            for total in (sum(map(operator.mul, row, nums)) for row in rows)]


def _radius_gap(lhs, rhs) -> float:
    """|lhs - rhs| of two radii, taken exactly where both are rational."""
    if lhs == rhs:
        return 0.0
    if lhs.is_rational() and rhs.is_rational():
        return float(abs(lhs.as_rational() - rhs.as_rational()))
    return abs(float(lhs) - float(rhs))


def _exact_gap(gap) -> float:
    """The float residual of an exact equation known to fail: ``gap()``,
    raised to the least positive float where rounding or underflow reads
    0, and inf where a conversion overflows."""
    try:
        return max(gap(), _LEAST_RESIDUAL)
    except OverflowError:
        return math.inf


def _float_gap(lhs, rhs) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|) for two floating sides; inf
    unless both are finite (inf - inf would be NaN, which no tolerance test
    rejects).  A floating product carries a rounding error proportional to
    its size, so sides are compared relative to it."""
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        return math.inf
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def tau(point: KnPoint) -> CxPoint:
    """The projection (radius, angle) -> radius * angle, componentwise.

    The image is exact where every radius is rational and every turn a
    quarter turn (the only rational turns with Gaussian-rational unit);
    otherwise it is a floating point with the same coordinates numerically,
    and a radius beyond the float range raises InvalidPoint naming it.  A
    point with values of other types raises InvalidPoint.
    """
    _check_exact_types(point)
    units = [unit_from_turn_exact(angle) for _, angle in point.values]
    if None not in units and all(radius.is_rational() for radius, _ in point.values):
        return CxPoint(tuple(GaussianRational.of(radius.as_rational()) * unit
                             for (radius, _), unit in zip(point.values, units)), True)
    return CxPoint.floating([_float_or_refuse(i, radius.__float__) * unit_from_turn_float(angle)
                             for i, (radius, angle) in enumerate(point.values)])
