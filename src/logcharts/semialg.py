"""Defining equations of the chart spaces and their points.

A chart with generators p_1..p_k and relations sum r_ij p_j = sum s_ij p_j
has two point spaces. The complex model C(P) = Hom(P, C) embeds into C^k
cut out by the binomial equations prod z_j^{r_ij} = prod z_j^{s_ij}.  The
log model C(P)_log = Hom(P, R>=0 x S^1) is cut out of (R>=0 x S^1)^k by
the same exponent data read componentwise: radii multiplicatively, angles
additively modulo one full turn.  One monomial product, ``_monomial``,
evaluates prod v_j^{e_j} for complex values, radii and unit angles, exact
or floating, and pushes the samplers' ambient parameters to generator
values.  The factored (radius, angle) form is kept throughout; the
real-algebraic embedding into (R^3)^k would add arithmetic without adding
checkable content.

A log point's angle is a turn in S^1 = R/Z in both modes: a Fraction
for exact points, a float for floating ones.  Exact points carry
Gaussian-rational coordinates and exact rational radii (or radicals
produced by root extraction), and are decided by exact equality.
Floating points are checked against one tolerance, 1e-9 by default, on
the residual relative to the size of each equation's sides and on the
chord |exp(2 pi i t) - 1| of each relation's turn sum t.
"""

from __future__ import annotations

import cmath
import enum
import math
import random
from fractions import Fraction

from ._record import Record
from .errors import ArityMismatch, InvalidPoint
from .exactnum import (GAUSSIAN_ONE, GAUSSIAN_ZERO, GaussianRational,
                       NonnegRoot, turn_mod1, unit_from_turn_exact,
                       unit_from_turn_float)
from .monoid import DEFAULT_TOLERANCE, AffineMonoid, Face

_SAMPLER_RETRY_BUDGET = 64
_TURN_DENOMINATOR = 4  # sampled log angles are quarter turns: see sample_kn_stratum
_LEAST_RESIDUAL = math.ulp(0.0)  # reported for an exact equation that fails


class Target(enum.Enum):
    COMPLEX_POINTS = "complex"
    KN_POINTS = "kn"


class BinomialSystem(Record):
    """The equations of one chart model, relation exponents verbatim."""

    variable_count: int
    equations: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    target: Target

    def to_json_dict(self):
        return {
            "target": self.target.value,
            "variable_count": self.variable_count,
            "equations": [{"lhs": list(r), "rhs": list(s)} for r, s in self.equations],
        }


class CxPoint(Record):
    """A generator-value assignment into C.

    Exact points hold GaussianRational values; floating points hold
    complex values.
    """

    values: tuple
    exact: bool

    @staticmethod
    def exact_point(values) -> CxPoint:
        return CxPoint(tuple(GaussianRational.of(v) for v in values), True)

    @staticmethod
    def floating(values) -> CxPoint:
        values = tuple(complex(v) for v in values)
        if not all(map(cmath.isfinite, values)):
            raise InvalidPoint("complex coordinates must be finite")
        return CxPoint(values, False)

    @property
    def arity(self) -> int:
        return len(self.values)

    def is_zero_at(self, i, tol: float = 0.0) -> bool:
        v = self.values[i]
        if self.exact:
            return v.is_zero()
        return abs(v) <= tol

    def to_complex(self) -> tuple[complex, ...]:
        if self.exact:
            return tuple(v.to_complex() for v in self.values)
        return self.values

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


class KnPoint(Record):
    """A generator-value assignment into R>=0 x S^1.

    The angle is a number of turns mod 1 in both modes.  Exact points:
    radius is a Fraction or a NonnegRoot, angle a Fraction in [0, 1).
    Floating points: radius and angle are floats; :meth:`floating` takes
    the angle as a nonzero complex number and stores its phase in turns,
    in [0, 1] (a phase just below 0 rounds to 1.0, the same point of R/Z).
    """

    values: tuple
    exact: bool

    @staticmethod
    def exact_point(pairs) -> KnPoint:
        return KnPoint(tuple((NonnegRoot.of(radius), turn_mod1(Fraction(angle)))
                             for radius, angle in pairs), True)

    @staticmethod
    def floating(pairs) -> KnPoint:
        vals = []
        for radius, angle in pairs:
            radius = float(radius)
            if not 0 <= radius < math.inf:
                raise InvalidPoint("radius must be finite and nonnegative")
            angle = complex(angle)
            if not 0 < abs(angle) < math.inf:
                raise InvalidPoint("angle must be a finite nonzero complex number")
            vals.append((radius, cmath.phase(angle) / (2 * math.pi) % 1.0))
        return KnPoint(tuple(vals), False)

    def radius(self, i):
        return self.values[i][0]

    def angle(self, i):
        return self.values[i][1]

    @property
    def arity(self) -> int:
        return len(self.values)

    def is_zero_at(self, i, tol: float = 0.0) -> bool:
        r = self.values[i][0]
        if self.exact:
            return r.is_zero()
        return abs(r) <= tol

    def __str__(self):
        if self.exact:
            return "(" + ", ".join(f"({r}, {a} turn)" for r, a in self.values) + ")"
        return "(" + ", ".join(f"({r:.6g}, {a:.6g} turn)" for r, a in self.values) + ")"


def emit_equations(m: AffineMonoid, target: Target | str) -> BinomialSystem:
    """One binomial equation per verified relation of the chart."""
    if isinstance(target, str):
        target = Target(target)
    return BinomialSystem(m.generator_count, tuple(m.relations), target)


def _monomial(values, exponents, one, exact=False):
    """prod v**e over the nonzero exponents e, from ``one``: the single
    product behind both chart models, exact and floating, and both
    samplers.  With ``exact`` (GaussianRational or NonnegRoot values) the
    product is the first vanishing base with a positive exponent, so a
    point on a low stratum costs no exact arithmetic.  A floating product
    multiplies every factor, so a zero beside a factor beyond the float
    range still gives the OverflowError or NaN that callers read as inf."""
    out = one
    for v, e in zip(values, exponents):
        if e:
            if exact and v.is_zero():
                return v
            out = out * v ** e
    return out


def check_membership(system: BinomialSystem, point, tol: float = DEFAULT_TOLERANCE):
    """Evaluate every equation at the point.

    Returns (ok, max_residual).  Exact points are decided by exact
    equality; their residual is only reported, as a float that is 0.0
    exactly when every equation holds (inf where a conversion overflows),
    and is not computed at all on a valid point.  A floating equation's
    residual is |lhs - rhs| / max(1, |lhs|, |rhs|) on radii and complex
    values, and |exp(2 pi i t) - 1| on the turn sum t of the angles, as for
    exact points; one whose power overflows, or whose
    sides are not both finite, has residual inf and fails: sides beyond the
    float range cannot be told apart.  Raises
    ArityMismatch when the point has the wrong number of coordinates and
    InvalidPoint when the point type does not match the system target.
    """
    if point.arity != system.variable_count:
        raise ArityMismatch(
            f"point has {point.arity} coordinates, system has {system.variable_count}")
    if system.target is Target.COMPLEX_POINTS and not isinstance(point, CxPoint):
        raise InvalidPoint("complex system expects a CxPoint")
    if system.target is Target.KN_POINTS and not isinstance(point, KnPoint):
        raise InvalidPoint("log system expects a KnPoint")

    max_residual = 0.0
    ok = True
    for r, s in system.equations:
        try:
            if system.target is Target.KN_POINTS:
                residual = _kn_equation_residual(point, r, s)
            elif point.exact:
                diff = (_monomial(point.values, r, GAUSSIAN_ONE, True)
                        - _monomial(point.values, s, GAUSSIAN_ONE, True))
                residual = 0.0 if diff.is_zero() else _exact_gap(lambda: abs(diff.to_complex()))
            else:
                residual = _float_gap(_monomial(point.values, r, complex(1)),
                                      _monomial(point.values, s, complex(1)))
        except OverflowError:  # a floating power beyond the float range
            residual = math.inf
        if not residual <= (0.0 if point.exact else tol):
            ok = False
        max_residual = max(max_residual, residual)
    return ok, max_residual


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
    rejects).  A product of radii carries a rounding error proportional to
    its size, so sides are compared relative to it."""
    if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):
        return math.inf
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _kn_equation_residual(point: KnPoint, r, s) -> float:
    radii = [radius for radius, _ in point.values]
    one = NonnegRoot.of(1) if point.exact else 1.0
    lhs, rhs = _monomial(radii, r, one, point.exact), _monomial(radii, s, one, point.exact)
    # Angles add along the relation, modulo whole turns.  They only matter
    # where some radius factor is alive on a side; they are group-valued,
    # so the relation constrains them globally.
    turn = sum((ri - si) * a for ri, si, (_, a) in zip(r, s, point.values)) % 1
    if not point.exact:
        return max(_float_gap(lhs, rhs), abs(unit_from_turn_float(turn) - 1.0))
    if lhs == rhs and turn == 0:
        return 0.0

    def gap():
        radius_res = 0.0
        if lhs != rhs:
            radius_res = (float(abs(lhs.as_rational() - rhs.as_rational()))
                          if lhs.is_rational() and rhs.is_rational()
                          else abs(float(lhs) - float(rhs)))
        return max(radius_res, abs(unit_from_turn_float(turn) - 1.0))

    return _exact_gap(gap)


def tau(point: KnPoint) -> CxPoint:
    """The projection (radius, angle) -> radius * angle, componentwise.

    Exact output requires an exact point with rational radii and quarter
    turns (the only rational turns with Gaussian-rational unit); otherwise
    the result is a floating point with the same coordinates numerically.
    """
    if point.exact:
        units = [unit_from_turn_exact(angle) for _, angle in point.values]
        if None not in units and all(radius.is_rational() for radius, _ in point.values):
            return CxPoint(tuple(GaussianRational.of(radius.as_rational()) * unit
                                 for (radius, _), unit in zip(point.values, units)), True)
    return CxPoint.floating([float(radius) * unit_from_turn_float(angle)
                             for radius, angle in point.values])


def _draw_points(draw, count):
    """Collect ``count`` draws; prefer fresh points, and fall back to
    repeats once a small stratum is exhausted.  Every draw is consistent,
    so the retry budget only bounds the search for a fresh one."""
    out = []
    seen = set()
    while len(out) < count:
        for _ in range(_SAMPLER_RETRY_BUDGET):
            point, key = draw()
            if key not in seen:
                seen.add(key)
                break
        out.append(point)
    return out


def _random_nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _random_gaussian_unit_scale(rng: random.Random) -> GaussianRational:
    re = rng.randint(-3, 3)
    im = rng.randint(-3, 3)
    if re == 0 and im == 0:
        re = 1
    return GaussianRational(Fraction(re), Fraction(im))


def sample_stratum(m: AffineMonoid, f: Face, count: int, seed: int) -> list[CxPoint]:
    """Deterministic exact points with exactly the face's coordinates
    nonvanishing.

    Points are drawn from the ambient torus: a nonzero Gaussian rational
    t_l per ambient dimension induces z_i = prod_l t_l^{g_il} on the
    face's generators and 0 elsewhere.  Every Z-linear relation among the
    generators then holds identically, so each draw is relation-consistent
    by construction; the retry budget guards deduplication.
    """
    rng = random.Random(seed)
    support = set(f.support)

    def draw():
        params = [GaussianRational.of(_random_nonzero_fraction(rng))
                  * _random_gaussian_unit_scale(rng) for _ in range(m.ambient_rank)]
        values = [_monomial(params, gen, GAUSSIAN_ONE) if i in support else GAUSSIAN_ZERO
                  for i, gen in enumerate(m.generators)]
        point = CxPoint(tuple(values), True)
        return point, tuple((v.re, v.im) for v in values)

    return _draw_points(draw, count)


def sample_kn_stratum(m: AffineMonoid, f: Face, count: int, seed: int) -> list[KnPoint]:
    """Deterministic exact log-model points over the given face.

    Radii come from positive rational parameters per ambient dimension
    (zero exactly off the face's support); angles are quarter turns, drawn
    per ambient dimension and pushed through the generator exponents, so
    every relation holds identically.  Quarter turns keep tau-images
    exactly Gaussian rational.
    """
    rng = random.Random(seed)
    support = set(f.support)

    def draw():
        rho = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for _ in range(m.ambient_rank)]
        theta = [Fraction(rng.randrange(_TURN_DENOMINATOR), _TURN_DENOMINATOR)
                 for _ in range(m.ambient_rank)]
        pairs = []
        for i, gen in enumerate(m.generators):
            angle = turn_mod1(sum(Fraction(e) * t for e, t in zip(gen, theta)))
            pairs.append((_monomial(rho, gen, Fraction(1)) if i in support else Fraction(0),
                          angle))
        point = KnPoint.exact_point(pairs)
        return point, tuple((r.base, r.degree, a) for r, a in point.values)

    return _draw_points(draw, count)
