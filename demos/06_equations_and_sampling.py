"""Binomial equation systems, the distinguished points, the torus action
and the projection tau.

Each chart relation becomes one binomial equation.  For the quadric cone
the complex model is the hypersurface z1 z3 = z2^2; the log model reads
the same exponents multiplicatively on radii and additively on angles,
and check_membership takes either model's point by its type.  Each
stratum has one distinguished point, radius 1 and turn 0 on its face and
radius 0 off it; the torus, one (radius, turn) per ambient coordinate,
moves it to every other point of its stratum, so every point reached is
relation-consistent by construction and exactly so.
"""

import math
from fractions import Fraction

from logcharts import (KnPoint, MonoidSpec, NonnegRoot, check_membership,
                       distinguished_point, emit_equations, face_with_support, faces,
                       stratum_of_point, tau, validate)

cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                [[[1, 0, 1], [0, 2, 0]]]))

print("complex model equations:", emit_equations(cone, "complex").equations)
print("log model reads the same exponents on (radius, angle) pairs")

print("\nthe distinguished point of each stratum and its tau-image:")
for face in faces(cone):
    point = distinguished_point(cone, face)
    image = tau(point)
    print(f"  {face.support}: {point} -> {image}")
    assert check_membership(cone, point) == (True, 0.0)
    assert stratum_of_point(cone, image).support == face.support


def act(torus, point):
    """The torus element, one (radius, turn) per ambient coordinate, on a
    log point: generator g's radius scales by prod radius_l^g_l, and its
    turn moves by sum g_l turn_l."""
    return KnPoint.exact_point([
        (r * NonnegRoot.of(math.prod(Fraction(rho) ** e for (rho, _), e in zip(torus, g))),
         a + sum(e * Fraction(turn) for (_, turn), e in zip(torus, g)))
        for g, (r, a) in zip(cone.generators, point.values)])


torus = ((2, "1/4"), (3, "1/2"))
print(f"\nthe torus element {torus} moves each point along its stratum:")
for support in [(0, 1, 2), (0,)]:
    face = face_with_support(cone, support)
    point = act(torus, distinguished_point(cone, face))
    ok, residual = check_membership(cone, point)
    image = tau(point)
    ok2, residual2 = check_membership(cone, image)
    print(f"  {point}")
    print(f"    log residual {residual}, tau-image {image}, "
          f"complex residual {residual2}")
    assert ok and ok2 and image.exact
    assert stratum_of_point(cone, image).support == support
