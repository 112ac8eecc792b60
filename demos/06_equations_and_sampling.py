"""Binomial equation systems, exact sampling, and the projection tau.

Each chart relation becomes one binomial equation.  For the quadric cone
the complex model is the hypersurface z1 z3 = z2^2; the log model reads
the same exponents multiplicatively on radii and additively on angles.
Sampling works stratum by stratum through the ambient torus, so every
sample is relation-consistent by construction and exactly so.
"""

from logcharts import (MonoidSpec, Target, check_membership, emit_equations,
                       face_with_support, sample_kn_stratum, sample_stratum,
                       stratum_of_point, tau, validate)

cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                [[[1, 0, 1], [0, 2, 0]]]))

complex_system = emit_equations(cone, Target.COMPLEX_POINTS)
log_system = emit_equations(cone, Target.KN_POINTS)
print("complex model equations:", complex_system.equations)
print("log model reads the same exponents on (radius, angle) pairs")

dense = face_with_support(cone, [0, 1, 2])
print("\nexact dense-stratum samples (z2^2 = z1 z3 holds exactly):")
for point in sample_stratum(cone, dense, 3, seed=5):
    ok, residual = check_membership(complex_system, point)
    print(f"  {point}  residual {residual}")
    assert ok
    assert stratum_of_point(cone, point).support == (0, 1, 2)

edge = face_with_support(cone, [0])
print("\nsamples on the rank-1 stratum (only z1 alive):")
for point in sample_stratum(cone, edge, 2, seed=6):
    print(f"  {point}")
    assert stratum_of_point(cone, point).support == (0,)

print("\nlog-model samples and their tau-images:")
for point in sample_kn_stratum(cone, dense, 2, seed=8):
    ok, residual = check_membership(log_system, point)
    image = tau(point)
    ok2, residual2 = check_membership(complex_system, image)
    print(f"  {point}")
    print(f"    log residual {residual}, tau-image {image}, "
          f"complex residual {residual2}")
    assert ok and ok2
