"""The deck action on a Kummer-cover fiber is free and transitive.

Adjoining n-th roots to the log model multiplies circle coordinates by
roots of unity.  The characters that respect the chart's relations form a
group of order n^r, and the enumerated fiber over any point is a single
free orbit of that group, whatever the stratum.  The torus acts
transitively on each stratum, and the action lifts to the covers, so the
stratum's distinguished point (radius 1 on the face, 0 off it) stands
for every point of it.
"""

from logcharts import (MonoidSpec, distinguished_point, face_with_support, kn_kummer_fiber,
                       torsor_check, validate)

cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                [[[1, 0, 1], [0, 2, 0]]]))

for support in [(), (0,), (0, 1, 2)]:
    face = face_with_support(cone, support)
    point = distinguished_point(cone, face)
    print(f"stratum {face}:")
    print("  base point:", point)
    for n in (2, 3):
        fiber = kn_kummer_fiber(cone, point, n)
        ok, report = torsor_check(cone, point, n)
        print(f"  degree {n}: fiber size {len(fiber)}, deck group order "
              f"{report.group_order}, free={report.free}, "
              f"transitive={report.transitive}")
    print()

print("fiber cardinality is n^2 on every stratum: the circle coordinates")
print("carry the deck action even where the complex coordinates vanish.")

point = distinguished_point(cone, face_with_support(cone, (0, 1, 2)))
ok, report = torsor_check(cone, point, 2)
print("\norbit table at degree 2 (fiber index -> character index):",
      list(report.orbit_table))
