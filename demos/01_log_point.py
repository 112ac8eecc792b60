"""The simplest chart: one generator, the log point.

The monoid N has two faces (the vertex and the dense face), so its chart
has two strata.  Over the vertex the log model fibers in a circle and the
n-th root construction fibers in B(Z/n); after profinite completion the
two towers agree: at every level n both read Z/n.
"""

from fractions import Fraction

from logcharts import (KnPoint, MonoidSpec, faces, kn_kummer_fiber, mu,
                       mu_tower, stratify, validate, verify_fiber_equivalence)

m = validate(MonoidSpec.make(1, [[1]]))
print("chart monoid:", m)
print("group rank:", m.gp_lattice_rank)

print("\nfaces (by 0-based generator support):")
for f in faces(m):
    print(f"  {f} with certificate {tuple(str(c) for c in f.certificate)}")

print("\nstrata:")
entries = stratify(m).entries
for entry in entries:
    print(f"  face {entry.face}  stalk rank {entry.stalk_rank}")

vertex, quotient, r = next((e.face, e.stalk, e.stalk_rank)
                            for e in entries if not e.face.support)
print("\nover the vertex:")
print("  log-model fiber: torus of rank", r)
tower = mu_tower(quotient)
print("  root fiber levels:", ", ".join(str(tower.level(n)) for n in (2, 3, 4, 6)))
print("  mu_n of the chart:", ", ".join(str(mu(m, n)) for n in (2, 3, 4, 6)))

print("\nthe degree-3 Kummer cover over the point (radius 2, 1/3 turn):")
p = KnPoint.exact_point([(2, Fraction(1, 3))])
for q in kn_kummer_fiber(m, p, 3):
    print("  fiber point:", q)

ok, cert = verify_fiber_equivalence(m, vertex, 100)
level5 = cert.levels.levels[4]
print("\nlevel 5:", level5.factors_a, "(pi1 of the circle mod 5) and",
      level5.factors_b, "(mu_5 of the stalk)")

print(f"\nfiberwise profinite comparison up to level 100: {ok}")
print("first levels:",
      [(rec.n, rec.factors_a, rec.factors_b) for rec in cert.levels.levels[:6]])
