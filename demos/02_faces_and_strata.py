"""Face lattices and rank stratifications of the corpus charts.

The quadrant chart N^2 has the four faces of the positive quadrant.  The
quadric-cone chart <(1,0), (1,1), (1,2)> also has four: its middle
generator spans an interior ray, which is not a face, and the quotient by
each face is again a valid chart (the stalk along that stratum).
"""

from logcharts import MonoidSpec, stratify, validate

charts = {
    "quadrant N^2": validate(MonoidSpec.make(2, [[1, 0], [0, 1]])),
    "quadric cone": validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                             [[[1, 0, 1], [0, 2, 0]]])),
}

for name, m in charts.items():
    print(f"== {name} ==")
    print("generators:", m.generators)
    print("verified relations:", m.relations or "(none)")
    entries = stratify(m).entries
    for e in entries:
        print(f"  face {str(e.face):12s} stalk rank {e.stalk_rank}   "
              f"stalk generators {e.stalk.generators}")
    print("rank multiset:", sorted(e.stalk_rank for e in entries))
    print("closed locus of rank >= 1:",
          [list(e.face.support) for e in entries if e.stalk_rank >= 1])
    print("unique maximal stratum:",
          [list(e.face.support) for e in entries if e.stalk_rank == m.gp_lattice_rank])
    print()

print("the middle ray of the cone is not a face: no functional can vanish")
print("on (1,1) while staying positive on (1,0) and (1,2).")
