"""A known-answer corpus: the cones over the 16 reflexive polygons.

A reflexive polygon Q is a lattice polygon whose edges all lie at lattice
distance 1 from the origin; the origin is then its one interior lattice
point.  The cone over Q has the generators (x, y, 1) for the m lattice
points (x, y) of Q, so k = m runs from 4 to 10, and its answers come from
classical theorems, not from the library:

- there are 16 classes up to GL2(Z), and b(Q) + b(Q*) = 12 for the
  boundary counts of Q and its dual (Poonen and Rodriguez-Villegas,
  Amer. Math. Monthly 107 (2000));
- a cone over a polygon with v vertices has 2v + 2 faces: the vertex, v
  rays, v two-dimensional faces and the cone itself;
- every lattice polygon is normal (Bruns and Gubeladze, *Polytopes, Rings
  and K-Theory*, 2009), so the cone is saturated and every point of 2Q is
  a sum of two points of Q; the toric ideal has C(m + 1, 2) - |2Q ∩ Z²|
  independent quadrics;
- the ideal is generated by quadrics exactly when b(Q) >= 4 (Koelman,
  Beiträge Algebra Geom. 34 (1993)); the triangle with b(Q) = 3, the
  polygon of P², needs its cubic;
- over a stratum of rank r the Kato-Nakayama fiber is an r-torus, whose
  pi1 = Z^r read mod n is (Z/n)^r, and level n of the root tower is
  mu_n of the stalk, also (Z/n)^r: the fiberwise comparison reads the
  same invariant factors on both sides at every level.
"""

import collections
import itertools
import math

import pytest

from logcharts.errors import RelationSynthesisIncomplete
from logcharts.fibers import verify_fiber_equivalence
from logcharts.monoid import MonoidSpec, faces, validate
from logcharts.strata import stratify


def _det(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _at_distance_one(a, b):
    """Does the edge from a to b, counterclockwise about the origin, lie on
    a line at lattice distance 1 from it?"""
    return _det(a, b) == math.gcd(b[0] - a[0], b[1] - a[1])


def _turns_left(a, b, c):
    return _det((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])) > 0


def _angle(p):
    return math.atan2(p[1], p[0])


def _reflexive_vertex_cycles():
    """Every convex polygon with vertices among the primitive points of
    [-2, 2]² whose edges all lie at lattice distance 1 from the origin, as
    its vertices counterclockwise from the one of least angle."""
    points = sorted((p for p in itertools.product(range(-2, 3), repeat=2)
                     if math.gcd(*p) == 1), key=_angle)
    assert len(points) == 16
    found = []

    def extend(cycle):
        a = cycle[-1]
        if (len(cycle) >= 3 and _at_distance_one(a, cycle[0])
                and _turns_left(cycle[-2], a, cycle[0]) and _turns_left(a, cycle[0], cycle[1])):
            found.append(tuple(cycle))
        for b in points[points.index(a) + 1:]:
            if _at_distance_one(a, b) and (len(cycle) < 2 or _turns_left(cycle[-2], a, b)):
                extend(cycle + [b])

    for p in points:
        extend([p])
    return found


def _normal_form(vertices):
    """The least vertex list, counterclockwise from the vertex of least
    angle, over the maps in GL2(Z) that send an edge to the line y = -1,
    starting at (0, -1) and running towards +x, for every edge and both
    orientations."""
    forms = []
    ring = list(vertices)
    for cycle in (ring, ring[::-1]):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            g = math.gcd(b[0] - a[0], b[1] - a[1])
            e = ((b[0] - a[0]) // g, (b[1] - a[1]) // g)
            det = _det(e, a)  # +-1: the edge is at lattice distance 1
            # the inverse of the matrix with columns e and a, then y -> -y
            inverse = ((a[1] * det, -a[0] * det), (-e[1] * det, e[0] * det))
            image = [(inverse[0][0] * x + inverse[0][1] * y,
                      -(inverse[1][0] * x + inverse[1][1] * y)) for x, y in vertices]
            forms.append(tuple(sorted(image, key=_angle)))
    return min(forms)


def _lattice_points(vertices, scale=1):
    """The lattice points of the polygon scale * Q, each with True when it
    is on the boundary."""
    ring = [(scale * x, scale * y) for x, y in vertices]
    edges = list(zip(ring, ring[1:] + ring[:1]))
    span = range(min(map(min, ring)), max(map(max, ring)) + 1)
    found = {}
    for p in itertools.product(span, repeat=2):
        sides = [_det((b[0] - a[0], b[1] - a[1]), (p[0] - a[0], p[1] - a[1])) for a, b in edges]
        if min(sides) >= 0:
            found[p] = min(sides) == 0
    return found


def _dual(vertices):
    """The vertices of Q* = {u : <u, x> >= -1 on Q}, counterclockwise: the
    inner normal of each edge, scaled to -1 on it."""
    ring = list(vertices)
    return [((a[1] - b[1]) // _det(a, b), (b[0] - a[0]) // _det(a, b))
            for a, b in zip(ring, ring[1:] + ring[:1])]


def _corpus():
    """One vertex cycle per GL2(Z) class, keyed by its normal form."""
    classes = {}
    for cycle in _reflexive_vertex_cycles():
        classes.setdefault(_normal_form(cycle), cycle)
    return classes


CORPUS = _corpus()
NAMES = sorted(CORPUS, key=lambda form: (len(_lattice_points(form)), form))


def _boundary(vertices):
    return sum(_lattice_points(vertices).values())


def _cone(form, relations=None):
    points = sorted(_lattice_points(form))
    return MonoidSpec.make(3, [[x, y, 1] for x, y in points], relations)


def _degree_two_moves(points):
    """One move per consecutive pair of presentations in each fiber of
    degree 2, the pairs of points listed by their sum: a minimal set that
    connects every fiber of degree 2."""
    fibers = collections.defaultdict(list)
    for i, j in itertools.combinations_with_replacement(range(len(points)), 2):
        fibers[points[i][0] + points[j][0], points[i][1] + points[j][1]].append((i, j))
    moves = []
    for pairs in fibers.values():
        for (i, j), (p, q) in zip(pairs, pairs[1:]):
            r, s = [0] * len(points), [0] * len(points)
            r[i] += 1
            r[j] += 1
            s[p] += 1
            s[q] += 1
            moves.append((r, s))
    return moves


def test_the_enumeration_finds_the_16_classes():
    assert len(CORPUS) == 16
    assert sorted(map(_boundary, CORPUS)) == [3, 4, 4, 4, 5, 5, 6, 6, 6, 6, 7, 7, 8, 8, 8, 9]
    for form, cycle in CORPUS.items():
        points = _lattice_points(cycle)
        assert [p for p, edge in points.items() if not edge] == [(0, 0)]
        dual = _dual(cycle)
        assert _boundary(cycle) + _boundary(dual) == 12
        assert _normal_form(dual) in CORPUS
        # the normal form is a GL2(Z) image of the polygon
        assert sorted(_lattice_points(form).values()) == sorted(points.values())
        assert _normal_form(form) == form


@pytest.mark.parametrize("form", NAMES, ids=lambda f: f"b{_boundary(f)}-v{len(f)}")
def test_cones_over_reflexive_polygons_have_the_known_answers(form):
    points = sorted(_lattice_points(form))
    m, v = len(points), len(form)
    moves = _degree_two_moves(points)
    assert len(moves) == math.comb(m + 1, 2) - len(_lattice_points(form, 2))
    if _boundary(form) == 3:
        # the triangle of P²: no quadric, and the walk names its cubic
        assert moves == []
        with pytest.raises(RelationSynthesisIncomplete) as info:
            validate(_cone(form, moves))
        assert info.value.witness == (0, 0, 3)
        apex = points.index((0, 0))
        cubic = ([int(i != apex) for i in range(m)], [3 * int(i == apex) for i in range(m)])
        moves = [cubic]
    cone = validate(_cone(form, moves))  # returns: the cone is saturated
    assert cone.gp_lattice_rank == 3
    assert len(faces(cone)) == 2 * v + 2
    table = stratify(cone)
    assert sorted(e.stalk_rank for e in table.entries) == [0] + [1] * v + [2] * v + [3]
    # over every stratum the torus and root towers agree: (Z/n)^r at each level
    for entry in table.entries:
        ok, cert = verify_fiber_equivalence(cone, entry.face, 30)
        r = entry.stalk_rank
        assert ok and cert.torus_rank == r
        assert all(rec.factors_a == rec.factors_b == ((rec.n,) * r if rec.n > 1 else ())
                   for rec in cert.levels.levels)


# The refusals of the cones with relations omitted, at the default degree
# bound: (witness, degree) of the first disconnected fiber, or None for a
# cone that validates.  Relation synthesis splits a kernel basis into
# signs, and that basis need not connect the fibers of degree 2.
OMITTED = {
    ((0, -1), (1, -1), (-1, 2)): None,
    ((0, -1), (1, -1), (-2, 3)): None,
    ((0, -1), (1, -1), (-1, 2), (-1, 1)): ((0, 0, 2), 2),
    ((0, -1), (1, -1), (0, 1), (-1, 1)): None,
    ((0, -1), (1, -1), (-1, 2), (-2, 3)): ((-1, 1, 2), 2),
    ((0, -1), (1, -1), (0, 1), (-1, 1), (-1, 0)): ((-1, 1, 2), 2),
    ((0, -1), (1, -1), (-3, 5)): ((-3, 4, 2), 2),
    ((0, -1), (1, -1), (-1, 3), (-1, 1)): ((-1, 2, 2), 2),
    ((0, -1), (1, -1), (0, 1), (-1, 2), (-1, 0)): ((-1, 1, 2), 2),
    ((0, -1), (1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0)): ((-1, 1, 2), 2),
    ((0, -1), (1, -1), (-1, 3), (-1, 0)): ((-2, 3, 2), 2),
    ((0, -1), (1, -1), (1, 0), (-1, 2), (-1, 0)): ((-1, 1, 2), 2),
    ((0, -1), (1, -1), (1, 1), (-2, 1)): ((-1, 0, 2), 2),
    ((0, -1), (2, -1), (-4, 3)): ((-6, 4, 2), 2),
    ((0, -1), (2, -1), (0, 1), (-2, 1)): ((-1, 0, 2), 2),
    ((0, -1), (3, -1), (-3, 2)): ((-3, 1, 2), 2),
}


@pytest.mark.parametrize("form", NAMES, ids=lambda f: f"b{_boundary(f)}-v{len(f)}")
def test_cones_with_relations_omitted_are_pinned(form):
    try:
        validate(_cone(form))
    except RelationSynthesisIncomplete as err:
        got = (err.witness, err.degree)
    else:
        got = None
    assert got == OMITTED[form]
