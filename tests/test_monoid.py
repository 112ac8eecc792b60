"""Monoid validation, face lattices, stalks, Kummer extensions."""

import collections
import itertools
import math
import random
import re
import time

import pytest

from logcharts import abgrp, monoid, ratlp
from logcharts.abgrp import (FgAbelianGroup, cokernel, generator_matrix, rank,
                             smith_normal_form, tensor_mod)
from logcharts.cli import corpus_path, load_chart
from logcharts.errors import (ChartError, InvalidMonoidSpec, NotAFace, NotSharp,
                              RelationInconsistent, RelationSynthesisIncomplete,
                              SaturationFailure)
from logcharts.monoid import (MonoidSpec, face_with_support, faces, mu, stalk,
                              validate)
from logcharts.profin import mu_tower

from oracles import (congruence_complete_by_vectors, diagonal, face_supports_by_axiom,
                     faces_by_lp, fiber_connected_by_vectors, quadric_relations,
                     grading_of, random_unimodular, saturation_box_by_lp,
                     saturation_scan_by_certificates, saturation_scan_by_lp,
                     saturation_scan_inputs)


def n_monoid():
    return validate(MonoidSpec.make(1, [[1]]))


def quadrant():
    return validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))


def a1_cone():
    return validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                    [[[1, 0, 1], [0, 2, 0]]]))


def test_validate_log_point():
    m = n_monoid()  # validate returns: sharp and saturated
    assert m.gp_lattice_rank == 1


def test_validate_a1_cone_relation():
    m = a1_cone()
    assert m.gp_lattice_rank == 2
    # (1,0) + (1,2) == 2 * (1,1) holds exactly
    assert tuple(x + y for x, y in zip((1, 0), (1, 2))) == (2, 2)


def test_validate_rejects_line():
    with pytest.raises(NotSharp):
        validate(MonoidSpec.make(1, [[1], [-1]]))


def test_validate_rejects_a_spec_of_the_wrong_shape():
    for d, gens, relations, message in [
            (2, [[0, 0], [1, 0]], None, "zero generator"),
            (2, [[1, 0], [1]], None, r"generator \(1,\) does not live in Z\^2"),
            (1, [[1], [2]], [[[2], [1]]], "has wrong arity"),
            (1, [[1], [2]], [[[2, -1], [0, 0]]], "has negative exponents")]:
        with pytest.raises(InvalidMonoidSpec, match=message):
            validate(MonoidSpec.make(d, gens, relations))


def test_ambient_rank_above_the_limit_is_refused_before_any_matrix(monkeypatch):
    # the Smith form of the generator matrix builds a rank x rank U, so a
    # rank of 20,000 with no generators ran out of memory
    def no_matrix(rows, cols):
        raise AssertionError("a Smith form was started")

    monkeypatch.setattr(monoid, "smith_normal_form", no_matrix)
    for spec in (MonoidSpec.make(20_000, []), MonoidSpec.make(1_001, [[1] + [0] * 1_000])):
        with pytest.raises(InvalidMonoidSpec,
                           match=f"^ambient rank {spec.ambient_rank} is above the limit of 1000$"):
            validate(spec)
    monkeypatch.undo()
    assert validate(MonoidSpec.make(1_000, [])).gp_lattice_rank == 0


def test_a_generator_count_above_the_limit_is_refused_before_any_matrix(monkeypatch):
    # the Smith form builds a k x k V and the synthesized relations are
    # k - 1 vectors of length k: 3,000 copies of [1] took 5.8 s at 293 MiB
    def no_matrix(rows, cols):
        raise AssertionError("a Smith form was started")

    monkeypatch.setattr(monoid, "smith_normal_form", no_matrix)
    with pytest.raises(InvalidMonoidSpec,
                       match="^generator count 1001 is above the limit of 1000$"):
        validate(MonoidSpec.make(1, [[1]] * 1_001))
    monkeypatch.undo()
    assert validate(MonoidSpec.make(1, [[1]] * 1_000)).gp_lattice_rank == 1


def test_validate_rejects_false_relation():
    with pytest.raises(RelationInconsistent):
        validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                 [[[1, 0, 0], [0, 1, 0]]]))


def test_validate_reports_saturation_witness():
    with pytest.raises(SaturationFailure) as info:
        validate(MonoidSpec.make(1, [[2], [3]]))
    assert info.value.witness == (1,)


def test_saturation_passes_over_cone_points_off_the_lattice():
    # moved from abgrp's solve_integer: lattice membership is read off
    # validate's Smith form.  The cone of (2, 0), (1, 1), (0, 2) holds
    # (1, 0), which is off the generated lattice, so the chart is accepted.
    m = validate(MonoidSpec.make(2, [[2, 0], [1, 1], [0, 2]]), 8)
    assert len(m.relations) == 1
    # the lattice of (4, 0), (6, 0), (0, 1) is 2Z x Z: every cone point
    # (1, y) is passed over, and (2, 0), in the lattice but not in P, is the
    # witness
    with pytest.raises(SaturationFailure) as info:
        validate(MonoidSpec.make(2, [[4, 0], [6, 0], [0, 1]]), 8)
    assert info.value.witness == (2, 0)


def test_synthesized_relations_span_the_kernel():
    # moved from abgrp's kernel_basis: the synthesized relation rows lie in
    # the kernel of the generator matrix, there are k - rank of them, and
    # they span it, since the cokernel of their matrix is free.  At degree
    # bound 0 no element is walked, so every sharp chart validates.
    rng = random.Random(17)
    drawn = 0
    while drawn < 60:
        d, k = rng.randrange(1, 4), rng.randrange(1, 5)
        gens = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        try:
            m = validate(MonoidSpec.make(d, gens), 0)
        except (NotSharp, InvalidMonoidSpec):
            continue
        drawn += 1
        r = m.gp_lattice_rank
        assert r == rank(gens, d) and len(m.relations) == k - r
        rows = [[a - b for a, b in zip(*rel)] for rel in m.relations]
        for z in rows:
            assert all(sum(c * g[i] for c, g in zip(z, gens)) == 0 for i in range(d))
        columns = [[z[j] for z in rows] for j in range(k)]
        assert cokernel(columns, len(rows)) == FgAbelianGroup(r)


def test_validate_runs_one_smith_form_and_faces_none(monkeypatch):
    calls = []

    def counting(rows, cols):
        calls.append(rows)
        return smith_normal_form(rows, cols)
    monkeypatch.setattr(abgrp, "smith_normal_form", counting)
    monkeypatch.setattr(monoid, "smith_normal_form", counting)
    index_two = [[2, 0], [1, 1], [0, 2]]  # (1, 0) is in its cone, off its lattice
    square = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
    for d, gens, relations in [(2, index_two, None), (2, index_two, [[[1, 0, 1], [0, 2, 0]]]),
                               (3, square, None), (3, square, [[[1, 0, 0, 1], [0, 1, 1, 0]]]),
                               (3, [[1, 0, 1], [1, 1, 1], [1, 2, 1]], None),
                               (2, [[2, 1], [0, 3]], None)]:
        # a supplied set of a non-free chart adds the Smith form of its
        # rows, which decides whether they span the integer kernel
        expected = 1 if relations is None else 2
        calls.clear()
        m = validate(MonoidSpec.make(d, gens, relations), 6)
        assert len(calls) == expected, (gens, relations)
        assert faces(m) and len(calls) == expected, (gens, relations)


@pytest.mark.parametrize("bound", [2.5, 2.0, True, False, "3", None])
def test_degree_bound_must_be_an_int(bound):
    for gens in ([[1, 0], [0, 1]], [[1, 0], [1, 1], [1, 2]]):
        with pytest.raises(InvalidMonoidSpec, match=re.escape(f"degree bound {bound!r}")):
            validate(MonoidSpec.make(2, gens), bound)


@pytest.mark.parametrize("spec, bound", [
    pytest.param(MonoidSpec(2, ((1.5, 0), (0, 1))), 20, id="float-generator"),
    pytest.param(MonoidSpec(1, ((2.5,), (3,))), 4, id="float-generator-saturation"),
    pytest.param(MonoidSpec(2, ((True, 0), (0, 1))), 20, id="bool-generator"),
    pytest.param(MonoidSpec(1, ((1,), (2,)), (((2, 0), (0, 1.0)),)), 20, id="float-relation"),
])
def test_constructed_specs_follow_the_type_rule_of_make(spec, bound):
    # floats and bools built without ``make`` were accepted, or raised a bare
    # TypeError from the saturation box
    with pytest.raises(InvalidMonoidSpec, match="is not an integer"):
        validate(spec, bound)


@pytest.mark.parametrize("spec", [(1, [[1]]), [1, [[1]], None], {"ambient_rank": 1}, None],
                         ids=["tuple", "list", "dict", "none"])
def test_validate_takes_only_a_monoid_spec(spec):
    # a presentation is built by MonoidSpec.make; validate converts nothing
    with pytest.raises(InvalidMonoidSpec, match=f"not a {type(spec).__name__}$"):
        validate(spec)


def test_relation_synthesis_matches_supplied():
    synthesized = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]]))
    assert synthesized.relations == (((1, 0, 1), (0, 2, 0)),)


def test_faces_quadrant():
    assert [f.support for f in faces(quadrant())] == [(), (0,), (1,), (0, 1)]


def test_faces_log_point():
    assert [f.support for f in faces(n_monoid())] == [(), (0,)]


def test_faces_a1_cone_interior_ray_excluded():
    assert [f.support for f in faces(a1_cone())] == [(), (0,), (2,), (0, 1, 2)]


def test_faces_match_combinatorial_axiom_oracle():
    for gens in [[(1,)], [(1, 0), (0, 1)], [(1, 0), (1, 1), (1, 2)],
                 [(1, 0), (0, 1), (1, 1)], [(2, 1), (1, 2)]]:
        m = validate(MonoidSpec.make(len(gens[0]), [list(g) for g in gens]))
        got = {f.support for f in faces(m)}
        assert got == face_supports_by_axiom([tuple(g) for g in gens], 10)


def _assert_certificates_exact(m):
    """Every face's certificate vanishes exactly on its support and is
    positive on every other generator."""
    for f in faces(m):
        for i, g in enumerate(m.generators):
            value = sum(u * x for u, x in zip(f.certificate, g))
            if i in f.support:
                assert value == 0, (m.generators, f)
            else:
                assert value > 0, (m.generators, f)


def _corpus_charts():
    return [validate(load_chart(corpus_path(name)).spec)
            for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]


def test_face_certificates_are_exact():
    for m in [quadrant(), a1_cone(), *_corpus_charts()]:
        _assert_certificates_exact(m)


def _random_valid_charts(rng, count):
    """Seeded valid charts with d <= 4 and up to 6 generators of entries
    in [-2, 3]; about 30% of the drawn sets get a multiple of one generator
    added, which puts two generators on one ray."""
    while count:
        d, k = rng.randint(1, 4), rng.randint(1, 6)
        gens = [[rng.randint(-2, 3) for _ in range(d)] for _ in range(k)]
        if rng.random() < 0.3:
            gens.append([rng.choice((2, 3)) * x for x in rng.choice(gens)])
        try:
            m = validate(MonoidSpec.make(d, gens), degree_bound=4)
        except ChartError:
            continue
        count -= 1
        yield m


def _shares_a_ray(gens):
    return any(rank([g, h], len(g)) == 1
               for g, h in itertools.combinations(gens, 2))


def test_faces_agree_with_the_lp_oracle_on_random_charts():
    low_rank = shared_ray = 0
    for m in _random_valid_charts(random.Random(14), 200):
        got = faces(m)
        assert [f.support for f in got] == [s for s, _ in faces_by_lp(m)], m.generators
        _assert_certificates_exact(m)
        low_rank += m.gp_lattice_rank < m.ambient_rank
        shared_ray += _shares_a_ray(m.generators)
    assert low_rank >= 50 and shared_ray >= 20, (low_rank, shared_ray)


def test_faces_solve_no_lp(monkeypatch):
    charts = [*_corpus_charts(), square_cone(), cube_cone(), hexagon_cone(), plane_in_z3()]

    def refuse(*args):
        raise AssertionError("faces must not solve an LP")
    for name in ("strict_functional", "solve_standard_form", "in_cone"):
        monkeypatch.setattr(ratlp, name, refuse)
    for m in charts:
        assert faces(m)


def test_facet_minors_build_no_matrix(monkeypatch):
    # faces reads the lattice coordinates validate kept: it runs no Smith
    # form and builds no generator matrix, neither for the cone nor for an
    # (r-1)-minor, whose determinant runs on the kept rows
    charts = [square_cone(), cube_cone(), hexagon_cone()]

    def refuse(*args):
        raise AssertionError("faces must build no matrix")
    for module in (abgrp, monoid):
        for name in ("smith_normal_form", "generator_matrix"):
            monkeypatch.setattr(module, name, refuse)
    for m in charts:
        assert faces(m), m.generators


def square_cone():
    return validate(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]), 4)


def cube_cone():
    return validate(MonoidSpec.make(4, [[1, *e] for e in itertools.product((0, 1), repeat=3)]),
                    3)


def hexagon_cone():
    """(1, x, y) over the 7 lattice points of the hexagon with vertices
    +-(1, 0), +-(0, 1), +-(1, 1); relation synthesis fails at degree 2, so
    degree bound 1."""
    points = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
    return validate(MonoidSpec.make(3, [[1, x, y] for x, y in points]), 1)


def plane_in_z3():
    """The A1 cone in the plane z = x of Z^3: rank 2 in Z^3."""
    return validate(MonoidSpec.make(3, [[1, 0, 1], [1, 1, 1], [1, 2, 1]]))


@pytest.mark.parametrize("chart, counts", [
    # the cone over a square: 4 rays and 4 two-faces
    (square_cone, {0: 1, 1: 4, 2: 4, 4: 1}),
    # the cone over a cube: its 8 vertices, 12 edges and 6 squares
    (cube_cone, {0: 1, 1: 8, 2: 12, 4: 6, 8: 1}),
    # the hexagon's 6 vertices and 6 edges; the centre lies on no proper face
    (hexagon_cone, {0: 1, 1: 6, 2: 6, 7: 1}),
    # the middle generator lies on no ray
    (plane_in_z3, {0: 1, 1: 2, 3: 1}),
], ids=["square", "cube", "hexagon", "rank-2-in-z3"])
def test_hand_counted_face_lattices(chart, counts):
    m = chart()
    found = faces(m)
    assert len(found) == sum(counts.values())
    assert dict(collections.Counter(len(f.support) for f in found)) == counts
    _assert_certificates_exact(m)


def test_stalk_examples():
    q, r = stalk(quadrant(), face_with_support(quadrant(), [0]))
    assert r == 1 and q.gp_lattice_rank == 1
    m = n_monoid()
    q, r = stalk(m, face_with_support(m, []))
    assert r == 1 and q.generators == ((1,),)
    a = a1_cone()
    q, r = stalk(a, face_with_support(a, [0, 1, 2]))
    assert r == 0 and q.generator_count == 0


def test_stalk_requires_a_face():
    a = a1_cone()
    with pytest.raises(NotAFace):
        face_with_support(a, [1])


def test_face_index_out_of_range():
    a = a1_cone()
    for support in ([7], [0, 3], [-1]):
        with pytest.raises(NotAFace, match="out of range"):
            face_with_support(a, support)
    with pytest.raises(NotAFace, match="supporting functional"):
        face_with_support(a, [1])


def test_face_index_must_not_repeat():
    # [0, 0] was reported as admitting no supporting functional, although
    # {0} is a face
    a = a1_cone()
    for support, named in (([0, 0], [0]), ([2, 0, 2, 0], [0, 2]), ([0, 2, 2], [2])):
        with pytest.raises(NotAFace, match=re.escape(f"indices {named} are repeated")):
            face_with_support(a, support)
    assert face_with_support(a, [0]).support == (0,)


@pytest.mark.parametrize("index", [0.7, "2", True, 2.0, None])
def test_face_index_must_be_an_int(index):
    # int() used to truncate: [0.7] gave the face {0} and ['2'] the face {2}
    with pytest.raises(NotAFace, match=re.escape(f"generator index {index!r}")):
        face_with_support(a1_cone(), [index])


def test_stalk_rank_monotone_under_inclusion():
    for m in [quadrant(), a1_cone()]:
        fs = faces(m)
        ranks = {f.support: stalk(m, f)[1] for f in fs}
        for f in fs:
            for g in fs:
                if set(f.support) <= set(g.support):
                    assert ranks[g.support] <= ranks[f.support]


def test_vertex_is_unique_maximal_rank_face():
    for m in [n_monoid(), quadrant(), a1_cone()]:
        tops = [f.support for f in faces(m)
                if stalk(m, f)[1] == m.gp_lattice_rank]
        assert tops == [()]


def test_stalk_of_nonsaturated_sublattice_presentation():
    # generators span an index-2 sublattice; the quotient must still be
    # presented torsion-free
    m = validate(MonoidSpec.make(2, [[2, 0], [1, 1]]))
    q, r = stalk(m, face_with_support(m, [0]))
    assert r == 1 and q.gp_lattice_rank == 1  # stalk's validate returned: sharp


def _refuse_synthesis(monkeypatch):
    def refuse(*args):
        raise AssertionError("a stalk keeps the chart's relations")
    monkeypatch.setattr(monoid, "_synthesize_relations", refuse)


def test_cube_stalks_keep_the_quadrics(monkeypatch):
    # the cube cone validates with its 12 quadrics at degree bound 6; a
    # kernel basis re-synthesized for the stalk used to stop 18 of its 28
    # faces, the vertex among them
    gens = [[1, *e] for e in itertools.product((0, 1), repeat=3)]
    m = validate(MonoidSpec.make(4, gens, quadric_relations(gens)), 6)
    _refuse_synthesis(monkeypatch)
    found = faces(m)
    assert len(found) == 28
    # the vertex, 8 rays, 12 two-faces, 6 facets and the dense face
    stalk_rank = {0: 4, 1: 3, 2: 2, 4: 1, 8: 0}
    for f in found:
        q, r = stalk(m, f)
        assert r == q.gp_lattice_rank == stalk_rank[len(f.support)], f.support
        assert len(q.relations) == 12 and q.degree_bound == 6
        _assert_presented(q)


def _assert_presented(q):
    """The stalk's relations connect every fiber of it that the vector
    oracle can list, up to its degree bound."""
    degrees = [q.degree(g) for g in q.generators]
    bound = q.degree_bound
    while _vector_count(degrees, bound) > 3000:
        bound -= 1
    congruence_complete_by_vectors(q.spec, q.relations, degrees, bound)


# fs cones as (ambient rank, generators): the square, the A1 cone in the
# plane z = x of Z^3 and the Hilbert cones a = 1..4.  The kernel basis
# presents the first four; a = 3, 4 need their quadrics.
FS_CONES = [
    (3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]),
    (3, [[1, 0, 1], [1, 1, 1], [1, 2, 1]]),
    *((2, [[1, i] for i in range(a + 1)]) for a in (1, 2, 3, 4)),
]


def test_projected_presentations_pass_the_vector_oracle(monkeypatch):
    # seeded unimodular images of the fs cones, generators shuffled, with
    # relations synthesized where the kernel basis suffices and the
    # quadrics supplied otherwise or at random
    rng = random.Random(16)
    charts = []
    for i in range(30):
        d, gens = FS_CONES[i % len(FS_CONES)]
        u = random_unimodular(rng, d)
        gens = [[sum(a * x for a, x in zip(row, g)) for row in u] for g in gens]
        rng.shuffle(gens)
        supplied = i % len(FS_CONES) > 3 or rng.random() < 0.5
        charts.append(validate(MonoidSpec.make(
            d, gens, quadric_relations(gens) if supplied else None), 6))
    _refuse_synthesis(monkeypatch)
    presented = 0
    for m in charts:
        for f in faces(m):
            q, _ = stalk(m, f)
            _assert_presented(q)
            presented += q.gp_lattice_rank < q.generator_count
    assert presented >= 50, presented


def test_kummer_inclusion_matrices():
    # mu_n is the cokernel of the Kummer inclusion P^gp -> (1/n)P^gp, which
    # is multiplication by n on Z^r
    for m, n in ((n_monoid(), 2), (quadrant(), 3), (a1_cone(), 1)):
        assert mu(m, n) == cokernel(diagonal([n] * m.gp_lattice_rank), m.gp_lattice_rank)


def test_kummer_composition():
    # the Kummer extensions of index 2 and 3 compose to index 6: mu_6
    # reduces onto mu_2 and mu_3
    tower = mu_tower(a1_cone())
    assert tower.transition_consistent(6, 2) and tower.transition_consistent(6, 3)


def test_mu_examples():
    for n in (1, 2, 5, 8):
        assert mu(n_monoid(), n) == FgAbelianGroup.cyclic(n)
    assert mu(quadrant(), 2) == FgAbelianGroup(0, (2, 2))
    assert mu(a1_cone(), 3) == FgAbelianGroup(0, (3, 3))
    # oracle: SNF of n*I_r
    assert mu(quadrant(), 2) == cokernel(diagonal([2, 2]), 2)


def test_mu_tower_coherence_via_tensor_mod():
    for m in [n_monoid(), quadrant(), a1_cone()]:
        r = m.gp_lattice_rank
        free = FgAbelianGroup.free(r)
        for big in range(1, 25):
            for n in (d for d in range(1, big + 1) if big % d == 0):
                assert tensor_mod(mu(m, big), n) == mu(m, n)
                assert tensor_mod(free, n) == mu(m, n)


def test_trivial_monoid():
    t = validate(MonoidSpec.make(0, []))
    assert t.gp_lattice_rank == 0
    assert [f.support for f in faces(t)] == [()]
    assert mu(t, 7) == FgAbelianGroup.trivial()


def test_face_axiom_on_bounded_elements():
    # the certificate vanishes exactly on face elements
    m = a1_cone()
    for f in faces(m):
        cert = f.certificate
        for i, g in enumerate(m.generators):
            v = sum(u * x for u, x in zip(cert, g))
            assert (v == 0) == (i in f.support)


def test_relation_verification_is_exact_on_random_valid_relations():
    rng = random.Random(2)
    m = a1_cone()
    base_r, base_s = m.relations[0]
    for _ in range(10):
        # scaled relations remain valid, but for c > 1 they span only the
        # index-c sublattice of the kernel, and validate refuses them
        c = rng.randrange(1, 4)
        rel = (tuple(c * x for x in base_r), tuple(c * x for x in base_s))
        spec = MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [rel])
        monoid._verify_relation(spec, rel)
        if c == 1:
            assert validate(spec).relations == (rel,)
            continue
        with pytest.raises(RelationSynthesisIncomplete, match=f"invariant factor {c} "):
            validate(spec, 3)  # below the walk's witness (2, 2) at degree 4


def _smith(spec):
    """U, the nonzero invariant factors and V of the Smith form of the
    generator matrix, as validate passes them on."""
    u, diag, v = smith_normal_form(generator_matrix(spec.generators, spec.ambient_rank),
                                   len(spec.generators))
    return u, [x for x in diag if x != 0], v


def _box_code(point, box):
    """The index of a point in the lexicographic order of the box (lo, hi),
    by Horner's rule: the code validate's walk and scan give it."""
    code = 0
    for x, a, b in zip(point, *box):
        code = code * (b - a + 1) + x - a
    return code


def _box_point(code, box):
    """The point of the box with the given lexicographic index."""
    point = []
    for a, b in reversed(list(zip(*box))):
        code, digit = divmod(code, b - a + 1)
        point.append(a + digit)
    return tuple(reversed(point))


def test_box_codes_are_lexicographic_indices():
    rng = random.Random(26)
    for _ in range(60):
        d = rng.randint(1, 4)
        lo = [rng.randint(-3, 0) for _ in range(d)]
        box = (lo, [rng.randint(0, 3) for _ in range(d)])
        origin, strides = monoid._codec(box)
        points = itertools.product(*(range(a, b + 1) for a, b in zip(*box)))
        for index, point in enumerate(points):
            assert origin + sum(x * s for x, s in zip(point, strides)) == index
            assert _box_code(point, box) == index and _box_point(index, box) == point


def test_degree_window_matches_the_filtered_box():
    # the rows list the box points of degree 0..bound in box order, with
    # their codes, for a last grading weight < 0, = 0 and > 0
    rng = random.Random(2007)
    weights, below_zero = collections.Counter(), 0
    for _ in range(300):
        d = rng.randint(1, 4)
        grading = [rng.randint(-3, 3) for _ in range(d)]
        box = ([rng.randint(-6, 0) for _ in range(d)], [rng.randint(0, 6) for _ in range(d)])
        bound = rng.randint(0, 12)
        want = [p for p in itertools.product(*(range(a, b + 1) for a, b in zip(*box)))
                if 0 <= sum(u * x for u, x in zip(grading, p)) <= bound]
        got = []
        for prefix, code, first, last in monoid._degree_window(grading, box, bound):
            for t in range(first, last + 1):
                point = (*prefix, t)
                assert code + t == _box_code(point, box)
                got.append(point)
        assert got == want, (grading, box, bound)
        weights[(grading[-1] > 0) - (grading[-1] < 0)] += 1
        below_zero += min(box[0]) < 0
    assert min(weights[-1], weights[0], weights[1]) >= 30 and below_zero >= 250, weights


def test_witnesses_in_boxes_with_negative_lows():
    # pinned from the scan and the walk on tuples, before both ran on codes
    five = MonoidSpec.make(4, [[2, 2, 0, 3], [-1, 2, 3, 0], [2, 1, 1, -1], [-1, 1, 1, 2],
                               [-3, 3, 2, 4]])
    with pytest.raises(SaturationFailure) as info:
        validate(five, 20)
    assert info.value.witness == (-8, 9, 6, 12)
    validate(five, 4)  # returns: saturated up to degree 4
    hexagon = MonoidSpec.make(3, [[1, 1, 0], [1, 0, 1], [1, -1, 1], [1, -1, 0], [1, 0, -1],
                                  [1, 1, -1]])
    with pytest.raises(RelationSynthesisIncomplete) as info:
        validate(hexagon)
    assert (info.value.witness, info.value.degree) == ((2, 0, 0), 2)
    for spec, bound in ((five, 20), (five, 4), (hexagon, 20)):
        grading = grading_of(spec)
        degrees = [sum(u * x for u, x in zip(grading, g)) for g in spec.generators]
        assert min(monoid._saturation_box(spec.generators, degrees, bound)[0]) < 0


def test_the_walk_is_linear_in_the_degree_bound():
    # the chart <1, 2> has one element per degree: a walk that re-counted
    # every layer after each degree took minutes at this bound
    start = time.perf_counter()
    m = validate(MonoidSpec.make(1, [[1], [2]]), 200_000)
    assert len(m.relations) == 1
    assert time.perf_counter() - start < 30


def _refuse_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a free chart must not enumerate monoid elements")
    monkeypatch.setattr(monoid, "_check_congruence_complete", refuse)


def test_free_chart_closed_form_agrees_with_the_bounded_checks(monkeypatch):
    rng = random.Random(11)
    sets = [(2, [[2, 1], [0, 3]])]
    while len(sets) < 40:
        k = rng.randint(1, 4)
        d = rng.randint(k, min(k + 1, 4))
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(k)]
        if rank(gens, d) == k:
            sets.append((d, gens))
    for d, gens in sets:
        spec = MonoidSpec.make(d, gens)
        with monkeypatch.context() as patch:
            _refuse_enumeration(patch)
            m = validate(spec, degree_bound=8)
        assert m.relations == () and m.gp_lattice_rank == len(gens)
        # the bounded checks, up to twice the largest generator degree; the
        # walk lists the elements that the tuple oracle lists, by code
        degrees = [m.degree(g) for g in gens]
        bound = 2 * max(degrees)
        box = monoid._saturation_box(m.generators, degrees, bound)
        elements = monoid._check_congruence_complete(spec, (), degrees, bound, box)
        want = set().union(*saturation_scan_inputs(spec, bound)[3])
        assert {_box_point(x, box) for x in elements} == want, gens
        u, factors, _ = _smith(spec)
        monoid._check_saturation(m.generators, m.grading, box, elements, bound, u, factors)


def test_free_chart_keeps_and_verifies_supplied_relations(monkeypatch):
    _refuse_enumeration(monkeypatch)
    trivial = ((1, 2), (1, 2))
    m = validate(MonoidSpec.make(2, [[2, 1], [0, 3]], [trivial]))
    assert m.relations == (trivial,)
    with pytest.raises(RelationInconsistent):
        validate(MonoidSpec.make(2, [[2, 1], [0, 3]], [((1, 0), (0, 1))]))


def test_free_chart_is_decided_at_any_degree_bound(monkeypatch):
    _refuse_enumeration(monkeypatch)
    gens = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    m = validate(MonoidSpec.make(4, gens), degree_bound=40)
    assert m.relations == () and m.gp_lattice_rank == 4


def test_an_oversized_saturation_box_is_refused_before_enumeration(monkeypatch):
    # the box of <2, 3> in Z at degree bound 10^6 has 10^6 + 1 points; it
    # used to be refused only after the monoid elements were listed
    _refuse_enumeration(monkeypatch)
    for spec in (MonoidSpec.make(1, [[2], [3]]),
                 MonoidSpec.make(1, [[2], [3]], [[[3, 0], [0, 2]]]),
                 MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]])):
        for bound in (10**6, 10**8):
            with pytest.raises(InvalidMonoidSpec, match="saturation box has"):
                validate(spec, bound)
    # the box of <1, 2> at degree bound B has B + 1 points: a cap of 10
    # admits bound 9, whose elements are then listed, and refuses bound 10
    monkeypatch.undo()
    monkeypatch.setattr(monoid, "_BOX_CAP", 10)
    validate(MonoidSpec.make(1, [[1], [2]]), 9)
    with pytest.raises(InvalidMonoidSpec, match="saturation box has 11 points"):
        validate(MonoidSpec.make(1, [[1], [2]]), 10)


def test_hilbert_cone_names_the_least_degree_disconnected_fiber():
    # (2,3) = (1,0) + (1,3) = (1,1) + (1,2) at degree 5; the kernel basis
    # leaves these two presentations apart, and every lower fiber connected
    with pytest.raises(RelationSynthesisIncomplete, match=r"\(2, 3\) at degree 5") as info:
        validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2], [1, 3]]))
    assert info.value.witness == (2, 3) and info.value.degree == 5


def test_the_walk_stops_at_the_first_disconnected_degree(monkeypatch):
    # the walk names the degree-5 witness having listed the layers of
    # degrees 1 to 4, and with the quadrics it lists every layer up to 20
    listed = []

    class Window(collections.deque):
        def append(self, layer):
            listed.append(layer)
            super().append(layer)

    monkeypatch.setattr(monoid, "deque", Window)
    gens = [[1, 0], [1, 1], [1, 2], [1, 3]]
    with pytest.raises(RelationSynthesisIncomplete, match=r"\(2, 3\) at degree 5"):
        validate(MonoidSpec.make(2, gens))
    assert len(listed) == 4
    listed.clear()
    validate(MonoidSpec.make(2, gens, quadric_relations(gens)))
    assert len(listed) == 20


def _random_relation_sets(rng, spec):
    """Kernel relations, the same less one, or either plus random valid
    pairs: a random combination of the kernel relations split into its two
    signs, plus a common random part on both sides."""
    _, factors, v = _smith(spec)
    kernel = monoid._synthesize_relations(list(zip(*v))[len(factors):])
    relations = list(kernel)
    mode = rng.choice(("kernel", "minus-one", "extra"))
    if relations and (mode == "minus-one" or mode == "extra" and rng.random() < 0.5):
        relations.pop(rng.randrange(len(relations)))
    if mode == "extra":
        for _ in range(rng.randint(1, 3)):
            z = [0] * len(spec.generators)
            for r, s in kernel:
                c = rng.randint(-2, 2)
                z = [x + c * (a - b) for x, a, b in zip(z, r, s)]
            common = [rng.randint(0, 1) for _ in z]
            relations.append((tuple(max(x, 0) + t for x, t in zip(z, common)),
                              tuple(max(-x, 0) + t for x, t in zip(z, common))))
    return tuple(relations)


def _vector_count(degrees, bound):
    """The exponent vectors of degree <= bound, counted degree by degree."""
    ways = [1] + [0] * bound
    for step in degrees:
        for b in range(step, bound + 1):
            ways[b] += ways[b - step]
    return sum(ways)


def test_element_oracle_agrees_with_the_vector_oracle():
    # and validate, given each set as supplied relations, refuses it exactly
    # when the walk does or the rows miss part of the integer kernel
    rng = random.Random(8)
    failed = unspanned = 0
    for _ in range(1000):
        d, k = rng.randint(1, 3), rng.randint(1, 6)
        gens = []
        while len(gens) < k:
            g = [rng.randint(-2, 3) for _ in range(d)]
            if sum(g) >= 1:
                gens.append(g)
        spec = MonoidSpec.make(d, gens)
        degrees = [sum(g) for g in spec.generators]
        bound = rng.randint(1, 14)
        # keep the exponent vectors the reference oracle lists desk-sized
        while _vector_count(degrees, bound) > 6000:
            bound -= 1
        relations = _random_relation_sets(rng, spec)
        try:
            want = congruence_complete_by_vectors(spec, relations, degrees, bound)
        except RelationSynthesisIncomplete:
            want = None
        walk = None
        box = monoid._saturation_box(spec.generators, degrees, bound)
        try:
            got = monoid._check_congruence_complete(spec, relations, degrees, bound, box)
        except RelationSynthesisIncomplete as err:
            failed += 1
            walk = (err.witness, err.degree)
            assert want is None, (spec, relations, bound)
            assert not fiber_connected_by_vectors(spec, relations, degrees,
                                                  err.witness, err.degree)
            # no fiber of lower degree is disconnected
            congruence_complete_by_vectors(spec, relations, degrees, err.degree - 1)
        else:
            assert {_box_point(x, box) for x in got} == want, (spec, relations, bound)
        r = rank(gens, d)
        rows = [[a - b for a, b in zip(*rel)] for rel in relations]
        spans = cokernel([[z[j] for z in rows] for j in range(k)], len(rows)) == FgAbelianGroup(r)
        supplied = MonoidSpec.make(d, gens, relations)
        try:
            validate(supplied, bound)
        except RelationSynthesisIncomplete as err:
            if err.degree is None:
                unspanned += 1
                assert walk is None and not spans, (supplied, bound)
            else:
                assert (err.witness, err.degree) == walk, (supplied, bound)
        except SaturationFailure:
            assert walk is None and spans, (supplied, bound)
        else:
            assert r == k or walk is None and spans, (supplied, bound)
    # both verdicts are well represented
    assert 200 <= failed <= 800 and unspanned > 50, (failed, unspanned)


# The non-free charts of the benchmark corpus (the Hilbert cone a = 1 is
# free), as (ambient rank, generators).
CORPUS_CONES = [
    (2, [[1, 0], [1, 1], [1, 2]]),
    (3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]),
    *((2, [[1, i] for i in range(a + 1)]) for a in (1, 2, 3, 4)),
    (4, [[1, x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]),
    *((1, [[a], [b]]) for a, b in ((2, 3), (3, 5), (4, 7), (5, 9))),
    (2, [[1, 0], [1, 1], [1, 3]]),
]


def _random_sharp_cones(rng, count):
    """Seeded non-free generator sets with a negative coordinate, each
    with the degrees of a random positive grading, >= 1 on every one."""
    while count:
        d, k = rng.randint(1, 3), rng.randint(2, 5)
        grading = [rng.randint(1, 3) for _ in range(d)]
        gens = []
        while len(gens) < k:
            g = [rng.randint(-4, 4) for _ in range(d)]
            if sum(u * x for u, x in zip(grading, g)) >= 1:
                gens.append(g)
        if rank(gens, d) == k or min(map(min, gens)) >= 0:
            continue
        count -= 1
        yield gens, [sum(u * x for u, x in zip(grading, g)) for g in gens]


def test_saturation_box_matches_the_lp_oracle():
    rng = random.Random(20150310)
    cases = []
    for d, gens in CORPUS_CONES:
        spec = MonoidSpec.make(d, gens)
        grading = grading_of(spec)
        degrees = [sum(u * x for u, x in zip(grading, g)) for g in gens]
        cases.extend((gens, degrees, bound) for bound in range(1, 41))
    for gens, degrees in _random_sharp_cones(rng, 250):
        cases.extend((gens, degrees, rng.randint(1, 40)) for _ in range(2))
    below_zero = 0
    for gens, degrees, bound in cases:
        lo, hi = monoid._saturation_box(gens, degrees, bound)
        assert (lo, hi) == saturation_box_by_lp(gens, degrees, bound), (gens, degrees, bound)
        below_zero += min(lo) < 0
    assert below_zero >= 200
    # a negative bound leaves nothing to bound: validate refuses it before
    # any box is built, and so does the oracle
    with pytest.raises(InvalidMonoidSpec):
        validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]]), -1)
    with pytest.raises(InvalidMonoidSpec):
        saturation_box_by_lp([[1, 0], [1, 1], [1, 2]], [1, 2, 3], -1)


def _stalk_presentations(monkeypatch, charts):
    """(spec, degree bound) of every quotient P/F that stalk validates on
    the charts, whether validate accepts it or not."""
    presented = []
    check = monoid.validate

    def recording(spec, degree_bound):
        presented.append((spec, degree_bound))
        return check(spec, degree_bound)

    with monkeypatch.context() as patch:
        patch.setattr(monoid, "validate", recording)
        for m in charts:
            for f in faces(m):
                try:
                    stalk(m, f)
                except ChartError:
                    pass
    return presented


def test_saturation_scan_matches_the_lp_oracle(monkeypatch):
    # the scan that keeps its Farkas certificates names the witness that the
    # scan with one LP per box point names, or none when that names none;
    # and scanning each row's interval of nonnegative certificates asks
    # in_cone the very points, in the same order, that testing every
    # certificate on every point asks
    square = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
    cube = [[1, *e] for e in itertools.product((0, 1), repeat=3)]
    five = [[2, 2, 0, 3], [-1, 2, 3, 0], [2, 1, 1, -1], [-1, 1, 1, 2], [-3, 3, 2, 4]]
    # the cube at bound 8: the oracle's LP per point takes 5 s at bound 20
    cases = [(MonoidSpec.make(3, square), 20),
             (MonoidSpec.make(4, cube, quadric_relations(cube)), 8),
             (MonoidSpec.make(4, five), 4), (MonoidSpec.make(4, five), 20)]
    for a in (1, 2, 3, 4):
        gens = [[1, i] for i in range(a + 1)]
        cases += [(MonoidSpec.make(2, gens, quadric_relations(gens)), bound) for bound in (20, 40)]
    # the gapped cone and the numerical semigroups
    cases += [(MonoidSpec.make(d, gens), 20) for d, gens in CORPUS_CONES[-5:]]
    charts = list(_random_valid_charts(random.Random(16), 60))
    cases += [(m.spec, m.degree_bound) for m in charts]
    cases += _stalk_presentations(monkeypatch, charts)
    witnesses = scanned = lps = 0
    seen = set()
    asked = []
    in_cone = ratlp.in_cone

    def recording(gens, point):
        asked.append(point)
        return in_cone(gens, point)

    for spec, bound in cases:
        free = rank(spec.generators, spec.ambient_rank) == len(spec.generators)
        if free or (spec.generators, bound) in seen:
            continue  # validate decides a free chart without the scan
        seen.add((spec.generators, bound))
        scanned += 1
        gens, grading, degrees, layers, _, u, factors = saturation_scan_inputs(spec, bound)
        want = saturation_scan_by_lp(gens, grading, degrees, layers, bound, u, factors)
        box = monoid._saturation_box(gens, degrees, bound)
        codes = {_box_code(x, box) for layer in layers for x in layer}
        reference, reference_asked = saturation_scan_by_certificates(
            gens, grading, box, layers, bound, u, factors)
        assert reference == want, (spec, bound)
        asked.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ratlp, "in_cone", recording)
            try:
                monoid._check_saturation(gens, grading, box, codes, bound, u, factors)
            except SaturationFailure as err:
                assert err.witness == want, (spec, bound)
                witnesses += 1
            else:
                assert want is None, (spec, bound)
        assert asked == reference_asked, (spec, bound)
        lps += len(asked)
    # the five-generator chart at bound 20, the semigroups, the gapped cone
    # and about 100 stalks are not saturated
    assert scanned > 200 and witnesses > 100, (scanned, witnesses)
    assert lps > 300, lps


# The fallback gradings: (chart, face) -> the sharpness certificate of the
# stalk, which is also its grading, for every stalk of the A1, square, cube
# and Hilbert a <= 4 cones with a generator of non-positive coordinate sum.
_FALLBACK_GRADINGS = {
    ("a1", (2,)): (-1,),
    ("square", (1,)): (-1, 1), ("square", (2,)): (1, -1), ("square", (3,)): (-1, -1),
    ("square", (1, 3)): (-1,), ("square", (2, 3)): (-1,),
    ("cube", (1,)): (1, 1, -1), ("cube", (2,)): (1, -1, 1), ("cube", (3,)): (1, -1, -1),
    ("cube", (4,)): (-1, 1, 1), ("cube", (5,)): (-1, 1, -1), ("cube", (6,)): (-1, -1, 1),
    ("cube", (7,)): (-1, -1, -1),
    ("cube", (1, 3)): (1, -1), ("cube", (1, 5)): (1, -1), ("cube", (2, 3)): (-1, 1),
    ("cube", (2, 6)): (-1, 1), ("cube", (3, 7)): (-1, -1), ("cube", (4, 5)): (1, -1),
    ("cube", (4, 6)): (-1, 1), ("cube", (5, 7)): (-1, -1), ("cube", (6, 7)): (-1, -1),
    ("cube", (1, 3, 5, 7)): (-1,), ("cube", (2, 3, 6, 7)): (-1,), ("cube", (4, 5, 6, 7)): (-1,),
    **{(f"hilbert{a}", (a,)): (-1,) for a in (1, 2, 3, 4)},
}


def test_fallback_gradings_are_pinned():
    # Where the coordinate sum is not positive on every generator, the
    # grading is the sharpness certificate that strict_functional's simplex
    # finds, and it sets each generator's degree and so what the degree
    # bound reaches.  A new LP formulation must keep these.
    square = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
    cube = [[1, *e] for e in itertools.product((0, 1), repeat=3)]
    specs = {"a1": a1_cone().spec, "square": MonoidSpec.make(3, square),
             "cube": MonoidSpec.make(4, cube, quadric_relations(cube))}
    for a in (1, 2, 3, 4):
        gens = [[1, i] for i in range(a + 1)]
        specs[f"hilbert{a}"] = MonoidSpec.make(2, gens, quadric_relations(gens))
    found = {}
    for name, spec in specs.items():
        m = validate(spec)
        for f in faces(m):
            q, _ = stalk(m, f)
            if any(sum(g) <= 0 for g in q.generators):
                assert q.grading == ratlp.strict_functional(
                    q.ambient_rank, [], list(q.generators)), (name, f.support)
                found[name, f.support] = q.grading
    assert found == _FALLBACK_GRADINGS
    # a chart whose fallback grading gives every generator a degree above
    # 40: at degree bound 20 the walk lists the origin alone
    m = validate(MonoidSpec.make(3, [[-3, 1, 1], [3, 3, -2], [2, 2, 3], [1, 0, 3]]))
    assert m.grading == ratlp.strict_functional(3, [], list(m.generators)) == (-1, 24, 14)
    assert [m.degree(g) for g in m.generators] == [41, 41, 88, 41]


def test_validate_solves_the_sharpness_lp_only_where_the_coordinate_sum_fails(monkeypatch):
    # the coordinate sum is >= 1 on every generator of the CLI corpus and of
    # the chart families N^d, the Hilbert cones and the square cone: it is
    # the grading and proves sharpness, so validate solves no LP on them
    positive = [load_chart(corpus_path(name)).spec
                for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    positive += [MonoidSpec.make(d, [[int(i == j) for j in range(d)] for i in range(d)])
                 for d in (1, 2, 3, 4)]
    for a in (1, 2, 3, 4):
        gens = [[1, i] for i in range(a + 1)]
        positive.append(MonoidSpec.make(2, gens, quadric_relations(gens)))
    positive.append(MonoidSpec.make(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]))
    calls = []
    solve = ratlp.strict_functional

    def counting(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(ratlp, "strict_functional", counting)
    for spec in positive:
        assert validate(spec).grading == (1,) * spec.ambient_rank
    assert calls == []
    m = validate(MonoidSpec.make(3, [[-3, 1, 1], [3, 3, -2], [2, 2, 3], [1, 0, 3]]))
    assert len(calls) == 1 and m.grading == (-1, 24, 14)


_NON_SHARP = [
    (1, ((1,), (-1,))),
    (2, ((1, 0), (-1, 0), (0, 1))),
    (2, ((1, 0), (0, 1), (-1, -1))),
    (2, ((1, 1), (-1, -1), (0, 1))),
    (2, ((2, 1), (-2, -1))),
    (3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))),
]


def test_sharpness_verdict_and_grading_on_random_specs():
    # validate refuses a spec as NotSharp exactly when the LP finds no
    # strict functional, whichever way it decides; a sharp spec's grading
    # is coprime and >= 1 on every generator, and so certifies sharpness
    rng = random.Random(20151019)
    specs = [MonoidSpec.make(d, gens) for d, gens in _NON_SHARP]
    while len(specs) < 400:
        d = rng.randint(1, 4)
        gens = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, 6))]
        if all(any(g) for g in gens):
            specs.append(MonoidSpec.make(d, gens))
    seen = collections.Counter()
    for spec in specs:
        lp = ratlp.strict_functional(spec.ambient_rank, [], list(spec.generators))
        try:
            m = validate(spec, 4)
        except NotSharp:
            assert lp is None, spec
            seen["not sharp"] += 1
            continue
        except (RelationSynthesisIncomplete, SaturationFailure):
            assert lp is not None, spec  # sharp, but refused by a later check
            continue
        assert lp is not None, spec
        assert math.gcd(*m.grading) == 1, spec
        assert all(m.degree(g) >= 1 for g in m.generators), spec
        seen["coordinate sum" if m.grading == (1,) * m.ambient_rank else "lp"] += 1
    assert min(seen["not sharp"], seen["coordinate sum"], seen["lp"]) >= 50, seen
