"""Rank stratification tables and point classification."""

import functools
import glob
import os

import pytest

from logcharts.cli import corpus_path, load_chart
from logcharts.errors import NotOnVariety, SaturationFailure
from logcharts.fibers import algebraic_kummer_fiber
from logcharts.monoid import MonoidSpec, face_with_support, faces, stalk, validate
from logcharts.semialg import CxPoint, distinguished_point, tau
from logcharts.strata import stratify, stratum_of_point
from oracles import sample_stratum, torsion_count

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def charts():
    return [
        validate(MonoidSpec.make(1, [[1]])),
        validate(MonoidSpec.make(2, [[1, 0], [0, 1]])),
        validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                 [[[1, 0, 1], [0, 2, 0]]])),
    ]


@functools.cache
def corpus():
    """The 4 bundled charts and the 16 reflexive cones."""
    paths = [corpus_path(name) for name in ("log_point", "affine_line", "plane_axes", "a1_cone")]
    paths += sorted(glob.glob(os.path.join(DATA, "reflexive_*.json")))
    return tuple(validate(load_chart(path).spec) for path in paths)


def ranks(m):
    return sorted(e.stalk_rank for e in stratify(m).entries)


def test_stratify_log_point():
    assert ranks(charts()[0]) == [0, 1]


def test_stratify_quadrant_and_cone():
    n2, a1 = charts()[1], charts()[2]
    assert ranks(n2) == [0, 1, 1, 2]
    assert ranks(a1) == [0, 1, 1, 2]


def test_rank_filter_recovers_closed_strata():
    entries = stratify(charts()[1]).entries
    assert len([e for e in entries if e.stalk_rank >= 0]) == 4
    assert len([e for e in entries if e.stalk_rank >= 1]) == 3
    assert [e.face.support for e in entries if e.stalk_rank >= 2] == [()]


def test_entries_cover_face_lattice_once():
    for m in (*charts(), *corpus()):
        supports = [e.face.support for e in stratify(m).entries]
        assert sorted(supports) == sorted(f.support for f in faces(m))
        assert len(set(supports)) == len(supports)


def test_vertex_uniqueness_and_monotonicity_hold_in_table():
    # the vertex is the one stratum of top rank, and face inclusion weakly
    # reverses rank
    for m in (*charts(), *corpus()):
        table = stratify(m)
        tops = [e for e in table.entries if e.stalk_rank == m.gp_lattice_rank]
        assert len(tops) == 1 and tops[0].face.support == ()
        ranks = {e.face.support: e.stalk_rank for e in table.entries}
        for a in table.entries:
            for b in table.entries:
                if set(a.face.support) <= set(b.face.support):
                    assert ranks[b.face.support] <= ranks[a.face.support]


def test_torsion_counts_match_the_stalks_and_the_algebraic_fibers():
    # the N-torsion of each fiber over F, counted with no Smith form: on the
    # angle side, the relation rows and a unit row on F count
    # Hom(P^gp/F^gp, Z/N), N^(stalk rank); over F's distinguished point, the
    # relations within F and a unit row off F count the algebraic fiber
    for m in corpus():
        k = m.generator_count
        unit = [[int(i == j) for j in range(k)] for i in range(k)]
        rows = [[a - b for a, b in zip(r, s)] for r, s in m.relations]
        for e in stratify(m).entries:
            on = set(e.face.support)
            within = [row for row, (r, s) in zip(rows, m.relations)
                      if all(i in on for i in range(k) if r[i] or s[i])]
            point = tau(distinguished_point(m, e.face))
            for n in (2, 3, 4):
                if n ** k > 50_000:
                    continue
                assert torsion_count(rows + [unit[i] for i in on], k, n) == n ** e.stalk_rank
                off = [unit[i] for i in range(k) if i not in on]
                assert torsion_count(within + off, k, n) == len(
                    algebraic_kummer_fiber(m, point, n))


def test_torsion_count_shows_the_z2_that_saturation_rules_out():
    # the fine chart <(2,0), (1,1), (0,1)>, with (2,0) + 2 (0,1) = 2 (1,1),
    # is not saturated, and validate refuses it; over the ray (2,0) the
    # angle side is Z x Z/2, so the count is N gcd(2, N) rather than N
    with pytest.raises(SaturationFailure):
        validate(MonoidSpec.make(2, [[2, 0], [1, 1], [0, 1]]))
    rows = [[1, -2, 2], [1, 0, 0]]
    assert [torsion_count(rows, 3, n) for n in (2, 3, 4, 6)] == [4, 3, 8, 12]


def test_stratum_of_point_examples():
    n1, n2, _ = charts()
    assert stratum_of_point(n1, CxPoint.exact_point([0])).support == ()
    assert stratum_of_point(n2, CxPoint.floating([3.0, 0.0])).support == (0,)
    assert stratum_of_point(n2, CxPoint.floating([2.0, 5.0])).support == (0, 1)


def test_stratum_of_point_rejects_off_variety():
    a1 = charts()[2]
    with pytest.raises(NotOnVariety):
        stratum_of_point(a1, CxPoint.exact_point([1, 2, 5]))


def test_stratum_of_point_flags_tolerance_misconfiguration():
    # numerically on the variety, but the tolerance 1e-9 declares z0
    # vanishing while z1 and z2 stay alive; {1, 2} is not a face, so the
    # classification must fail loudly rather than return a bogus stratum
    a1 = charts()[2]
    from logcharts.errors import NotAFace
    with pytest.raises(NotAFace):
        stratum_of_point(a1, CxPoint.floating([1e-12, 1e-6, 1.0]))


def test_sampled_points_classify_back_to_their_face():
    for m in charts():
        for f in faces(m):
            for pt in sample_stratum(m, f, 3, seed=99):
                assert stratum_of_point(m, pt).support == f.support


def test_exact_points_bypass_tolerance():
    n2 = charts()[1]
    from fractions import Fraction
    tiny = CxPoint.exact_point([Fraction(1, 10 ** 12), 0])
    # an exact tiny value is still nonzero, below the floating tolerance
    assert stratum_of_point(n2, tiny).support == (0,)


def test_stratify_keeps_the_supplied_relations_at_the_vertex():
    # the Hilbert cone a = 3 with its three quadrics; re-validating the
    # vertex stalk from its generators alone would re-synthesize relations
    # from the kernel, which leave the presentations of (2, 3) disconnected
    gens = [[1, 0], [1, 1], [1, 2], [1, 3]]
    quadrics = [[[1, 0, 1, 0], [0, 2, 0, 0]], [[1, 0, 0, 1], [0, 1, 1, 0]],
                [[0, 1, 0, 1], [0, 0, 2, 0]]]
    m = validate(MonoidSpec.make(2, gens, quadrics))
    table = stratify(m)
    [vertex] = [e for e in table.entries if not e.face.support]
    assert vertex.stalk is m and vertex.stalk_rank == 2
    assert vertex.stalk.relations == m.spec.relations
    assert ranks(m) == [0, 1, 1, 2]
    for e in table.entries:
        if e.face.support:
            assert (e.stalk, e.stalk_rank) == stalk(m, e.face)
    # where the vertex stalk can be re-validated, it presents P the same way
    for m in charts():
        quotient, r = stalk(m, face_with_support(m, ()))
        [vertex] = [e for e in stratify(m).entries if not e.face.support]
        assert vertex.stalk.generators == quotient.generators
        assert vertex.stalk.ambient_rank == quotient.ambient_rank and vertex.stalk_rank == r
