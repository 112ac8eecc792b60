"""Rank stratification tables and point classification."""

import pytest

from logcharts.errors import NotOnVariety
from logcharts.monoid import MonoidSpec, face_with_support, faces, stalk, validate
from logcharts.semialg import CxPoint
from logcharts.strata import stratify, stratum_of_point
from oracles import sample_stratum


def charts():
    return [
        validate(MonoidSpec.make(1, [[1]])),
        validate(MonoidSpec.make(2, [[1, 0], [0, 1]])),
        validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                 [[[1, 0, 1], [0, 2, 0]]])),
    ]


def test_stratify_log_point():
    table = stratify(charts()[0])
    assert table.ranks() == [0, 1]
    assert table.max_rank == 1


def test_stratify_quadrant_and_cone():
    n2, a1 = charts()[1], charts()[2]
    assert stratify(n2).ranks() == [0, 1, 1, 2]
    assert stratify(a1).ranks() == [0, 1, 1, 2]


def test_rank_at_least_recovers_closed_strata():
    table = stratify(charts()[1])
    assert len(table.rank_at_least(0)) == 4
    assert len(table.rank_at_least(1)) == 3
    assert [e.face.support for e in table.rank_at_least(2)] == [()]


def test_entries_cover_face_lattice_once():
    for m in charts():
        table = stratify(m)
        assert sorted(e.face.support for e in table.entries) == sorted(
            f.support for f in faces(m))


def test_vertex_uniqueness_and_monotonicity_hold_in_table():
    for m in charts():
        table = stratify(m)
        tops = [e for e in table.entries if e.stalk_rank == table.max_rank]
        assert len(tops) == 1 and tops[0].face.support == ()
        ranks = {e.face.support: e.stalk_rank for e in table.entries}
        for a in table.entries:
            for b in table.entries:
                if set(a.face.support) <= set(b.face.support):
                    assert ranks[b.face.support] <= ranks[a.face.support]


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
    vertex = table.entry_for(face_with_support(m, ()))
    assert vertex.stalk is m and vertex.stalk_rank == 2
    assert vertex.stalk.relations == m.spec.relations
    assert table.ranks() == [0, 1, 1, 2]
    for e in table.entries:
        if e.face.support:
            assert (e.stalk, e.stalk_rank) == stalk(m, e.face)
    # where the vertex stalk can be re-validated, it presents P the same way
    for m in charts():
        quotient, r = stalk(m, face_with_support(m, ()))
        vertex = stratify(m).entry_for(face_with_support(m, ()))
        assert vertex.stalk.generators == quotient.generators
        assert vertex.stalk.ambient_rank == quotient.ambient_rank and vertex.stalk_rank == r
