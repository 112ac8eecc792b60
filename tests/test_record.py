"""The value records: repr, equality, hash and immutability of every
record class, as the layers' callers and the CLI rely on them; a record's
public field names are the JSON keys the CLI writes."""

import copy
from fractions import Fraction

import pytest

from logcharts.abgrp import FgAbelianGroup
from logcharts.exactnum import GaussianRational, NonnegRoot
from logcharts.fibers import torsor_check, verify_fiber_equivalence
from logcharts.monoid import MonoidSpec, face_with_support, faces, validate
from logcharts.profin import EquivalenceCertificate, FiniteAbelianProSystem, LevelRecord
from logcharts.semialg import CxPoint, KnPoint, emit_equations
from logcharts.strata import stratify

_LINE = ("AffineMonoid(spec=MonoidSpec(ambient_rank=1, generators=((1,),), relations=None), "
         "gp_lattice_rank=1, relations=(), degree_bound=20, "
         "grading=(1,))")
# a stalk keeps the chart's relations, here none, with the face's coordinates deleted
_POINT = ("AffineMonoid(spec=MonoidSpec(ambient_rank=0, generators=(), relations=()), "
          "gp_lattice_rank=0, relations=(), degree_bound=20, "
          "grading=())")
_VERTEX = (f"StratumEntry(face=Face(support=(), certificate=(1,)), stalk_rank=1, "
           f"stalk={_LINE})")


def _line():
    return validate(MonoidSpec.make(1, [[1]]))


def _records():
    """(record, its repr) for one instance of each record class.  The
    strings are the reprs the records have printed since the record base
    replaced the standard library's, except that three fields took their
    JSON keys as names: ``FiberEquivalenceCertificate.face`` and
    ``.levels`` (were ``stratum_face`` and ``level_certificate``) and
    ``TorsorReport.n`` (was ``degree``), and that the fields holding no
    computed fact are gone: ``AffineMonoid.is_sharp`` and ``is_saturated``
    (always true), ``StratumTable.max_rank`` (the group rank, which the
    ``strata`` command reads off the chart), ``EquivalenceCertificate.bound``
    (the number of levels), and
    ``FiberEquivalenceCertificate.comparison_matrix`` (always the
    identity) and ``maps_realize_levels`` (implied by the verdict), and
    ``EquivalenceCertificate.note`` (a constant).  The fiber certificate
    gained the angle side's decision: ``pi0``, ``proved`` and
    ``checked_to_bound``."""
    line = _line()
    faces(line)  # fills the face cache, which the repr leaves out
    cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]]))
    ray = face_with_support(line, [0])
    return [
        (FgAbelianGroup(1, (2, 4)), "FgAbelianGroup(free_rank=1, torsion=(2, 4))"),
        (GaussianRational(Fraction(1, 2), Fraction(-3)),
         "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"),
        (NonnegRoot(Fraction(8), 6), "NonnegRoot(base=Fraction(2, 1), degree=2)"),
        (MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]),
         "MonoidSpec(ambient_rank=2, generators=((1, 0), (1, 1), (1, 2)), "
         "relations=(((1, 0, 1), (0, 2, 0)),))"),
        (face_with_support(cone, [0]),
         "Face(support=(0,), certificate=(0, 1))"),
        (line, _LINE),
        (FiniteAbelianProSystem(FgAbelianGroup.free(1)),
         "FiniteAbelianProSystem(group=FgAbelianGroup(free_rank=1, torsion=()))"),
        (LevelRecord(2, (2,), (2,), True),
         "LevelRecord(n=2, factors_a=(2,), factors_b=(2,), isomorphic=True)"),
        (EquivalenceCertificate(True, (LevelRecord(1, (), (), True),), None),
         "EquivalenceCertificate(equivalent=True, levels=(LevelRecord(n=1, "
         f"factors_a=(), factors_b=(), isomorphic=True),), witness_level=None)"),
        (emit_equations(cone, "kn"),
         "BinomialSystem(variable_count=3, equations=(((1, 0, 1), (0, 2, 0)),), "
         "target='kn')"),
        (CxPoint.exact_point([1, Fraction(1, 2), 0]),
         "CxPoint(values=(GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), "
         "GaussianRational(re=Fraction(1, 2), im=Fraction(0, 1)), "
         "GaussianRational(re=Fraction(0, 1), im=Fraction(0, 1))), exact=True)"),
        (KnPoint.exact_point([(1, Fraction(1, 4)), (Fraction(4), 0)]),
         "KnPoint(values=((NonnegRoot(base=Fraction(1, 1), degree=1), Fraction(1, 4)), "
         "(NonnegRoot(base=Fraction(4, 1), degree=1), Fraction(0, 1))))"),
        (stratify(line).entries[0], _VERTEX),
        (stratify(line),
         f"StratumTable(monoid={_LINE}, entries=({_VERTEX}, StratumEntry(face=Face("
         f"support=(0,), certificate=(0,)), stalk_rank=0, stalk={_POINT})))"),
        (verify_fiber_equivalence(line, ray, 2)[1],
         "FiberEquivalenceCertificate(face=(0,), torus_rank=0, pi0=(), proved=True, bound=2, "
         "checked_to_bound=True, levels="
         "EquivalenceCertificate(equivalent=True, levels=(LevelRecord(n=1, "
         "factors_a=(), factors_b=(), isomorphic=True), LevelRecord(n=2, factors_a=(), "
         "factors_b=(), isomorphic=True)), witness_level=None))"),
        (torsor_check(line, KnPoint.exact_point([(1, 0)]), 2)[1],
         "TorsorReport(n=2, group_order=2, fiber_size=2, preserves_fiber=True, "
         "free=True, transitive=True, orbit_table=(0, 1))"),
    ]


def test_every_record_class_keeps_its_repr():
    records = _records()
    assert len({type(record) for record, _ in records}) == 16
    for record, text in records:
        assert repr(record) == text


def test_frozen_records_compare_hash_and_refuse_assignment():
    for record, _ in _records():
        twin = copy.copy(record)
        assert twin is not record and twin == record and not twin != record
        assert record != (record,)
        assert hash(twin) == hash(record)
        for name in vars(record):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert len({FgAbelianGroup(1, (2,)), FgAbelianGroup(1, (2,)), FgAbelianGroup(0)}) == 2
    assert LevelRecord(2, (2,), (2,), True) != LevelRecord(2, (2,), (2,), False)
    # a rational root equals, and hashes like, its Fraction
    assert NonnegRoot(Fraction(4), 2) == Fraction(2)
    assert hash(NonnegRoot(Fraction(4), 2)) == hash(Fraction(2))


def test_affine_monoid_is_hashable_frozen_and_ignores_its_face_cache():
    cached, bare = _line(), _line()
    faces(cached)
    assert cached._faces is not None and bare._faces is None
    assert cached == bare and hash(cached) == hash(bare)
    assert len({cached, bare, validate(MonoidSpec.make(1, [[2]]))}) == 2
    for name in vars(bare):
        with pytest.raises(AttributeError):
            setattr(bare, name, None)
    assert bare._faces is None


def test_constructors_take_fields_by_position_or_keyword_with_defaults():
    assert FgAbelianGroup(2) == FgAbelianGroup(free_rank=2, torsion=())
    assert GaussianRational(1) == GaussianRational(re=Fraction(1), im=Fraction(0))
    assert MonoidSpec(1, ((1,),)).relations is None
    assert MonoidSpec(1, ((1,),)) == MonoidSpec(ambient_rank=1, generators=((1,),), relations=None)
    # __post_init__ still runs: it normalizes and validates
    assert FgAbelianGroup(0, [2]).torsion == (2,)
    for make in (lambda: FgAbelianGroup(-1), lambda: FgAbelianGroup(0, [2.0])):
        with pytest.raises(ValueError):
            make()
    for make in (lambda: FgAbelianGroup(), lambda: FgAbelianGroup(1, (), 3),
                 lambda: LevelRecord(1, (), ()), lambda: FgAbelianGroup(1, rank=2),
                 lambda: FgAbelianGroup(1, free_rank=1)):
        with pytest.raises(TypeError):
            make()
