"""Fiber models over the strata and the fiberwise comparison.

Over a stratum of rank r the log model fibers in an r-torus, while the
n-th root construction fibers in the classifying stack of a group of
order n^r.  The comparison between them is, on fundamental groups, the
coordinatewise reduction Z^r -> (Z/n)^r, and the two towers agree after
profinite completion.  This module builds both fiber models, enumerates
actual Kummer-cover fibers over chart points, verifies the torsor law for
the deck action, and checks the tower equivalence level by level.

Fiber enumeration is exact whenever the base point is exact: circle
coordinates are rational turns, so n-th roots divide the turn by n and
add k/n, and nonnegative real roots are exact radicals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .abgrp import (FgAbelianGroup, IntMatrix, generator_matrix,
                    is_isomorphic, rank, tensor_mod)
from .errors import FalsifiedProperty, InvalidPoint, NotAFace, NotOnVariety
from .exactnum import turn_mod1, unit_from_turn_float
from .monoid import AffineMonoid, Face, face_with_support, stalk
from .profin import (EquivalenceCertificate, FiniteAbelianProSystem,
                     completion, equivalent_up_to, mu_tower)
from .semialg import (DEFAULT_TOLERANCE, CxPoint, KnPoint, Target,
                      check_membership, emit_equations)

_TURN_ACCEPT = 1e-7
_TURN_REJECT = 1e-4


@dataclass(frozen=True)
class KnFiberModel:
    """The log-model fiber over a stratum: an r-torus with free pi1."""

    stratum_face: Face
    torus_rank: int
    pi1: FgAbelianGroup

    def __post_init__(self):
        if self.pi1 != FgAbelianGroup.free(self.torus_rank):
            raise ValueError("pi1 of an r-torus must be free of rank r")


@dataclass(frozen=True)
class RootFiberTower:
    """The root-construction fiber over a stratum: the tower of
    classifying-space groups, level n of order n^r."""

    stratum_face: Face
    tower: FiniteAbelianProSystem


def kn_fiber(m: AffineMonoid, f: Face) -> KnFiberModel:
    """Torus fiber model over the face's stratum; rank is the stalk rank."""
    _, r = stalk(m, f)
    return KnFiberModel(f, r, FgAbelianGroup.free(r))


def root_fiber_tower(m: AffineMonoid, f: Face) -> RootFiberTower:
    """Level n is mu_n of the stalk monoid at the face."""
    quotient, _ = stalk(m, f)
    return RootFiberTower(f, mu_tower(quotient))


@dataclass(frozen=True)
class Pi1Comparison:
    """The comparison map on fundamental groups over one stratum at one
    level: Z^r -> (Z/n)^r, the identity matrix read mod n."""

    stratum_face: Face
    torus_rank: int
    modulus: int
    matrix: IntMatrix
    source: FgAbelianGroup
    target: FgAbelianGroup

    def matrix_mod(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(x % self.modulus for x in row) for row in self.matrix.entries)

    def induces_isomorphism(self) -> bool:
        """Does the matrix present an isomorphism source/mod -> target?

        For these towers that means the reduction of the matrix is
        invertible mod n and the truncated source matches the target."""
        if self.modulus == 1:
            return self.target == FgAbelianGroup.trivial()
        unimodular_mod_n = math.gcd(self.matrix.det(), self.modulus) == 1
        return unimodular_mod_n and is_isomorphic(
            tensor_mod(self.source, self.modulus), self.target)


def comparison_on_pi1(m: AffineMonoid, f: Face, n: int) -> Pi1Comparison:
    """The coordinatewise mod-n reduction from the torus pi1 to the level-n
    root fiber group (on the log point this is pi1 of z -> z^n)."""
    n = int(n)
    if n < 1:
        raise ValueError("level must be a positive integer")
    quotient, r = stalk(m, f)
    return Pi1Comparison(
        stratum_face=f,
        torus_rank=r,
        modulus=n,
        matrix=IntMatrix.identity(r),
        source=FgAbelianGroup.free(r),
        target=mu_tower(quotient).level(n),
    )


@dataclass(frozen=True)
class FiberEquivalenceCertificate:
    """Evidence that the two fiber towers agree after completion.

    ``levels`` carries the per-level invariant factors from the tower
    comparison; ``comparison_matrix`` is the single integer matrix whose
    mod-n reductions realize every level isomorphism."""

    stratum_face: tuple[int, ...]
    torus_rank: int
    bound: int
    comparison_matrix: IntMatrix
    level_certificate: EquivalenceCertificate
    maps_realize_levels: bool

    def to_json_dict(self):
        return {
            "face": list(self.stratum_face),
            "torus_rank": self.torus_rank,
            "bound": self.bound,
            "comparison_matrix": [list(row) for row in self.comparison_matrix.entries],
            "maps_realize_levels": self.maps_realize_levels,
            "levels": self.level_certificate.to_json_dict(),
        }


def verify_fiber_equivalence(m: AffineMonoid, f: Face,
                             bound: int) -> tuple[bool, FiberEquivalenceCertificate]:
    """Fiberwise profinite comparison over one stratum.

    Completes the torus fiber's pi1 = Z^r and compares it level by level
    with the root fiber tower, the mu-tower of the stalk, demanding that
    the mod-n reduction maps realize each level isomorphism.
    """
    quotient, r = stalk(m, f)
    ok, cert = equivalent_up_to(completion(FgAbelianGroup.free(r)),
                                mu_tower(quotient), bound)
    # The comparison matrix is the identity, so its mod-n reduction
    # realizes level n exactly when the two levels are isomorphic.
    realized = all(rec.isomorphic for rec in cert.levels)
    certificate = FiberEquivalenceCertificate(
        stratum_face=f.support,
        torus_rank=r,
        bound=bound,
        comparison_matrix=IntMatrix.identity(r),
        level_certificate=cert,
        maps_realize_levels=realized,
    )
    return ok and realized, certificate


def _exact_turns(point: KnPoint):
    return [point.angle(i) for i in range(point.arity)]


def _relation_turn_offset(relation, turns, exact: bool):
    """sum (r_j - s_j) * turn_j, which is an integer for a valid point.

    Floating turns are rounded to the nearest integer; a rounding
    deviation beyond the accept window is a tolerance breach.
    """
    r, s = relation
    if exact:
        total = sum((Fraction(rj) - Fraction(sj)) * t for rj, sj, t in zip(r, s, turns))
        if total.denominator != 1:
            raise InvalidPoint(
                f"point angles violate relation {relation} exactly")
        return int(total)
    total = sum((rj - sj) * t for rj, sj, t in zip(r, s, turns))
    nearest = round(total)
    deviation = abs(total - nearest)
    if deviation > _TURN_REJECT:
        raise NotOnVariety(deviation)
    if deviation > _TURN_ACCEPT:
        raise InvalidPoint(
            f"tolerance breach while filtering roots: relation {relation} "
            f"deviates by {deviation:.3e} turns")
    return nearest


def _root_choice_consistent(relations, offsets, u, n) -> bool:
    """Does the tuple of root indices satisfy every relation congruence
    sum (r_j - s_j) u_j = -offset (mod n)?"""
    for (r, s), c in zip(relations, offsets):
        acc = sum((rj - sj) * uj for rj, sj, uj in zip(r, s, u))
        if (acc + c) % n != 0:
            return False
    return True


def _validate_kn_point(m: AffineMonoid, p: KnPoint, tol: float):
    if p.arity != m.generator_count:
        raise InvalidPoint(
            f"point has {p.arity} coordinates, chart has {m.generator_count}")
    system = emit_equations(m, Target.KN_POINTS)
    ok, residual = check_membership(system, p, tol)
    if not ok:
        raise InvalidPoint(f"log point violates the relations (residual {residual:.3e})")


def kn_kummer_fiber(m: AffineMonoid, p: KnPoint, n: int,
                    tol: float = DEFAULT_TOLERANCE) -> list[KnPoint]:
    """The full fiber of the degree-n Kummer cover of the log model over p.

    Radii have unique nonnegative n-th roots; each circle coordinate has n
    roots, and a tuple of choices survives iff it satisfies every relation
    in the extended monoid.  The count is always n^r with r the group rank
    of the chart, independent of the stratum: the circle factors are what
    trivialize the ramification.  A count mismatch is a hard error.
    """
    n = int(n)
    if n < 1:
        raise ValueError("cover degree must be a positive integer")
    _validate_kn_point(m, p, tol)
    k = m.generator_count
    relations = list(m.relations)

    if p.exact:
        turns = _exact_turns(p)
        offsets = [_relation_turn_offset(rel, turns, True) for rel in relations]
        base_radii = [p.radius(i).root(n) for i in range(k)]
        base_turns = [t / n for t in turns]
    else:
        turns = [math.atan2(p.angle(i).imag, p.angle(i).real) / (2 * math.pi) % 1.0
                 for i in range(k)]
        offsets = [_relation_turn_offset(rel, turns, False) for rel in relations]
        base_radii = [p.radius(i) ** (1.0 / n) for i in range(k)]
        base_turns = [t / n for t in turns]

    fiber = []
    for u in itertools.product(range(n), repeat=k):
        if not _root_choice_consistent(relations, offsets, u, n):
            continue
        if p.exact:
            pairs = [(base_radii[i], turn_mod1(base_turns[i] + Fraction(u[i], n)))
                     for i in range(k)]
            fiber.append(KnPoint(tuple(pairs), True))
        else:
            pairs = [(base_radii[i],
                      unit_from_turn_float(base_turns[i] + u[i] / n))
                     for i in range(k)]
            fiber.append(KnPoint(tuple(pairs), False))

    expected = n ** m.gp_lattice_rank
    if len(fiber) != expected:
        raise FalsifiedProperty(
            f"Kummer fiber has {len(fiber)} points, expected n^r = {expected}; "
            f"this falsifies the torsor law and indicates a relation-set bug")
    return fiber


def algebraic_kummer_fiber(m: AffineMonoid, p: CxPoint, n: int,
                           tol: float = DEFAULT_TOLERANCE) -> list[CxPoint]:
    """The fiber of the degree-n Kummer cover of the complex model over p.

    Vanishing coordinates force the root 0, so the count is n^(rank of the
    point's stratum face): n^r on the dense torus, a single point over the
    vertex.  Relations touching a vanishing coordinate hold automatically
    (both sides vanish); the others impose congruences on the root
    choices exactly as in the log model.
    """
    n = int(n)
    if n < 1:
        raise ValueError("cover degree must be a positive integer")
    if p.arity != m.generator_count:
        raise InvalidPoint(
            f"point has {p.arity} coordinates, chart has {m.generator_count}")
    system = emit_equations(m, Target.COMPLEX_POINTS)
    ok, residual = check_membership(system, p, tol)
    if not ok:
        raise InvalidPoint(f"point violates the relations (residual {residual:.3e})")

    k = m.generator_count
    zero_tol = 0.0 if p.exact else tol
    support = [i for i in range(k) if not p.is_zero_at(i, zero_tol)]
    try:
        face = face_with_support(m, support)
    except NotAFace as err:
        raise InvalidPoint(f"vanishing pattern {support} is not a face: {err}") from err
    support_set = set(support)
    face_rank = rank(generator_matrix([m.generators[i] for i in support],
                                      m.ambient_rank)) if support else 0

    # Only relations fully supported on the nonvanishing coordinates
    # constrain the roots; the others vanish on both sides.
    active = []
    for r, s in m.relations:
        involved = {j for j in range(k) if r[j] or s[j]}
        if involved <= support_set:
            active.append((r, s))

    values = p.values if not p.exact else [v.to_complex() for v in p.values]
    turns = [math.atan2(values[i].imag, values[i].real) / (2 * math.pi) % 1.0
             if i in support_set else 0.0 for i in range(k)]
    offsets = [_relation_turn_offset(rel, turns, False) for rel in active]
    magnitudes = [abs(values[i]) ** (1.0 / n) if i in support_set else 0.0
                  for i in range(k)]

    choices = []
    free_axes = list(support)
    for u_partial in itertools.product(range(n), repeat=len(free_axes)):
        u = [0] * k
        for axis, ui in zip(free_axes, u_partial):
            u[axis] = ui
        if _root_choice_consistent(active, offsets, u, n):
            choices.append(tuple(u))

    expected = n ** face_rank
    if len(choices) != expected:
        raise FalsifiedProperty(
            f"algebraic Kummer fiber has {len(choices)} points, expected "
            f"n^(face rank) = {expected}; relation-set or tolerance bug")

    exact_fiber = _try_exact_algebraic_fiber(m, p, n, support_set, choices)
    if exact_fiber is not None:
        return exact_fiber

    fiber = []
    for u in choices:
        coords = []
        for i in range(k):
            if i not in support_set:
                coords.append(0j)
            else:
                coords.append(magnitudes[i]
                              * unit_from_turn_float(turns[i] / n + u[i] / n))
        fiber.append(CxPoint.floating(coords))
    return fiber


def _try_exact_algebraic_fiber(m, p, n, support_set, choices):
    """Exact realization when every root value is Gaussian rational:
    axis-aligned coordinates with perfect n-th power magnitudes and
    quarter-turn root angles.  Returns None when that fails."""
    from .exactnum import (GaussianRational, rational_nth_root,
                           unit_from_turn_exact)

    if not p.exact:
        return None
    polar = {}
    for i in range(m.generator_count):
        if i not in support_set:
            continue
        v = p.values[i]
        if v.im == 0:
            mag, turn = abs(v.re), (Fraction(0) if v.re > 0 else Fraction(1, 2))
        elif v.re == 0:
            mag, turn = abs(v.im), (Fraction(1, 4) if v.im > 0 else Fraction(3, 4))
        else:
            return None
        root_mag = rational_nth_root(Fraction(mag), n)
        if root_mag is None:
            return None
        polar[i] = (root_mag, turn)
    fiber = []
    for u in choices:
        coords = []
        for i in range(m.generator_count):
            if i not in support_set:
                coords.append(GaussianRational.of(0))
                continue
            root_mag, turn = polar[i]
            unit = unit_from_turn_exact(turn_mod1(turn / n + Fraction(u[i], n)))
            if unit is None:
                return None
            coords.append(GaussianRational.of(root_mag) * unit)
        fiber.append(CxPoint(tuple(coords), True))
    return fiber


@dataclass(frozen=True)
class TorsorReport:
    """Outcome of checking the deck action on an enumerated Kummer fiber."""

    degree: int
    group_order: int
    fiber_size: int
    preserves_fiber: bool
    free: bool
    transitive: bool
    orbit_table: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.preserves_fiber and self.free and self.transitive

    def to_json_dict(self):
        return {
            "n": self.degree,
            "group_order": self.group_order,
            "fiber_size": self.fiber_size,
            "preserves_fiber": self.preserves_fiber,
            "free": self.free,
            "transitive": self.transitive,
            "orbit_table": list(self.orbit_table),
        }


def _characters(m: AffineMonoid, n: int) -> list[tuple[int, ...]]:
    """The deck group as character data: tuples u in (Z/n)^k assigning the
    root-of-unity exponent u_i/n to the i-th generator, constrained to
    respect every relation.  This is the kernel of restriction from the
    extended circle-character lattice to the original one."""
    k = m.generator_count
    zero_offsets = [0] * len(m.relations)
    return [u for u in itertools.product(range(n), repeat=k)
            if _root_choice_consistent(list(m.relations), zero_offsets, u, n)]


def _act_exact(point: KnPoint, u, n) -> KnPoint:
    pairs = [(r, turn_mod1(a + Fraction(ui, n))) for (r, a), ui in zip(point.values, u)]
    return KnPoint(tuple(pairs), True)


def _act_float(point: KnPoint, u, n) -> KnPoint:
    pairs = [(r, a * unit_from_turn_float(Fraction(ui, n)))
             for (r, a), ui in zip(point.values, u)]
    return KnPoint(tuple(pairs), False)


def _kn_key_exact(point: KnPoint):
    return tuple((r.base, r.degree, a) for r, a in point.values)


def _kn_close(a: KnPoint, b: KnPoint, tol: float) -> bool:
    for (ra, aa), (rb, ab) in zip(a.values, b.values):
        if abs(ra - rb) > tol or abs(aa - ab) > tol:
            return False
    return True


def torsor_check(m: AffineMonoid, p: KnPoint, n: int,
                 tol: float = DEFAULT_TOLERANCE) -> tuple[bool, TorsorReport]:
    """Verify the deck action on the enumerated Kummer fiber over p.

    The group of order n^r acts by multiplying circle components by roots
    of unity.  Checks: (a) the action preserves the fiber, (b) no
    nonidentity character fixes a point, (c) one orbit covers the whole
    fiber.  The orbit table records, for each fiber point, the character
    index carrying the base point to it.
    """
    n = int(n)
    fiber = kn_kummer_fiber(m, p, n, tol)
    chars = _characters(m, n)
    expected_order = n ** m.gp_lattice_rank
    if len(chars) != expected_order:
        raise FalsifiedProperty(
            f"deck group has order {len(chars)}, expected n^r = {expected_order}")

    if p.exact:
        index = {_kn_key_exact(pt): i for i, pt in enumerate(fiber)}

        def locate(pt):
            return index.get(_kn_key_exact(pt))

        act = _act_exact
        same = lambda a, b: _kn_key_exact(a) == _kn_key_exact(b)
    else:
        def locate(pt):
            for i, candidate in enumerate(fiber):
                if _kn_close(pt, candidate, max(tol, 1e-7)):
                    return i
            return None

        act = _act_float
        same = lambda a, b: _kn_close(a, b, max(tol, 1e-7))

    preserves = True
    free = True
    for u in chars:
        identity = all(x == 0 for x in u)
        for pt in fiber:
            moved = act(pt, u, n)
            if locate(moved) is None:
                preserves = False
            if not identity and same(moved, pt):
                free = False

    orbit_table = [-1] * len(fiber)
    base = fiber[0]
    for ci, u in enumerate(chars):
        moved = act(base, u, n)
        where = locate(moved)
        if where is not None and orbit_table[where] == -1:
            orbit_table[where] = ci
    transitive = all(x >= 0 for x in orbit_table)

    report = TorsorReport(
        degree=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=preserves,
        free=free,
        transitive=transitive,
        orbit_table=tuple(orbit_table),
    )
    return report.ok, report
