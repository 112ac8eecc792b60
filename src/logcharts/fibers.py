"""Kummer-cover fibers over chart points and the fiberwise comparison.

Over a stratum of rank r the log model fibers in an r-torus, while the
n-th root construction fibers in the classifying stack of a group of
order n^r.  Both are fixed by the stalk rank r (``monoid.stalk``): the
torus has pi1 = Z^r, level n of the root tower is ``monoid.mu`` of the
stalk, and the comparison between them is, on fundamental groups, the
coordinatewise reduction Z^r -> (Z/n)^r; the two towers agree after
profinite completion.  This module checks that tower equivalence level
by level, enumerates actual Kummer-cover fibers over chart points, and
verifies the torsor law for the deck action.

A fiber point is a tuple of root indices u in (Z/n)^k solving the relation
congruences mod n; one Smith-form solver lists exactly those solutions,
the deck group is its solution set with zero offsets, and every fiber,
log or algebraic, exact or floating, is assembled from a table of each
coordinate's n roots.  The torsor check lifts fiber points back to root
indices.  A log point's circle coordinates are turns in both modes,
rational for exact points and floats for floating ones, so the n-th roots
of coordinate i are (t_i + j) / n turns either way, and each relation's
offset is the point's turn sum, rounded where it lies within the
tolerance of a whole turn and refused elsewhere.  Enumeration is exact
whenever the base point is exact: rational turns divide exactly, and
nonnegative real roots are exact radicals.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record
from .abgrp import FgAbelianGroup, generator_matrix, rank, smith_normal_form
from .errors import ChartError, FalsifiedProperty, InvalidPoint, NotAFace, NotOnVariety
from .monoid import DEFAULT_TOLERANCE, AffineMonoid, Face, face_with_support, stalk


class FiberEquivalenceCertificate(Record):
    """Evidence that the two fiber towers agree after completion.

    ``levels`` carries the per-level invariant factors from the tower
    comparison; ``comparison_matrix`` holds the rows of the single integer
    matrix whose mod-n reductions realize every level isomorphism."""

    stratum_face: tuple[int, ...]
    torus_rank: int
    bound: int
    comparison_matrix: tuple[tuple[int, ...], ...]
    level_certificate: EquivalenceCertificate
    maps_realize_levels: bool

    def to_json_dict(self):
        return {
            "face": list(self.stratum_face),
            "torus_rank": self.torus_rank,
            "bound": self.bound,
            "comparison_matrix": [list(row) for row in self.comparison_matrix],
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
    from .profin import completion, equivalent_up_to, mu_tower
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
        comparison_matrix=tuple(tuple(int(i == j) for j in range(r)) for i in range(r)),
        level_certificate=cert,
        maps_realize_levels=realized,
    )
    return ok and realized, certificate


def _float_turn(z: complex) -> float:
    """The angle of a nonzero complex number in turns, in [0, 1)."""
    return math.atan2(z.imag, z.real) / (2 * math.pi) % 1.0


def _turn_offsets(rows, turns, tol: float):
    """round(sum_j row_j t_j), the whole turns c by which the angles t meet
    each relation row.  A sum c + delta with chord |exp(2 pi i delta) - 1|
    above tol raises NotOnVariety; below it, every fiber point misses the
    relation by delta / n.  That chord is the log model's residual, so only
    a complex point, whose relative residual leaves small values' angles
    free, can fail here.  An exact complex point passes tol = inf: it meets
    its relations exactly, so only rounding parts its float sums from c."""
    from .exactnum import unit_from_turn_float
    totals = [sum(x * t for x, t in zip(row, turns)) for row in rows]
    chord = max((abs(unit_from_turn_float(t % 1) - 1.0) for t in totals), default=0.0)
    if chord > tol:
        raise NotOnVariety(chord)
    return [round(t) for t in totals]


# Fibers and deck groups are enumerated in full; refuse sizes beyond this.
_FIBER_CAP = 100_000


def _fiber_size(n: int, r: int):
    """Check n^r, the size of a degree-n Kummer fiber, against the cap."""
    if type(n) is not int or n < 1:
        raise ValueError(f"cover degree {n!r} is not a positive integer")
    size = n ** r
    if size > _FIBER_CAP:
        raise ChartError(
            f"a degree-{n} Kummer fiber has n^{r} = {size} points, above "
            f"the enumeration cap of {_FIBER_CAP}; lower the cover degree")


def _root_choices(rows, offsets, n: int, k: int):
    """Solve the relation congruences sum_j rows[i][j] u_j = -offsets[i]
    (mod n) for root indices u in (Z/n)^k.

    With the Smith form U rows V = D and u = V w, the system splits into
    one congruence d_j w_j = b_j (mod n) per axis, where b = -U offsets:
    gcd(d_j, n) solutions or none, every residue on an axis past the rank,
    and rows past k need b_j = 0.  Returns every solution, sorted
    lexicographically, and generators of the homogeneous solution group:
    (n / gcd(d_j, n)) V e_j for each axis with more than one solution.
    """
    u_mat, diag, v = smith_normal_form(rows, k)
    b = [-sum(map(operator.mul, row, offsets)) for row in u_mat] + [0] * k
    diag += (0,) * k
    solvable = not any(x % n for x in b[k:])
    axes, generators = [], []
    for j, column in enumerate(zip(*v)):
        g = math.gcd(diag[j], n)
        step = n // g
        solvable = solvable and b[j] % g == 0
        w0 = b[j] // g * pow(diag[j] // g, -1, step) % step if step > 1 else 0
        axes.append((range(w0, n, step), column))
        if g > 1:
            generators.append(tuple(step * x % n for x in column))
    solutions = [(0,) * k] if solvable else []
    for axis, column in axes:
        solutions = [tuple([(a + w * c) % n for a, c in zip(u, column)])
                     for u in solutions for w in axis]
    return sorted(solutions), generators


def _fiber_choices(rows, offsets, n: int, k: int, r: int, what: str):
    """``_root_choices``, hard-checked against the count n^r: a mismatch
    falsifies the torsor law and is raised, never warned about."""
    choices, generators = _root_choices(rows, offsets, n, k)
    if len(choices) != n ** r:
        raise FalsifiedProperty(
            f"{what} has {len(choices)} elements, expected n^{r} = {n ** r}; this "
            f"falsifies the torsor law and indicates a relation-set or tolerance bug")
    return choices, generators


def _assemble(table, choices):
    """Fiber points as coordinate tuples: root indices u pick table[i][u_i]
    from the n roots tabulated for coordinate i."""
    return [tuple(map(list.__getitem__, table, u)) for u in choices]


def _validate_point(m: AffineMonoid, p, target: Target, tol: float):
    from .semialg import check_membership, emit_equations
    if p.arity != m.generator_count:
        raise InvalidPoint(
            f"point has {p.arity} coordinates, chart has {m.generator_count}")
    ok, residual = check_membership(emit_equations(m, target), p, tol)
    if not ok:
        raise InvalidPoint(f"point violates the relations (residual {residual:.3e})")


def _relation_rows(relations):
    """The relation matrix: one row r - s per relation r = s."""
    return [[rj - sj for rj, sj in zip(r, s)] for r, s in relations]


def kn_kummer_fiber(m: AffineMonoid, p: KnPoint, n: int,
                    tol: float = DEFAULT_TOLERANCE) -> list[KnPoint]:
    """The full fiber of the degree-n Kummer cover of the log model over p.

    Radii have unique nonnegative n-th roots; circle coordinate i has the n
    roots t_i/n + j/n, tabulated once, and a tuple of root indices lies in
    the fiber iff it solves the relation congruences mod n, solved once by
    Smith form.  Points come in lexicographic order of root indices and
    are assembled from the tables, k n angles in all, not k n^r.  The count
    is always n^r with r the group rank of the chart, independent of the
    stratum: the circle factors are what trivialize the ramification.  A
    count mismatch is a hard error, and n^r above the enumeration cap is
    refused before anything is enumerated.
    """
    from .semialg import KnPoint, Target
    _validate_point(m, p, Target.KN_POINTS, tol)
    r = m.gp_lattice_rank
    _fiber_size(n, r)
    k = m.generator_count
    rows = _relation_rows(m.relations)
    choices, _ = _fiber_choices(rows, _turn_offsets(rows, [p.angle(i) for i in range(k)], tol),
                                n, k, r, "Kummer fiber")
    # Coordinate i takes only the n values (radius^(1/n), (t_i + j) / n turns).
    table = []
    for radius, turn in p.values:
        root = radius.root(n) if p.exact else radius ** (1.0 / n)
        table.append([(root, (turn + j) / n % 1) for j in range(n)])
    return [KnPoint(coords, p.exact) for coords in _assemble(table, choices)]


def algebraic_kummer_fiber(m: AffineMonoid, p: CxPoint, n: int,
                           tol: float = DEFAULT_TOLERANCE) -> list[CxPoint]:
    """The fiber of the degree-n Kummer cover of the complex model over p.

    Vanishing coordinates force the root 0, so the count is n^(rank of the
    point's stratum face): n^r on the dense torus, a single point over the
    vertex.  Relations touching a vanishing coordinate hold automatically
    (both sides vanish); the others impose congruences on the root
    choices exactly as in the log model.  The points are exact when p is
    and every chosen root is Gaussian rational.  A count above the
    enumeration cap is refused before anything is enumerated.
    """
    from .exactnum import unit_from_turn_float
    from .semialg import CxPoint, Target
    _validate_point(m, p, Target.COMPLEX_POINTS, tol)
    k = m.generator_count
    support = [i for i in range(k) if not p.is_zero_at(i, tol)]
    try:
        face = face_with_support(m, support)
    except NotAFace as err:
        raise InvalidPoint(f"vanishing pattern {support} is not a face: {err}") from err
    support_set = set(support)
    face_rank = rank(generator_matrix([m.generators[i] for i in support], m.ambient_rank),
                     len(support)) if support else 0
    _fiber_size(n, face_rank)

    # Only relations fully supported on the nonvanishing coordinates
    # constrain the roots; the others vanish on both sides.
    active = [(r, s) for r, s in m.relations
              if all(j in support_set for j in range(k) if r[j] or s[j])]

    values = p.values if not p.exact else [v.to_complex() for v in p.values]
    turns = [_float_turn(values[i]) if i in support_set else 0.0 for i in range(k)]
    rows = _relation_rows(active)
    magnitudes = [abs(values[i]) ** (1.0 / n) if i in support_set else 0.0
                  for i in range(k)]

    # Unit rows pin the root index of every vanishing coordinate to 0.
    pins = [[int(i == j) for i in range(k)] for j in range(k) if j not in support_set]
    offsets = _turn_offsets(rows, turns, math.inf if p.exact else tol) + [0] * len(pins)
    choices, _ = _fiber_choices(rows + pins, offsets, n, k, face_rank, "algebraic Kummer fiber")

    table = _exact_algebraic_table(p, n, support_set) if p.exact else None
    if table is not None:
        fiber = _assemble(table, choices)
        if all(c is not None for coords in fiber for c in coords):
            return [CxPoint(coords, True) for coords in fiber]
    # Coordinate i takes only the n roots |z_i|^(1/n) exp(2 pi i (t_i + j)/n).
    table = [[magnitudes[i] * unit_from_turn_float(turns[i] / n + j / n) for j in range(n)]
             if i in support_set else [0j] for i in range(k)]
    return [CxPoint.floating(coords) for coords in _assemble(table, choices)]


def _exact_algebraic_table(p, n, support_set):
    """Each coordinate's n roots as Gaussian rationals, None where a root is
    not one, if every nonvanishing coordinate is axis-aligned with a
    perfect n-th power magnitude; otherwise None."""
    from .exactnum import GaussianRational, rational_nth_root, unit_from_turn_exact
    table = []
    for i, v in enumerate(p.values):
        if i not in support_set:
            table.append([GaussianRational.of(0)])
            continue
        if v.im == 0:
            mag, turn = abs(v.re), (Fraction(0) if v.re > 0 else Fraction(1, 2))
        elif v.re == 0:
            mag, turn = abs(v.im), (Fraction(1, 4) if v.im > 0 else Fraction(3, 4))
        else:
            return None
        root_mag = rational_nth_root(Fraction(mag), n)
        if root_mag is None:
            return None
        units = (unit_from_turn_exact(turn / n + Fraction(j, n)) for j in range(n))
        table.append([None if unit is None else GaussianRational.of(root_mag) * unit
                      for unit in units])
    return table


class TorsorReport(Record):
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


def _root_indices(pt: KnPoint, base: KnPoint, n: int, tol: float):
    """The root indices c in (Z/n)^k with pt = c . base: base's radii, and
    angles base's plus c_i / n turns, compared exactly on integer numerators
    and denominators for exact points, and within tol (in radius and in
    radians of angle) for floating ones.  None off those radii or grid."""
    indices = []
    for (r, a), (r0, a0) in zip(pt.values, base.values):
        if pt.exact:
            c, rest = divmod((a.numerator * a0.denominator - a0.numerator * a.denominator) * n,
                             a.denominator * a0.denominator)
            off = rest or (r is not r0 and r != r0)
        else:
            steps = (a - a0) * n
            c = round(steps)
            off = abs(r - r0) > tol or 2 * math.pi * abs(steps - c) > n * tol
        if off:
            return None
        indices.append(c % n)
    return tuple(indices)


def _act(c, u, n: int):
    """The deck element u on root indices c: u_i / n turns on circle i."""
    return tuple([(a + b) % n for a, b in zip(c, u)])


def torsor_check(m: AffineMonoid, p: KnPoint, n: int,
                 tol: float = DEFAULT_TOLERANCE) -> tuple[bool, TorsorReport]:
    """Verify the deck action on the enumerated Kummer fiber over p.

    The deck group is the set of root-index tuples u solving the relation
    congruences mod n with zero offsets; u multiplies the i-th circle
    component by exp(2 pi i u_i / n).  Each fiber point is lifted once to
    its root indices c relative to the first point, the base: exactly for
    exact points, within max(tol, 1e-7) for floating ones, and to None for
    a point off the base's radii (which the action keeps) or off the 1/n
    grid around its angles, which is then never located.  u acts by
    c + u mod n, and images are located by dict lookup.  The flags are read
    off the orbit map u -> u . base: ``transitive`` iff it is onto the
    fiber; ``free`` iff it is injective, since stabilizers of an abelian
    group are constant on an orbit; ``preserves_fiber`` iff every image
    lies in the fiber and each Smith-form generator of the group carries
    every fiber point into it.  That is (1 + #generators) n^r actions.  The
    orbit table gives, per fiber point, the first character carrying the
    base point to it.
    """
    fiber = kn_kummer_fiber(m, p, n, tol)
    chars, generators = _fiber_choices(_relation_rows(m.relations), [0] * len(m.relations),
                                       n, m.generator_count, m.gp_lattice_rank, "deck group")
    lifts = [_root_indices(pt, fiber[0], n, max(tol, 1e-7)) for pt in fiber]
    index = {c: i for i, c in enumerate(lifts) if c is not None}
    images = [index.get(_act(lifts[0], u, n)) for u in chars]
    located = [i for i in images if i is not None]
    orbit_table = [-1] * len(fiber)
    for ci, where in enumerate(images):
        if where is not None and orbit_table[where] == -1:
            orbit_table[where] = ci
    preserves = len(located) == len(images) and all(
        c is not None and _act(c, g, n) in index for g in generators for c in lifts)

    report = TorsorReport(
        degree=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=preserves,
        free=len(set(located)) == len(located),
        transitive=all(x >= 0 for x in orbit_table),
        orbit_table=tuple(orbit_table),
    )
    return report.ok, report
