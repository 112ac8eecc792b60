"""Kummer-cover fibers over chart points and the fiberwise comparison.

Over a stratum of rank r the log model fibers in an r-torus, while the
n-th root construction fibers in the classifying stack of a group of
order n^r.  Both are fixed by the stalk rank r (``monoid.stalk``): the
torus has pi1 = Z^r, level n of the root tower is ``monoid.mu`` of the
stalk, and the two towers agree after profinite completion.  This module
checks that tower equivalence level by level, on invariant factors and
transition coherence; it does not build a comparison map.  It also
enumerates actual Kummer-cover fibers over chart points and verifies the
torsor law for the deck action.

A fiber point is a tuple of root indices u in (Z/n)^k solving K u =
-offsets (mod n), K the relation rows on the point's support and unit
rows pinning its other coordinates, kept with its Smith form on the chart
per support (``_angles``) for the fibers and the deck group (zero
offsets); every fiber, log or algebraic, is assembled from a table of
each coordinate's n roots, and the torsor check lifts each log fiber
point to its root indices against the point it covers.  Circle
coordinates are turns, so the n-th roots of coordinate i are (t_i + j) / n
turns.  A relation's offset is the point's turn sum, a whole number of
turns.  The point rules live in the point layer, and the fibers read
them: membership is semialg's ``check_membership``, a complex point's
stratum is ``strata.stratum_of_point``, and a log point's offsets are
semialg's integer turn sums.  A log point is exact, so its fiber is exact:
turns divide on integers, and nonnegative real roots are exact radicals.
A complex point's turns are floats, and its offsets their sums, rounded.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record
from .abgrp import FgAbelianGroup, generator_matrix, rank, smith_normal_form
from .errors import ChartError, FalsifiedProperty, InvalidLevel, InvalidPoint
from .monoid import AffineMonoid, Face, stalk


class FiberEquivalenceCertificate(Record):
    """Evidence that the two fiber towers agree after completion over the
    stratum of ``face`` (a generator support).

    ``levels`` is the tower comparison's certificate: the invariant factors
    of both towers at every level up to ``bound``, and its ``note`` on what
    such a level-wise check does not prove."""

    face: tuple[int, ...]
    torus_rank: int
    bound: int
    levels: EquivalenceCertificate


def verify_fiber_equivalence(m: AffineMonoid, f: Face,
                             bound: int) -> tuple[bool, FiberEquivalenceCertificate]:
    """Fiberwise profinite comparison over one stratum.

    Completes the torus fiber's pi1 = Z^r, r the stalk's closed-form rank,
    and compares it level by level with the root fiber tower, the mu-tower
    of the stalk's quotient, whose rank is validate's: the verdict is the
    tower comparison's, isomorphic levels and coherent transitions.
    A bad bound is refused before the stalk is computed.
    """
    from .profin import FiniteAbelianProSystem, _checked_bound, equivalent_up_to
    _checked_bound(bound)
    quotient, r = stalk(m, f)
    torus, root = (FiniteAbelianProSystem(FgAbelianGroup.free(k))
                   for k in (r, quotient.gp_lattice_rank))
    ok, cert = equivalent_up_to(torus, root, bound)
    return ok, FiberEquivalenceCertificate(face=f.support, torus_rank=r, bound=bound,
                                           levels=cert)


# Fibers and deck groups are enumerated in full; refuse sizes beyond this.
_FIBER_CAP = 100_000


def _angles(m: AffineMonoid, support: tuple[int, ...]):
    """K over points with nonvanishing coordinates ``support``, built once
    per chart and support into ``m._angles``: the rows r - s of the
    relations supported there (the others vanish on both sides), the Smith
    form of those rows plus unit rows pinning the other root indices to 0,
    and the rank r of the support's generators."""
    if m._angles is None:
        object.__setattr__(m, "_angles", {})
    found = m._angles.get(support)
    if found is None:
        k, inside = m.generator_count, set(support)
        rows = tuple(tuple(rj - sj for rj, sj in zip(r, s)) for r, s in m.relations
                     if inside.issuperset(j for j in range(k) if r[j] or s[j]))
        pins = tuple(tuple(int(i == j) for i in range(k)) for j in range(k) if j not in inside)
        r = m.gp_lattice_rank if len(support) == k else 0 if not support else rank(
            generator_matrix([m.generators[i] for i in support], m.ambient_rank), len(support))
        found = m._angles[support] = rows, smith_normal_form(rows + pins, k), r
    return found


def _root_choices(smith, offsets, n: int):
    """Solve K u = -offsets (mod n), missing offsets 0, for root indices u
    in (Z/n)^k, given the Smith form U K V = D of K.

    With u = V w, the system splits into one congruence d_j w_j = b_j
    (mod n) per axis, where b = -U offsets: gcd(d_j, n) solutions or none,
    every residue on an axis past the rank, and rows past k need b_j = 0.
    Returns every solution, sorted lexicographically, and generators of the
    homogeneous solution group: (n / gcd(d_j, n)) V e_j for each axis with
    more than one solution.
    """
    u_mat, diag, v = smith
    k = len(v)
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


def _fiber_size(r: int, n: int) -> int:
    """n^r, once the level n is a positive integer and n^r within the cap."""
    if type(n) is not int or n < 1:
        raise InvalidLevel(f"cover degree {n!r} is not a positive integer")
    if n ** r > _FIBER_CAP:
        raise ChartError(f"a degree-{n} Kummer fiber has n^{r} = {n ** r} points, above the "
                         f"enumeration cap of {_FIBER_CAP}; lower the cover degree")
    return n ** r


def _solve(angles, n: int, what: str, offsets=()):
    """``_root_choices`` of ``angles`` at level n for the relation rows'
    ``offsets`` (zero without them), checked: n^r against the cap before
    the solve, the count against n^r after it, a mismatch raised as a
    falsified torsor law."""
    _, smith, r = angles
    size = _fiber_size(r, n)
    choices, generators = _root_choices(smith, offsets, n)
    if len(choices) != size:
        raise FalsifiedProperty(
            f"{what} has {len(choices)} elements, expected n^{r} = {size}; this "
            f"falsifies the torsor law and indicates a relation-set bug")
    return choices, generators


def _assemble(table, choices):
    """Fiber points as coordinate tuples: root indices u pick table[i][u_i]
    from the n roots tabulated for coordinate i."""
    return [tuple(map(list.__getitem__, table, u)) for u in choices]


def kn_kummer_fiber(m: AffineMonoid, p: KnPoint, n: int) -> list[KnPoint]:
    """The full fiber of the degree-n Kummer cover of the log model over p.

    Radii have unique nonnegative n-th roots; circle coordinate i has the n
    roots t_i/n + j/n, tabulated once, and a tuple of root indices lies in
    the fiber iff it solves the relation congruences mod n, whose Smith form
    the chart keeps.  Points come in lexicographic order of root indices and
    are assembled from the tables, k n angles in all, not k n^r.  The count
    is always n^r with r the group rank of the chart, independent of the
    stratum: the circle factors are what trivialize the ramification.  A
    count mismatch is a hard error, and n^r above the enumeration cap is
    refused before anything is enumerated.
    """
    from .semialg import KnPoint, _turn_offsets, check_membership
    if not isinstance(p, KnPoint):
        raise InvalidPoint("the log model's Kummer fiber lies over a KnPoint")
    ok, residual = check_membership(m, p)
    if not ok:
        raise InvalidPoint(f"point violates the relations (residual {residual:.3e})")
    angles = _angles(m, tuple(range(m.generator_count)))
    offsets = [c for c, _ in _turn_offsets(angles[0], [t for _, t in p.values])]
    choices, _ = _solve(angles, n, "Kummer fiber", offsets)
    # Coordinate i takes only the n values (radius^(1/n), (t_i + j) / n turns).
    table = []
    for radius, turn in p.values:
        (u, v), root = turn.as_integer_ratio(), radius.root(n)
        table.append([(root, Fraction(x % (n * v), n * v)) for x in range(u, u + n * v, v)])
    return [KnPoint(coords) for coords in _assemble(table, choices)]


def algebraic_kummer_fiber(m: AffineMonoid, p: CxPoint, n: int) -> list[CxPoint]:
    """The fiber of the degree-n Kummer cover of the complex model over p.

    Vanishing coordinates force the root 0, so the count is n^(rank of the
    point's stratum face): n^r on the dense torus, a single point over the
    vertex.  Relations touching a vanishing coordinate hold automatically
    (both sides vanish); the others impose congruences on the root
    choices exactly as in the log model.  The points are exact when p is,
    every nonvanishing coordinate lies on an axis with a magnitude that is
    a rational n-th power, and every chosen root lies on an axis; else
    they are floating.  The face is ``stratum_of_point``'s, which raises
    NotOnVariety or NotAFace for a point it places on no stratum; level
    and cap are checked next, before any float of p.  The turns are
    floats, so each relation's turn sum is rounded to its offset.
    """
    from .exactnum import unit_from_turn_float
    from .semialg import CxPoint
    from .strata import stratum_of_point
    if not isinstance(p, CxPoint):
        raise InvalidPoint("the complex model's Kummer fiber lies over a CxPoint")
    face = stratum_of_point(m, p)
    k = m.generator_count
    angles = _angles(m, face.support)
    _fiber_size(angles[2], n)
    values = p.to_complex()
    turns = [math.atan2(z.imag, z.real) / (2 * math.pi) % 1.0 if i in face.support else 0.0
             for i, z in enumerate(values)]
    offsets = [round(sum(x * t for x, t in zip(row, turns))) for row in angles[0]]
    choices, _ = _solve(angles, n, "algebraic Kummer fiber", offsets)
    table = _exact_algebraic_table(p, n, face.support) if p.exact else None
    if table is not None:
        fiber = _assemble(table, choices)
        if all(c is not None for coords in fiber for c in coords):
            return [CxPoint(coords, True) for coords in fiber]
    # Coordinate i takes only the n roots |z_i|^(1/n) exp(2 pi i (t_i + j)/n).
    magnitudes = [abs(z) ** (1.0 / n) for z in values]
    table = [[magnitudes[i] * unit_from_turn_float(turns[i] / n + j / n) for j in range(n)]
             if i in face.support else [0j] for i in range(k)]
    return [CxPoint.floating(coords) for coords in _assemble(table, choices)]


def _exact_algebraic_table(p, n, support):
    """Each coordinate's n roots as Gaussian rationals (None where one is
    not) if every nonvanishing coordinate is on an axis at a rational n-th
    power magnitude; otherwise None."""
    from .exactnum import GaussianRational, rational_nth_root, unit_from_turn_exact
    table = []
    for i, v in enumerate(p.values):
        if i not in support:
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
    """Outcome of checking the deck action on an enumerated Kummer fiber
    of level ``n``."""

    n: int
    group_order: int
    fiber_size: int
    preserves_fiber: bool
    free: bool
    transitive: bool
    orbit_table: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.preserves_fiber and self.free and self.transitive


def _root_indices(fiber, p: KnPoint, roots, n: int):
    """Root indices c of each fiber point, pt_i = (roots_i, (t_i + c_i) / n
    turns) for p's turns t_i, read once: n a_i - t_i must be whole, checked
    on integers.  Radii must be roots_i, compared by identity first."""
    turns = [t.as_integer_ratio() for _, t in p.values]
    lifts = []
    for pt in fiber:
        indices = []
        for (rho, a), (u, v), root in zip(pt.values, turns, roots):
            (x, y) = a.as_integer_ratio()
            c, off = divmod(n * x * v - u * y, y * v)
            if off or rho is not root and rho != root:
                raise _not_a_root(pt, p, n, "radii or turns")
            indices.append(c % n)
        lifts.append(tuple(indices))
    return lifts


def _not_a_root(pt, p, n: int, what: str):
    return FalsifiedProperty(f"fiber point {pt} is not a degree-{n} root of {p} ({what})")


def _act(c, u, n: int):
    """The deck element u on root indices c: u_i / n turns on circle i."""
    return tuple([(a + b) % n for a, b in zip(c, u)])


def torsor_check(m: AffineMonoid, p: KnPoint, n: int) -> tuple[bool, TorsorReport]:
    """Verify the deck action on the enumerated Kummer fiber over p.

    The deck group is the set of u in (Z/n)^k with K u = 0 mod n, K the
    relation rows, read off the fiber's Smith form with zero offsets and
    acting on root indices by c + u mod n.  The base point's radii are
    checked to be n-th roots of p's, the fiber is lifted against them and
    p's turns (``_root_indices``), and the base must solve K c = -offsets
    mod n.  The flags, read off the orbit map u -> u . base, carry this to
    the coset base + u: ``transitive`` iff the map is onto, ``free`` iff it
    is injective (an abelian group's stabilizers are constant on an orbit),
    ``preserves_fiber`` iff every image and every Smith-form generator's
    image of a point lies in the fiber.  A failing point raises
    FalsifiedProperty naming it.  The orbit table gives, per fiber point,
    the first character carrying the base to it (-1 for none).
    """
    from .semialg import _turn_offsets
    fiber = kn_kummer_fiber(m, p, n)
    angles = _angles(m, tuple(range(m.generator_count)))
    chars, generators = _solve(angles, n, "deck group")
    rows, roots = angles[0], [rho for rho, _ in fiber[0].values]
    # rho^n == r: a^x == b^y iff a^(x/g) == b^(y/g) for a, b >= 0, g = gcd(x, y)
    if not all(rho.base ** (n * r.degree // g) == r.base ** (rho.degree // g)
               for rho, (r, _) in zip(roots, p.values)
               for g in [math.gcd(n * r.degree, rho.degree)]):
        raise _not_a_root(fiber[0], p, n, "radii or relation congruences")
    lifts = _root_indices(fiber, p, roots, n)
    offsets = [c for c, _ in _turn_offsets(rows, [t for _, t in p.values])]
    if any((sum(map(operator.mul, row, lifts[0])) + b) % n for row, b in zip(rows, offsets)):
        raise _not_a_root(fiber[0], p, n, "radii or relation congruences")
    index = {c: i for i, c in enumerate(lifts)}
    images = [index.get(_act(lifts[0], u, n)) for u in chars]
    located = [i for i in images if i is not None]
    first = {where: ci for ci, where in reversed(list(enumerate(images)))}
    report = TorsorReport(
        n=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=len(located) == len(images) and all(
            _act(c, g, n) in index for g in generators for c in lifts),
        free=len(set(located)) == len(located),
        transitive=all(i in first for i in range(len(fiber))),
        orbit_table=tuple(first.get(i, -1) for i in range(len(fiber))),
    )
    return report.ok, report
