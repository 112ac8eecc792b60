"""Pro-systems of finite abelian groups indexed by divisibility.

Every tower the theory produces is the profinite completion of a finitely
generated abelian group G: the level at n is the truncation G/nG, and for
n | m the transition G/mG -> G/nG is the natural reduction.  So a tower
is built from the group it completes, as ``FiniteAbelianProSystem(G)``,
is equal to another exactly when their groups are, and builds each level
as the closed form tensor_mod(G, n), once per tower.  The mu-tower of a
chart of group rank r is ``FiniteAbelianProSystem(FgAbelianGroup.free(r))``,
because mu_n(P) = (Z/n)^r, and its level n is ``monoid.mu(P, n)``.

Level-wise comparison of invariant factors plus transition coherence up
to a bound is the checkable shadow of pro-equivalence, not a categorical
pro-isomorphism.  The covering pairs of m are (m, m), which says level m
is m-torsion, and (m, m/p) for each prime p | m: (A/(m/p)A)/nA = A/nA for
n | m/p, so by induction on m/n the covering pairs of every m <= bound
imply every pair n | m.  Truncation composes, (X/kX)/nX = X/nX for n | k,
so a walk checks fewer pairs: every covering pair of each m above bound/2,
and below it only (m, m/2) for even m.  Downward from bound, the covering
pairs of 2m give (m, m) through (2m, m), and (m, m/p) for an odd prime p
through (2m, m), (2m, 2m/p) and (2m/p, m/p), the last being the checked
pair of the even level 2m/p.  A walk reads the covering pairs off one
least-prime-factor table.  A comparison walks one tower, as matching
levels are equal, and the walk reads the levels its certificate reports.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record
from .abgrp import FgAbelianGroup, _truncation, tensor_mod
from .errors import ChartError, InvalidLevel

_LEVEL_CAP = 100_000  # the most levels one comparison computes


class FiniteAbelianProSystem(Record):
    """The tower n -> G/nG completing a finitely generated abelian group G.

    Every level is finite, whatever the free rank of G, and is kept in
    ``_levels`` once built; a comparison with an equal tower shares that
    table with it.  Transitions for n | m are the natural
    reductions; their composition law is checkable on normal forms
    because tensor_mod(tensor_mod(g, k), n) == tensor_mod(g, n).
    """

    group: FgAbelianGroup
    _levels: dict | None = None

    def level(self, n: int) -> FgAbelianGroup:
        if self._levels is None:
            object.__setattr__(self, "_levels", {})
        # only an int n >= 1 is stored: tensor_mod refuses any other n
        if type(n) is not int or n not in self._levels:
            self._levels[n] = tensor_mod(self.group, n)
        return self._levels[n]

    def transition_consistent(self, m: int, n: int) -> bool:
        """Does the natural reduction level(m) -> level(n) exist, i.e. is
        level(n) the mod-n truncation of level(m), compared field by field
        without building it?  Requires ints 1 <= n | m, checked first."""
        if type(m) is not int or m < 1 or type(n) is not int or n < 1:
            bad = m if type(m) is not int or m < 1 else n
            raise InvalidLevel(f"level {bad!r} is not a positive integer")
        if m % n != 0:
            raise InvalidLevel(f"transition needs n | m, got n={n}, m={m}")
        high, low = self.level(m), self.level(n)
        return low.free_rank == 0 and low.torsion == _truncation(high, n)

    def __str__(self):
        return f"<completion of {self.group}>"


def _checked_bound(bound) -> int:
    if type(bound) is not int or bound < 1:
        raise InvalidLevel(f"bound {bound!r} is not a positive integer")
    if bound > _LEVEL_CAP:
        raise ChartError(f"comparison bound {bound} is above the cap of "
                         f"{_LEVEL_CAP} levels; lower the bound")
    return bound


def _covering_divisors(bound: int, start: int = 1):
    """For m = start..bound in turn, the list [m, m/p1, m/p2, ...] over the
    primes p1 < p2 < ... dividing m, read off one table of least prime
    factors.  Writing each p <= sqrt(bound) at p^2, p^2 + p, ... in
    descending order of p leaves the least p | q with p^2 <= q at every
    composite q, its least prime factor, and leaves every prime q alone."""
    least = list(range(bound + 1))
    for p in range(isqrt(bound), 1, -1):
        least[p * p::p] = [p] * ((bound - p * p) // p + 1)
    for m in range(start, bound + 1):
        covers, rest = [m], m
        while rest > 1:
            p = least[rest]
            covers.append(m // p)
            while rest % p == 0:
                rest //= p
        yield covers


def _first_incoherent(tower: FiniteAbelianProSystem, bound: int) -> int | None:
    """The target n of one tower's first failing pair n | m <= bound, in
    order of m then n, or None.  The walk checks the generating pairs of
    the module note and stops at its first failing level m'; that pair
    bounds the first failing pair, so only then do the covering pairs of
    1..m' find the first failing m, whose divisors hold the first pair."""
    coherent = tower.transition_consistent

    def first_failing(walk):
        return next((covers[0] for covers in walk
                     if not all(coherent(covers[0], n) for n in covers)), None)

    half = bound // 2
    failed = (next((m for m in range(2, half + 1, 2) if not coherent(m, m // 2)), None)
              or first_failing(_covering_divisors(bound, half + 1)))
    if failed is None:
        return None
    m = first_failing(_covering_divisors(failed))
    return next(n for n in range(1, m + 1) if m % n == 0 and not coherent(m, n))


class LevelRecord(Record):
    n: int
    factors_a: tuple[int, ...]
    factors_b: tuple[int, ...]
    isomorphic: bool


class EquivalenceCertificate(Record):
    """Per-level evidence for (or against) tower equivalence: one record
    per level 1..bound, so the bound is ``len(levels)``."""

    equivalent: bool
    levels: tuple[LevelRecord, ...]
    witness_level: int | None


def equivalent_up_to(a: FiniteAbelianProSystem, b: FiniteAbelianProSystem,
                     bound: int) -> tuple[bool, EquivalenceCertificate]:
    """Level-wise equivalence of two towers up to the bound.

    True iff every level n <= bound has isomorphic invariant factors on both
    sides and a coheres on the generating pairs of the module note, which
    imply every pair n | m <= bound; b's levels then equal a's, so b needs
    no walk.  The witness is the first level that differs, else the target
    of a's first failing pair in order of m then n.  The walk reads a's
    levels 1..bound as built for the records.  Towers that complete one
    group share a's level table, so bound levels are built in all, and
    2 * bound otherwise.  A bound below 1 or above 100,000 levels is
    refused before any level is computed.
    """
    bound = _checked_bound(bound)
    if a == b:
        # equal groups have equal levels, so b reads the table a fills
        table = a._levels or b._levels or {}
        object.__setattr__(a, "_levels", table)
        object.__setattr__(b, "_levels", table)
    records = []
    for n in range(1, bound + 1):
        ga, gb = a.level(n), b.level(n)
        factors, same = tuple(ga.invariant_factors()), ga is gb
        records.append(LevelRecord(n, factors, factors if same else tuple(gb.invariant_factors()),
                                   same or ga == gb))
    # isomorphic levels are equal normal forms, and a transition reads only
    # levels, so once every level matches b's walk would repeat a's verdicts
    witness = (next((rec.n for rec in records if not rec.isomorphic), None)
               or _first_incoherent(a, bound))
    ok = witness is None
    return ok, EquivalenceCertificate(ok, tuple(records), witness)
