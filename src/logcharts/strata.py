"""The rank stratification of a chart.

Strata are represented combinatorially by faces of the monoid: the
characteristic data is constant along the locus where a fixed set of
generator coordinates is invertible, so the face is a faithful stand-in
at chart level.  A point lands on the face whose support is exactly its
nonvanishing coordinate pattern, and the stalk there is the quotient of
the monoid by that face.  :func:`stratum_of_point` is the one stratum
finder, which the algebraic Kummer fiber reads; it takes membership and
vanishing from semialg's rules.
"""

from __future__ import annotations

from ._record import Record
from .errors import NotAFace, NotOnVariety
from .monoid import AffineMonoid, Face, face_with_support, faces, stalk


class StratumEntry(Record):
    face: Face
    stalk_rank: int
    stalk: AffineMonoid


class StratumTable(Record):
    """All strata of a chart, one entry per face.

    The locus R_n of rank >= n is recoverable as the faces whose entry has
    stalk_rank >= n.  Construction enforces the structural laws: entries
    cover the face lattice exactly once, face inclusion weakly reverses
    rank, and the empty support is the unique face of maximal rank
    (whenever that rank is positive).
    """

    monoid: AffineMonoid
    entries: tuple[StratumEntry, ...]

    @property
    def max_rank(self) -> int:
        """The rank of the vertex stratum, the chart's group rank."""
        return self.monoid.gp_lattice_rank

    def __post_init__(self):
        supports = [e.face.support for e in self.entries]
        if len(set(supports)) != len(supports):
            raise ValueError("duplicate face in stratum table")
        by_support = {e.face.support: e for e in self.entries}
        for a in self.entries:
            for b in self.entries:
                if set(a.face.support) <= set(b.face.support):
                    if not b.stalk_rank <= a.stalk_rank:
                        raise ValueError(
                            f"rank monotonicity fails: {a.face} rank {a.stalk_rank}, "
                            f"{b.face} rank {b.stalk_rank}")
        top = [e for e in self.entries if e.stalk_rank == self.max_rank]
        if self.max_rank >= 1 and (len(top) != 1 or top[0].face.support != ()):
            raise ValueError("the vertex is not the unique maximal-rank stratum")
        if () not in by_support:
            raise ValueError("stratum table is missing the vertex face")

    def entry_for(self, face: Face) -> StratumEntry:
        for e in self.entries:
            if e.face.support == face.support:
                return e
        raise NotAFace(f"{face.support} does not index a stratum")

    def rank_at_least(self, n: int) -> list[StratumEntry]:
        """The closed locus R_n, as its list of strata."""
        return [e for e in self.entries if e.stalk_rank >= n]

    def ranks(self) -> list[int]:
        return sorted(e.stalk_rank for e in self.entries)


def stratify(m: AffineMonoid) -> StratumTable:
    """Enumerate all strata with their stalks and ranks.  The vertex stalk
    P/{0} = P is the validated chart itself, relations included; every
    other face's stalk comes from :func:`stalk`."""
    entries = []
    for f in faces(m):
        quotient, r = stalk(m, f) if f.support else (m, m.gp_lattice_rank)
        entries.append(StratumEntry(f, r, quotient))
    return StratumTable(m, tuple(entries))


def stratum_of_point(m: AffineMonoid, p: CxPoint | KnPoint) -> Face:
    """The face indexing the stratum a chart point lies on.

    The support is the set of coordinates where the point does not vanish
    (those generators act invertibly there), by the point's ``is_zero_at``:
    exactly for a log or exact point, within the floating tolerance for a
    floating one.  Raises NotOnVariety if ``check_membership`` refuses the
    point, and NotAFace if the vanishing pattern is not a face, which for
    a floating point can mean that a value within the tolerance of 0 is
    not one.
    """
    from .semialg import check_membership
    ok, residual = check_membership(m, p)
    if not ok:
        raise NotOnVariety(residual)
    return face_with_support(m, [i for i in range(p.arity) if not p.is_zero_at(i)])
