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
from .errors import NotOnVariety
from .monoid import AffineMonoid, Face, face_with_support, faces, stalk


class StratumEntry(Record):
    face: Face
    stalk_rank: int
    stalk: AffineMonoid


class StratumTable(Record):
    """All strata of a chart, one entry per face.  The locus R_n of rank
    >= n is the faces whose entry has stalk_rank >= n."""

    monoid: AffineMonoid
    entries: tuple[StratumEntry, ...]


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
