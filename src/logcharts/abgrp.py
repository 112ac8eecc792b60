"""Exact integer linear algebra and finitely generated abelian groups.

Everything here runs on Python integers, which are arbitrary precision, so
Smith pivots can grow without corrupting invariants.  No floating point is
permitted in this module.

The presentation convention, shared by every caller: a matrix is a tuple
of rows, each a tuple of ``cols`` ints, and with ``len(rows)`` rows it
presents a map ``Z^cols -> Z^len(rows)`` (columns are relators, rows are
generators); ``cokernel`` computes ``Z^len(rows) / image``.  The column
count is passed with the rows, because no rows carry no width: the
Smith form of a 0 x 3 matrix has a 3 x 3 V.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .errors import InvalidLevel, InvalidMonoidSpec


def _det(rows) -> int:
    """Bareiss determinant of the square matrix with these integer rows."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(rows, cols: int):
    """Smith normal form of the matrix A with these rows and ``cols``
    columns: returns (U, diagonal, V), U and V as row tuples, with
    U * A * V == D exactly for D the matrix of A's shape whose diagonal
    entries are the d_i.

    U and V are unimodular; the min(rows, cols) diagonal entries are
    nonnegative and form a divisibility chain d_1 | d_2 | ... (zeros, which
    everything divides, come last).  Total on exact integers: a row of
    another length, or an entry that is not an int (a bool included),
    raises ValueError before any pivot.  At step t, the clearing row
    operations on A start at column t and the column operations at row t,
    past only zeros.
    """
    a, types = [], set()
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"matrix rows {rows!r} do not all have {cols} entries")
        types.update(map(type, row))
        a.append(list(row))
    if not types <= {int}:
        raise ValueError(f"matrix entries must be exact integers, got {rows!r}")
    rows = len(a)
    u, v = [], []  # identities, one new list per row
    for n, eye in (rows, u), (cols, v):
        for i in range(n):
            eye.append([0] * n)
            eye[i][i] = 1

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Bring the first entry of least magnitude of the trailing block to
        # the pivot slot (none is less than 1); if the block is zero we are
        # done.
        best = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    size = x if x > 0 else -x
                    if size < best or not best:
                        best, pi, pj = size, i, j
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in a[t:] + v:
                row[t], row[pj] = row[pj], row[t]

        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                ai = a[i]
                if ai[t]:
                    at = a[t]
                    q = ai[t] // at[t]
                    if q:
                        for k in range(t, cols):
                            ai[k] -= q * at[k]
                        u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                    if ai[t]:
                        # the remainder is less than the pivot in magnitude
                        a[t], a[i] = ai, at
                        u[t], u[i] = u[i], u[t]
                        dirty = True
            if dirty:
                continue
            at = a[t]
            for j in range(t + 1, cols):
                if at[j]:
                    q = at[j] // at[t]
                    if q:
                        for row in a[t:] + v:
                            row[j] -= q * row[t]
                    if at[j]:
                        for row in a[t:] + v:
                            row[t], row[j] = row[j], row[t]
                        dirty = True

        # Divisibility: the pivot must divide every entry of the trailing
        # block; if not, add the first offending row to row t and re-clear.
        d = a[t][t]
        if d == 1 or d == -1:
            t += 1
            continue
        for i in range(t + 1, rows):
            ai = a[i]
            if any(ai[j] % d for j in range(t + 1, cols)):
                a[t] = [x + y for x, y in zip(a[t], ai)]
                u[t] = [x + y for x, y in zip(u[t], u[i])]
                break
        else:
            t += 1

    # Row i of the reduced matrix is zero off the diagonal.
    for i in range(limit):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]
    return tuple(map(tuple, u)), tuple(a[i][i] for i in range(limit)), tuple(map(tuple, v))


def rank(rows, cols: int) -> int:
    """Rank over Z (equivalently over Q)."""
    return sum(1 for x in smith_normal_form(rows, cols)[1] if x != 0)


class FgAbelianGroup(Record):
    """Finitely generated abelian group in normal form.

    ``free_rank`` copies of Z plus cyclic factors Z/d_1 x ... x Z/d_t with
    d_1 | d_2 | ... | d_t and every d_i >= 2.  Trivial invariants are
    dropped, so equality of normal forms is isomorphism.

    ``FgAbelianGroup(...)`` and ``free`` validate; ``cokernel`` and
    ``tensor_mod`` build normal forms by construction and skip the checks
    through ``_normal``.  The one general normal form is ``cokernel``'s
    Smith form: a sum of cyclic groups Z/n (Z/0 = Z) is the cokernel of the
    diagonal matrix of the orders, and the trivial group is
    ``FgAbelianGroup(0)``.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if type(self.free_rank) is not int or self.free_rank < 0:
            raise ValueError(f"free rank {self.free_rank!r} is not a nonnegative int")
        object.__setattr__(self, "torsion", tuple(self.torsion))
        for d in self.torsion:
            if type(d) is not int or d < 2:
                raise ValueError(f"torsion invariant {d!r} is not an int >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion invariants {self.torsion} violate the divisibility chain")

    @staticmethod
    def _normal(free_rank: int, torsion: tuple[int, ...]) -> FgAbelianGroup:
        """A group from fields that are already a normal form, unchecked."""
        g = object.__new__(FgAbelianGroup)
        fields = g.__dict__
        fields["free_rank"] = free_rank
        fields["torsion"] = torsion
        return g

    @staticmethod
    def free(r: int) -> FgAbelianGroup:
        return FgAbelianGroup(r, ())

    def invariant_factors(self) -> list[int]:
        """The chain with zeros for the free part, largest-last torsion."""
        return [0] * self.free_rank + list(self.torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"


def cokernel(rows, cols: int) -> FgAbelianGroup:
    """Cokernel Z^len(rows) / image of the matrix, in normal form."""
    diag = smith_normal_form(rows, cols)[1]
    nonzero = sum(1 for x in diag if x != 0)
    return FgAbelianGroup._normal(len(rows) - nonzero, tuple(x for x in diag if x > 1))


def _truncation(g: FgAbelianGroup, m: int) -> tuple[int, ...]:
    """The torsion of the finite group G/mG, m >= 1: Z/gcd(d, m) > 1 for each
    Z/d of G, then Z/m for each Z.  The gcds of a divisor chain form a chain
    dividing m, so this is a normal form as built."""
    free = (m,) * g.free_rank if m > 1 else ()
    if g.torsion:
        return tuple([e for d in g.torsion if (e := gcd(d, m)) > 1]) + free
    return free


def tensor_mod(g: FgAbelianGroup, m: int) -> FgAbelianGroup:
    """The level-m truncation G/mG, built in one pass by ``_truncation``
    and not validated again; G/G is the trivial group.  A level that is
    not a positive int (a bool or a float included) raises InvalidLevel."""
    if type(m) is not int or m < 1:
        raise InvalidLevel(f"level {m!r} is not a positive integer")
    return FgAbelianGroup._normal(0, _truncation(g, m))


def generator_matrix(vectors, ambient_rank: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the ambient_rank x len(vectors) matrix whose columns are
    the given vectors in Z^ambient_rank."""
    for vec in vectors:
        if len(vec) != ambient_rank:
            raise InvalidMonoidSpec(f"vector {tuple(vec)} does not live in Z^{ambient_rank}")
    return tuple(zip(*vectors)) if vectors else ((),) * ambient_rank
