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
from .errors import InvalidMonoidSpec


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
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _row_sub(a, u, i, j, q):
    """Row i -= q * row j."""
    if q == 0:
        return
    ai, aj = a[i], a[j]
    for k in range(len(ai)):
        ai[k] -= q * aj[k]
    ui, uj = u[i], u[j]
    for k in range(len(ui)):
        ui[k] -= q * uj[k]


def _col_sub(a, v, i, j, q):
    """Column i -= q * column j."""
    if q == 0:
        return
    for row in a:
        row[i] -= q * row[j]
    for row in v:
        row[i] -= q * row[j]


def smith_normal_form(rows, cols: int):
    """Smith normal form of the matrix A with these rows and ``cols``
    columns: returns (U, diagonal, V), U and V as row tuples, with
    U * A * V == D exactly for D the matrix of A's shape whose diagonal
    entries are the d_i.

    U and V are unimodular; the min(rows, cols) diagonal entries are
    nonnegative and form a divisibility chain d_1 | d_2 | ... (zeros, which
    everything divides, come last).  Total on exact integers: a row of
    another length, or an entry that is not an int (a bool included),
    raises ValueError before any pivot.
    """
    if any(len(row) != cols for row in rows):
        raise ValueError(f"matrix rows {rows!r} do not all have {cols} entries")
    if not {type(x) for row in rows for x in row} <= {int}:
        raise ValueError(f"matrix entries must be exact integers, got {rows!r}")
    a = [list(row) for row in rows]
    rows = len(a)
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Bring the smallest-magnitude nonzero entry of the trailing block
        # to the pivot slot; if the block is zero we are done.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = a[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            _swap_rows(a, u, t, pivot[0])
        if pivot[1] != t:
            _swap_cols(a, v, t, pivot[1])

        while True:
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t] != 0:
                    _row_sub(a, u, i, t, a[i][t] // a[t][t])
                    if a[i][t] != 0:
                        # Remainder has smaller magnitude than the pivot.
                        _swap_rows(a, u, t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, cols):
                if a[t][j] != 0:
                    _col_sub(a, v, j, t, a[t][j] // a[t][t])
                    if a[t][j] != 0:
                        _swap_cols(a, v, t, j)
                        dirty = True
            if dirty:
                continue
            break

        # Divisibility: the pivot must divide every entry of the trailing
        # block; if not, fold the offending row into row t and re-clear.
        d = a[t][t]
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _row_sub(a, u, t, offender, -1)
            continue
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

    ``FgAbelianGroup(...)``, ``free`` and ``cyclic`` validate; ``trivial``,
    ``from_cyclic_orders``, ``cokernel`` and ``tensor_mod`` build normal
    forms by construction and skip the checks through ``_normal``.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        object.__setattr__(self, "torsion", tuple(int(d) for d in self.torsion))
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion invariant {d} < 2 (drop trivial factors first)")
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
    def trivial() -> FgAbelianGroup:
        return FgAbelianGroup._normal(0, ())

    @staticmethod
    def free(r: int) -> FgAbelianGroup:
        return FgAbelianGroup(r, ())

    @staticmethod
    def cyclic(n: int) -> FgAbelianGroup:
        """Z/n, with Z/0 = Z and Z/1 trivial."""
        n = abs(int(n))
        if n == 0:
            return FgAbelianGroup(1, ())
        if n == 1:
            return FgAbelianGroup(0, ())
        return FgAbelianGroup(0, (n,))

    @staticmethod
    def from_cyclic_orders(orders) -> FgAbelianGroup:
        """Normal form of a direct sum of cyclic groups Z/n (n = 0 means Z).

        Each finite order n >= 2 is swept into the chain from its largest
        invariant down, by Z/d + Z/n = Z/lcm(d, n) + Z/gcd(d, n): each lcm
        divides the next, being a divisor of the invariant above it, and
        the last gcd, unless it is 1, heads the chain.
        """
        orders = [abs(int(n)) for n in orders]
        torsion: tuple[int, ...] = ()
        for n in orders:
            if n < 2:
                continue
            chain = []
            for d in reversed(torsion):
                g = gcd(d, n)
                chain.append(d // g * n)
                n = g
            torsion = tuple(reversed(chain + [n] if n > 1 else chain))
        return FgAbelianGroup._normal(orders.count(0), torsion)

    def direct_sum(self, *others: FgAbelianGroup) -> FgAbelianGroup:
        orders = [0] * self.free_rank + list(self.torsion)
        for g in others:
            orders.extend([0] * g.free_rank)
            orders.extend(g.torsion)
        return FgAbelianGroup.from_cyclic_orders(orders)

    def invariant_factors(self) -> list[int]:
        """The chain with zeros for the free part, largest-last torsion."""
        return [0] * self.free_rank + list(self.torsion)

    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int | None:
        """Group order, or None when infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

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
    not an int (a bool or a float included) raises ValueError."""
    if type(m) is not int or m < 1:
        raise ValueError(f"level {m!r} is not a positive integer")
    return FgAbelianGroup._normal(0, _truncation(g, m))


def is_isomorphic(a: FgAbelianGroup, b: FgAbelianGroup) -> bool:
    """Normal forms are canonical, so isomorphism is field equality."""
    return a.free_rank == b.free_rank and a.torsion == b.torsion


def generator_matrix(vectors, ambient_rank: int) -> tuple[tuple[int, ...], ...]:
    """The rows of the ambient_rank x len(vectors) matrix whose columns are
    the given vectors in Z^ambient_rank."""
    for vec in vectors:
        if len(vec) != ambient_rank:
            raise InvalidMonoidSpec(f"vector {tuple(vec)} does not live in Z^{ambient_rank}")
    return tuple(zip(*vectors)) if vectors else ((),) * ambient_rank
