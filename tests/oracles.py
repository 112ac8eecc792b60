"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's computation paths:
cosets are counted through a hand-rolled Hermite-style column reduction
and breadth-first enumeration of the quotient, faces are recognized by
the combinatorial face axiom on degree-bounded monoid elements, group
isomorphism is cross-checked on element-order multisets, root-index
congruences are solved by scanning every candidate, linear programs
are solved by the Fraction-tableau simplex the library used to run, and
Kummer fibers and torsor checks act on Fraction turns as the library did
before it moved exact angles to integer residues, and tower coherence is
checked on every divisor pair n | m, as the library did before it checked
only the covering pairs, and the deck action moves root-index tuples and
looks each image up by its tuple, as the library did before it acted on
integer codes through translation tables, and relation completeness is decided by
union-find over every degree-bounded exponent vector, as the library did
before it walked the monoid's elements degree by degree, and the
saturation box is bounded by one exact LP per axis and direction, as the
library did before it read the box off the vertices of the degree simplex,
and cone membership is decided by the full two-phase LP, as the library
did before it ran phase one alone on integer rows, and the saturation scan
runs that LP on every candidate point, as the library did before it kept
the Farkas certificates of its "outside" answers, and the face lattice is
decided by one LP per generator subset, as the library did before it
derived the faces from the facets, and truncations G/mG are built from
lists and transitions compared as groups, as the library did before it
built each level's invariants in one pass, and a radical's normal form
pulls out perfect p-th powers for every integer p up to its degree, as the
library did before it tried only the primes dividing it, and the saturation
scan tests every certificate on every candidate point, as the library did
before it scanned each row's interval of nonnegative certificates, and the
Smith form runs its row and column operations through helper calls, as
the library did before it ran them in place, and builds its identities
entry by entry and checks its rows' lengths and types in two passes, as
the library did before it built them row by row and read each input row
once, and a stalk projects every face through the Smith form of its
generators and builds the quotient through ``MonoidSpec.make``, as the
library did before it read the dense face in closed form, and seeded exact
points are drawn on a stratum from the ambient torus, as the library did
before it took one distinguished point per stratum.  The normal form of a
direct sum of cyclic groups is assembled prime by prime from its elementary
divisors, with no Smith form.  The N-torsion of a fiber is counted by backtracking
over (Z/N)^k, with no Smith form.  The cyclic-quotient charts 1/n(1, q)
take their Hilbert basis, continued fraction and relations from closed
forms, with no library import.  The quadric
relations of a cone are listed by comparing every two pairs of
generators.  Matrix products, identities, diagonals and determinants (by
rational elimination) act on lists of rows, which is all the Smith forms
take and return.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import deque
from fractions import Fraction
from math import gcd

from logcharts import fibers, ratlp
from logcharts.abgrp import FgAbelianGroup, generator_matrix, smith_normal_form
from logcharts.errors import InvalidMonoidSpec, RelationSynthesisIncomplete
from logcharts.exactnum import GaussianRational, rational_nth_root, turn_mod1
from logcharts.fibers import TorsorReport
from logcharts.monoid import MonoidSpec, validate
from logcharts.profin import EquivalenceCertificate, LevelRecord
from logcharts.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED
from logcharts.semialg import CxPoint, KnPoint, _turn_offsets


def hnf_column_basis(entries, rows, cols):
    """Echelon basis of the column lattice by naive integer column
    reduction (no Smith machinery).  Returns vectors with strictly
    increasing pivot rows and positive pivots; a vector surviving to row r
    vanishes on every earlier row."""
    work = [[entries[i][j] for i in range(rows)] for j in range(cols)]
    basis = []
    for r in range(rows):
        live = [c for c in work if c[r] != 0]
        rest = [c for c in work if c[r] == 0]
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            small = live[0]
            survivors = [small]
            for c in live[1:]:
                q = c[r] // small[r]
                for i in range(rows):
                    c[i] -= q * small[i]
                if c[r] != 0:
                    survivors.append(c)
                else:
                    rest.append(c)
            live = survivors
        if live:
            pivot = live[0]
            if pivot[r] < 0:
                pivot = [-x for x in pivot]
            basis.append(pivot)
        work = rest
    return basis


def hnf_reduce(vector, basis):
    """Canonical representative of vector modulo the lattice with the
    given echelon basis."""
    v = list(vector)
    for b in basis:
        pivot_row = next(i for i, x in enumerate(b) if x != 0)
        q = v[pivot_row] // b[pivot_row]
        if q:
            for i in range(len(v)):
                v[i] -= q * b[i]
    return tuple(v)


def coset_count_bfs(entries, rows, cols):
    """|Z^rows / column lattice| by direct breadth-first enumeration of
    cosets, or None when the index is infinite."""
    basis = hnf_column_basis(entries, rows, cols)
    pivot_rows = {next(i for i, x in enumerate(b) if x != 0) for b in basis}
    if pivot_rows != set(range(rows)):
        return None  # not full rank: infinitely many cosets
    start = hnf_reduce([0] * rows, basis)
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for axis in range(rows):
            w = list(v)
            w[axis] += 1
            w = hnf_reduce(w, basis)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen)


def coset_count_box(entries, rows, cols, side):
    """Distinct cosets met by the integer box [0, side)^rows, by direct
    enumeration.  Equals the full coset count when side is a multiple of
    the quotient's exponent."""
    basis = hnf_column_basis(entries, rows, cols)
    reps = {hnf_reduce(v, basis) for v in itertools.product(range(side), repeat=rows)}
    return len(reps)


def element_order_multiset(torsion):
    """Sorted element orders of Z/d_1 x ... x Z/d_t."""
    orders = []
    for element in itertools.product(*(range(d) for d in torsion)):
        order = 1
        for x, d in zip(element, torsion):
            order = order * (d // gcd(x, d)) // gcd(order, d // gcd(x, d))
        orders.append(order)
    return sorted(orders)


def cyclic_sum_by_elementary_divisors(orders):
    """(free rank, torsion) of Z/n_1 + ... + Z/n_k, Z/0 = Z: each finite
    order is split into prime powers by trial division, and the i-th
    largest invariant factor is the product of each prime's i-th largest
    power."""
    powers = {}
    for n in (abs(n) for n in orders if n):
        p = 2
        while n > 1:
            p = p if p * p <= n else n
            e = 1
            while n % p == 0:
                n, e = n // p, e * p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    length = max(map(len, powers.values()), default=0)
    factors = [1] * length
    for chain in powers.values():
        for i, e in enumerate(sorted(chain, reverse=True)):
            factors[length - 1 - i] *= e
    return sum(1 for n in orders if n == 0), tuple(factors)


def bounded_monoid_elements(generators, degree_bound):
    """All monoid elements of coordinate-sum degree <= degree_bound,
    assuming every generator has positive coordinate sum."""
    degrees = [sum(g) for g in generators]
    assert all(d >= 1 for d in degrees)
    elements = set()

    def rec(i, acc, left):
        if i == len(generators):
            elements.add(tuple(acc))
            return
        g, d = generators[i], degrees[i]
        for c in range(left // d + 1):
            rec(i + 1, [a + c * gi for a, gi in zip(acc, g)], left - c * d)

    rec(0, [0] * (len(generators[0]) if generators else 0), degree_bound)
    return elements


def face_supports_by_axiom(generators, degree_bound):
    """Exhaustive-subset face recognition by the combinatorial axiom.

    A subset S of generator indices is a face support iff (a) the
    submonoid F generated by the S-generators contains exactly the
    S-generators among all generators, and (b) for all degree-bounded
    monoid elements a, b with a + b in F, both a and b lie in F.
    """
    k = len(generators)
    if k == 0:
        return {()}
    elements = bounded_monoid_elements(generators, degree_bound)
    supports = set()
    for size in range(k + 1):
        for s_tuple in itertools.combinations(range(k), size):
            sub = [generators[i] for i in s_tuple]
            face_elems = bounded_monoid_elements(sub, degree_bound) if sub else {
                tuple([0] * len(generators[0]))}
            exact = all((tuple(generators[i]) in face_elems) == (i in s_tuple)
                        for i in range(k))
            if not exact:
                continue
            closed = True
            for a in elements:
                if not closed:
                    break
                for b in elements:
                    total = tuple(x + y for x, y in zip(a, b))
                    if total in face_elems and not (a in face_elems and b in face_elems):
                        closed = False
                        break
            if closed:
                supports.add(s_tuple)
    return supports


def random_unimodular(rng, n):
    """A small random unimodular matrix as a list of rows."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        if n < 2 and kind == 0:
            kind = 2
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            c = rng.choice([-2, -1, 1, 2])
            for col in range(n):
                m[i][col] += c * m[j][col]
        elif kind == 1 and n >= 2:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            m[i] = [-x for x in m[i]]
    return m


def matmul(a, b):
    """The product of two integer matrices given as lists of rows; a
    matrix with no rows is taken to have no columns either."""
    width = len(b[0]) if b else 0
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(width)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def diagonal(diag, rows=None, cols=None):
    """The rows x cols matrix (square by default) with diag on its diagonal."""
    rows = len(diag) if rows is None else rows
    cols = len(diag) if cols is None else cols
    return [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)]


def det(rows):
    """Determinant by Gaussian elimination over the rationals, not by the
    library's fraction-free (Bareiss) elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(out)


def is_unimodular(rows):
    return all(len(row) == len(rows) for row in rows) and abs(det(rows)) == 1


# --------------------------------------------------------------------------
# The Smith form with its row and column operations in helper calls, as
# ``logcharts.abgrp.smith_normal_form`` ran it before it ran them in
# place: the same pivot sequence, so the same (U, D, V).

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


def smith_normal_form_by_helpers(rows, cols):
    """(U, diagonal, V) with U A V = D, for integer rows of ``cols``
    entries each: the least-magnitude pivot of the trailing block, first in
    row-major order, then clearing its column and row by Euclidean steps,
    then folding the first row with an entry the pivot does not divide
    into the pivot row."""
    a = [list(row) for row in rows]
    rows = len(a)
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    t = 0
    limit = min(rows, cols)
    while t < limit:
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
    for i in range(limit):
        if a[i][i] < 0:
            a[i][i] = -a[i][i]
            u[i] = [-x for x in u[i]]
    return tuple(map(tuple, u)), tuple(a[i][i] for i in range(limit)), tuple(map(tuple, v))


def smith_normal_form_in_place(rows, cols: int):
    """(U, diagonal, V) with U A V = D, and the same ValueError messages,
    as ``logcharts.abgrp.smith_normal_form`` computed them with identities
    built entry by entry and two passes of input checks: the same pivots."""
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


def stalk_by_projection(m, f):
    """(P/F, stalk rank) as ``logcharts.monoid.stalk`` built it on every
    face: the Smith form U of F's generators, the last d - r rows of U
    applied to the generators off F, the relations with F's coordinates
    deleted, all through ``MonoidSpec.make`` and ``validate``."""
    d, support = m.ambient_rank, set(f.support)
    face_matrix = generator_matrix([m.generators[i] for i in f.support], d)
    u, diag, _ = smith_normal_form_in_place(face_matrix, len(f.support))
    r = sum(1 for x in diag if x != 0)
    outside = [j for j in range(len(m.generators)) if j not in support]
    gens = [[sum(map(operator.mul, row, m.generators[j])) for row in u[r:]] for j in outside]
    rels = [([a[j] for j in outside], [b[j] for j in outside]) for a, b in m.relations]
    quotient = validate(MonoidSpec.make(d - r, gens, rels), degree_bound=m.degree_bound)
    return quotient, m.gp_lattice_rank - r


def root_choices_by_scan(rows, offsets, n, k):
    """Every u in (Z/n)^k with sum_j rows[i][j] u_j = -offsets[i] (mod n)
    for each row i, by scanning all n^k tuples in lexicographic order."""
    return [u for u in itertools.product(range(n), repeat=k)
            if all((sum(a * x for a, x in zip(row, u)) + c) % n == 0
                   for row, c in zip(rows, offsets))]


# The two-phase Bland simplex on ``Fraction`` tableaux that
# ``logcharts.ratlp`` ran before it moved to integer rows; the integer
# version must take the same pivots and return the same answers.

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(tab, basis, prow, pcol):
    piv = tab[prow][pcol]
    tab[prow] = [x / piv for x in tab[prow]]
    for i in range(len(tab)):
        if i != prow and tab[i][pcol] != 0:
            factor = tab[i][pcol]
            row = tab[i]
            prow_vals = tab[prow]
            tab[i] = [row[j] - factor * prow_vals[j] for j in range(len(row))]
    basis[prow] = pcol


def _run_simplex(tab, basis, ncols):
    """Minimize the objective encoded in the last tableau row.

    The objective row holds reduced costs; column ``ncols`` is the RHS.
    Bland's rule (smallest eligible index) guarantees termination.
    """
    m = len(tab) - 1
    obj = tab[m]
    while True:
        pcol = None
        for j in range(ncols):
            if obj[j] < 0:
                pcol = j
                break
        if pcol is None:
            return OPTIMAL
        prow = None
        best = None
        for i in range(m):
            if tab[i][pcol] > 0:
                ratio = tab[i][ncols] / tab[i][pcol]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[prow]):
                    best = ratio
                    prow = i
        if prow is None:
            return UNBOUNDED
        _pivot(tab, basis, prow, pcol)
        obj = tab[m]


def solve_standard_form(c, a_rows, b):
    """min c.x subject to A x = b, x >= 0, all data rational.

    Returns (status, x, objective); x and objective are None unless
    status is OPTIMAL.
    """
    m = len(a_rows)
    n = len(c)
    c = [Fraction(x) for x in c]
    rows = [[Fraction(x) for x in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint width does not match objective length")
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial variables n..n+m-1, minimize their sum.
    total = n + m
    tab = []
    for i in range(m):
        row = rows[i] + [_ONE if j == i else _ZERO for j in range(m)] + [rhs[i]]
        tab.append(row)
    obj = [_ZERO] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            obj[j] -= tab[i][j]
        obj[n + i] = _ZERO
    tab.append(obj)
    basis = [n + i for i in range(m)]

    status = _run_simplex(tab, basis, total)
    if status != OPTIMAL or -tab[m][total] > 0:
        return INFEASIBLE, None, None

    # Drive lingering artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pcol = next((j for j in range(n) if tab[i][j] != 0), None)
            if pcol is None:
                continue  # redundant constraint
            _pivot(tab, basis, i, pcol)
        keep.append(i)

    # Phase 2 tableau: original columns only, fresh reduced costs.
    tab2 = [[tab[i][j] for j in range(n)] + [tab[i][n + m]] for i in keep]
    basis2 = [basis[i] for i in keep]
    obj2 = list(c) + [_ZERO]
    for i, row in enumerate(tab2):
        cb = c[basis2[i]]
        if cb != 0:
            for j in range(n + 1):
                obj2[j] -= cb * row[j]
    tab2.append(obj2)

    status = _run_simplex(tab2, basis2, n)
    if status != OPTIMAL:
        return status, None, None
    x = [_ZERO] * n
    for i, bj in enumerate(basis2):
        x[bj] = tab2[i][n]
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value


# The exact Kummer fiber and torsor check on ``Fraction`` turns that
# ``logcharts.fibers`` ran before exact angles became integer residues: one
# Fraction turn per coordinate and root choice, one new point per action,
# located by a key of its radius and Fraction angle values.  Root choices
# and the deck group come from the scan above, and the group's generators,
# which are swept over every fiber point, are picked greedily, not read
# off a Smith form.

def _relation_rows(m):
    return [[rj - sj for rj, sj in zip(r, s)] for r, s in m.relations]


def kn_kummer_fiber_by_fractions(m, p, n):
    """The fiber of the degree-n Kummer cover of the log model over the
    exact point p, in lexicographic order of root indices."""
    k = m.generator_count
    rows = _relation_rows(m)
    turns = [a for _, a in p.values]
    offsets = [int(sum(c * t for c, t in zip(row, turns))) for row in rows]
    return [KnPoint(tuple((p.values[i][0].root(n), (turns[i] / n + Fraction(u[i], n)) % 1)
                          for i in range(k)))
            for u in root_choices_by_scan(rows, offsets, n, k)]


def _greedy_generators(elements, n):
    """Elements of a subgroup of (Z/n)^k, in the given order, each outside
    the span of those before it; together they generate the subgroup."""
    span, generators = {(0,) * len(elements[0])}, []
    for u in elements:
        if u not in span:
            generators.append(u)
            multiples = [tuple(j * x % n for x in u) for j in range(n)]
            span = {tuple((a + b) % n for a, b in zip(s, w)) for s in span for w in multiples}
    return generators


def _act_exact(point, u, n):
    pairs = [(r, (a + Fraction(ui, n)) % 1) for (r, a), ui in zip(point.values, u)]
    return KnPoint(tuple(pairs))


def _kn_key_exact(point):
    return tuple((r.base, r.degree, a) for r, a in point.values)


def torsor_report_by_fractions(m, p, n):
    """The TorsorReport of the deck action on the exact fiber over p."""
    fiber = kn_kummer_fiber_by_fractions(m, p, n)
    chars = root_choices_by_scan(_relation_rows(m), [0] * len(m.relations),
                                 n, m.generator_count)
    index = {_kn_key_exact(pt): i for i, pt in enumerate(fiber)}

    def locate(pt):
        return index.get(_kn_key_exact(pt))

    images = [locate(_act_exact(fiber[0], u, n)) for u in chars]
    located = [i for i in images if i is not None]
    orbit_table = [-1] * len(fiber)
    for ci, where in enumerate(images):
        if where is not None and orbit_table[where] == -1:
            orbit_table[where] = ci
    return TorsorReport(
        n=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=len(located) == len(images) and all(
            locate(_act_exact(pt, g, n)) is not None
            for g in _greedy_generators(chars, n) for pt in fiber),
        free=len(set(located)) == len(located),
        transitive=all(x >= 0 for x in orbit_table),
        orbit_table=tuple(orbit_table),
    )


def _root_indices_as_tuples(fiber, p, roots, n):
    """Root indices c of each fiber point as a tuple, pt_i = (roots_i,
    (t_i + c_i) / n turns) for p's turns t_i, as the library lifted them
    before it coded them as integers."""
    turns = [t.as_integer_ratio() for _, t in p.values]
    lifts = []
    for pt in fiber:
        indices = []
        for (rho, a), (u, v), root in zip(pt.values, turns, roots):
            (x, y) = a.as_integer_ratio()
            c, off = divmod(n * x * v - u * y, y * v)
            if off or rho is not root and rho != root:
                raise fibers._not_a_root(pt, p, n, "radii or turns")
            indices.append(c % n)
        lifts.append(tuple(indices))
    return lifts


def act_on_tuples(c, u, n):
    """The deck element u on root indices c: u_i / n turns on circle i."""
    return tuple([(a + b) % n for a, b in zip(c, u)])


def torsor_report_by_tuples(m, p, n, act=act_on_tuples):
    """torsor_check's TorsorReport with the deck action ``act`` on
    root-index tuples, each image looked up by its tuple, as the library
    did before it acted on integer codes through translation tables."""
    fiber = fibers.kn_kummer_fiber(m, p, n)
    angles = fibers._angles(m, tuple(range(m.generator_count)))
    chars, generators = fibers._solve(angles, n, "deck group")
    rows, roots = angles[0], [rho for rho, _ in fiber[0].values]
    if not all(rho.base ** (n * r.degree // g) == r.base ** (rho.degree // g)
               for rho, (r, _) in zip(roots, p.values)
               for g in [math.gcd(n * r.degree, rho.degree)]):
        raise fibers._not_a_root(fiber[0], p, n, "radii or relation congruences")
    lifts = _root_indices_as_tuples(fiber, p, roots, n)
    offsets = [c for c, _ in _turn_offsets(rows, [t for _, t in p.values])]
    if any((sum(map(operator.mul, row, lifts[0])) + b) % n for row, b in zip(rows, offsets)):
        raise fibers._not_a_root(fiber[0], p, n, "radii or relation congruences")
    index = {c: i for i, c in enumerate(lifts)}
    images = [index.get(act(lifts[0], u, n)) for u in chars]
    located = [i for i in images if i is not None]
    first = {where: ci for ci, where in reversed(list(enumerate(images)))}
    return TorsorReport(
        n=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=len(located) == len(images) and all(
            act(c, g, n) in index for g in generators for c in lifts),
        free=len(set(located)) == len(located),
        transitive=all(i in first for i in range(len(fiber))),
        orbit_table=tuple(first.get(i, -1) for i in range(len(fiber))),
    )


def covers_by_trial_division(m):
    """m and m/p for each prime p | m, in ascending order of p, by trial
    division."""
    out, rest, p = [m], m, 2
    while rest > 1:
        p = p if p * p <= rest else rest
        if rest % p == 0:
            out.append(m // p)
        while rest % p == 0:
            rest //= p
        p += 1
    return out


def generating_pairs(bound):
    """The pairs the coherence walk checks on a coherent tower, in its
    order: (m, m/2) for each even m <= bound/2, then (m, n) for each n in
    covers_by_trial_division(m), for m from bound/2 + 1 to bound."""
    half = bound // 2
    return ([(m, m // 2) for m in range(2, half + 1, 2)]
            + [(m, n) for m in range(half + 1, bound + 1) for n in covers_by_trial_division(m)])


def _divisor_pairs(bound):
    """Every pair (m, n) with n | m <= bound, in order of m then n, each
    m's divisors found by scanning 1..m."""
    return ((m, n) for m in range(1, bound + 1) for n in range(1, m + 1) if m % n == 0)


def coherent_by_all_pairs(tower, bound):
    """Transition coherence of one tower on every pair n | m <= bound."""
    return all(tower.transition_consistent(m, n) for m, n in _divisor_pairs(bound))


def first_incoherent_by_all_pairs(tower, bound):
    """The target n of the tower's first failing pair n | m <= bound, in
    order of m then n, or None."""
    return next((n for m, n in _divisor_pairs(bound) if not tower.transition_consistent(m, n)),
                None)


def equivalent_by_all_pairs(a, b, bound):
    """equivalent_up_to with coherence checked on every pair n | m <= bound:
    the witness is the first non-isomorphic level, else the target n of
    the first pair on which either tower's transition fails."""
    records, witness = [], None
    for n in range(1, bound + 1):
        ga, gb = a.level(n), b.level(n)
        iso = ga == gb
        records.append(LevelRecord(n, tuple(ga.invariant_factors()),
                                   tuple(gb.invariant_factors()), iso))
        if not iso and witness is None:
            witness = n
    if witness is None:
        witness = next((n for m, n in _divisor_pairs(bound)
                        if not (a.transition_consistent(m, n)
                                and b.transition_consistent(m, n))), None)
    ok = witness is None
    return ok, EquivalenceCertificate(ok, tuple(records), witness)


# --------------------------------------------------------------------------
# Relation completeness over exponent vectors, as ``logcharts.monoid`` ran
# it before the oracle walked the monoid's elements: every n in N^k up to
# the degree bound is listed, grouped by image, and each fiber is checked
# for connectivity under the moves m + r <-> m + s by union-find.

_ENUMERATION_CAP = 2_000_000  # exponent vectors the reference oracles list


def _bounded_exponent_vectors(spec: MonoidSpec, degrees, bound):
    """Yield (n, image) for every n in N^k with sum n_i * degrees_i <= bound,
    where image = sum n_i * gen_i is built by running sums as the
    enumeration goes; only the current vector is held.  The vectors are
    counted first (ways[b] of exact degree b), and more than
    ``_ENUMERATION_CAP`` of them raise InvalidMonoidSpec before any is
    made."""
    ways = [1] + [0] * bound
    for step in degrees:
        for b in range(step, bound + 1):
            ways[b] += ways[b - step]
    if sum(ways) > _ENUMERATION_CAP:
        raise InvalidMonoidSpec(
            "degree-bounded enumeration exceeds the desk-scale cap; "
            "lower the degree bound")
    gens = spec.generators
    k = len(gens)
    vec = [0] * k

    def rec(i, remaining, image):
        if i == k:
            yield tuple(vec), image
            return
        step, gen = degrees[i], gens[i]
        for c in range(remaining // step + 1):
            vec[i] = c
            yield from rec(i + 1, remaining - c * step, image)
            image = tuple(map(operator.add, image, gen))
        vec[i] = 0

    yield from rec(0, bound, (0,) * spec.ambient_rank)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def congruence_complete_by_vectors(spec: MonoidSpec, relations, degrees, bound):
    """Brute-force congruence oracle.

    Two exponent vectors with the same image must be connected by the
    elementary moves m + r <-> m + s generated by the relation set.  Every
    move preserves the image and the degree, so each fiber of the image map
    over degree-bounded elements is closed under moves and can be checked
    by union-find.  Fails loudly if any fiber is disconnected.
    """
    fibers: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for n, image in _bounded_exponent_vectors(spec, degrees, bound):
        fibers.setdefault(image, []).append(n)
    k = len(spec.generators)
    for image, members in fibers.items():
        if len(members) < 2:
            continue
        index = {n: i for i, n in enumerate(members)}
        uf = _UnionFind(len(members))
        for n in members:
            for r, s in relations:
                for a, b in ((r, s), (s, r)):
                    if all(n[j] >= a[j] for j in range(k)):
                        moved = tuple(n[j] - a[j] + b[j] for j in range(k))
                        uf.union(index[n], index[moved])
        root = uf.find(0)
        if any(uf.find(i) != root for i in range(len(members))):
            raise RelationSynthesisIncomplete(
                f"relation set does not connect the {len(members)} presentations "
                f"of {image} at degree <= {bound}")
    return {img for img in fibers}


def fiber_connected_by_vectors(spec: MonoidSpec, relations, degrees, image, degree):
    """Are the presentations of ``image``, an element of the given degree,
    connected under the moves, by union-find over its exponent vectors?"""
    members = [n for n, img in _bounded_exponent_vectors(spec, degrees, degree)
               if img == image]
    index = {n: i for i, n in enumerate(members)}
    uf = _UnionFind(len(members))
    for n in members:
        for r, s in relations:
            for a, b in ((r, s), (s, r)):
                if all(x >= y for x, y in zip(n, a)):
                    uf.union(index[n], index[tuple(x - y + z for x, y, z in zip(n, a, b))])
    return len({uf.find(i) for i in range(len(members))}) == 1


# --------------------------------------------------------------------------
# The saturation box by linear programming, as ``logcharts.monoid`` bounded
# it before the box was read off the vertices of the degree simplex: the
# least and the greatest value of each coordinate, one exact LP each.

def saturation_box_by_lp(gens, degrees, bound):
    """The integer bounding box (lo, hi) of { G @ lam : lam >= 0,
    degrees . lam <= bound }, by the Fraction simplex above."""
    d, k = len(gens[0]), len(gens)
    # Bounding box of { G @ lam : lam >= 0, grading . (G @ lam) <= bound }.
    lo, hi = [], []
    constraint = [[Fraction(degrees[j]) for j in range(k)] + [Fraction(1)]]
    rhs = [Fraction(bound)]
    for axis in range(d):
        cost = [Fraction(gens[j][axis]) for j in range(k)] + [Fraction(0)]
        status_min, _, vmin = solve_standard_form(cost, constraint, rhs)
        status_max, _, vmax = solve_standard_form([-c for c in cost], constraint, rhs)
        if status_min != OPTIMAL or status_max != OPTIMAL:
            raise InvalidMonoidSpec("truncated cone is unbounded; grading is broken")
        lo.append(math.ceil(vmin))
        hi.append(math.floor(-vmax))
    return lo, hi


# --------------------------------------------------------------------------
# Cone membership by the full two-phase LP on ``Fraction`` data (phase one,
# the artificial drive-out and a phase two with zero objective), as
# ``logcharts.ratlp.in_cone`` decided it before it ran phase one alone.

def in_cone_by_lp(generator_columns, point):
    """Exact test: is the point a nonnegative rational combination of the
    generators?  ``generator_columns`` is a list of vectors in Z^d."""
    dim = len(point)
    k = len(generator_columns)
    if k == 0:
        return all(x == 0 for x in point)
    rows = [[Fraction(generator_columns[j][i]) for j in range(k)] for i in range(dim)]
    n = len(rows[0]) if rows else 0
    status, _, _ = solve_standard_form([_ZERO] * n, rows, [Fraction(x) for x in point])
    return status == OPTIMAL


# --------------------------------------------------------------------------
# The saturation scan with one LP per candidate point, as
# ``logcharts.monoid._check_saturation`` ran it before it kept the Farkas
# certificates of its "outside" answers: over every point of the box,
# dropping those of degree outside 0..bound, with the monoid elements as
# tuples, as the scan ran before it held them as integer codes.

def grading_of(spec: MonoidSpec):
    """The grading ``validate`` gives a sharp spec, without its other
    checks, so that a chart it refuses still has one: the coordinate sum
    where that is >= 1 on every generator, else the sharpness certificate
    of ``ratlp.strict_functional``."""
    if all(sum(g) >= 1 for g in spec.generators):
        return (1,) * spec.ambient_rank
    return ratlp.strict_functional(spec.ambient_rank, [], list(spec.generators))


def saturation_scan_inputs(spec: MonoidSpec, bound):
    """(gens, grading, degrees, layers, bound, u, factors) as ``validate``
    passes them to the scan; layers[b] holds the monoid elements of degree
    b as tuples (the scan takes their box codes), the images of the
    exponent vectors of degree b <= bound."""
    d, gens = spec.ambient_rank, spec.generators
    grading = grading_of(spec)
    degrees = [sum(map(operator.mul, grading, g)) for g in gens]
    images = [set() for _ in range(bound + 1)]
    for _, image in _bounded_exponent_vectors(spec, degrees, bound):
        images[sum(map(operator.mul, grading, image))].add(image)
    u, diag, _ = smith_normal_form(generator_matrix(gens, d), len(gens))
    return gens, grading, degrees, images, bound, u, [x for x in diag if x != 0]


def saturation_scan_by_lp(gens, grading, degrees, layers, bound, u, factors):
    """The first point of the truncated cone, in box order, that lies in
    the generated sublattice but not among the monoid elements, or None;
    :func:`in_cone_by_lp` decides every candidate point."""
    lo, hi = saturation_box_by_lp(gens, degrees, bound)
    r = len(factors)
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        deg = sum(map(operator.mul, grading, point))
        if deg < 0 or deg > bound or point in layers[deg]:
            continue
        if not in_cone_by_lp(gens, point):
            continue
        y = [sum(map(operator.mul, row, point)) for row in u]
        if any(map(operator.mod, y, factors)) or any(y[r:]):
            continue
        return point
    return None


# --------------------------------------------------------------------------
# The saturation scan that tests every certificate on every candidate point,
# as ``logcharts.monoid._check_saturation`` ran it before it scanned only
# each row's interval of t where every certificate is nonnegative.  It
# asks ``logcharts.ratlp.in_cone`` itself, so that the points asked can be
# compared with the library's.

def saturation_scan_by_certificates(gens, grading, box, layers, bound, u, factors):
    """(witness or None, the points passed to ``ratlp.in_cone`` in order),
    over the points of the box of degree 0..bound in box order, with the
    monoid elements as tuples in ``layers``: a point off them is outside
    the cone when an earlier certificate is negative on it, and otherwise
    ``in_cone`` decides it."""
    r = len(factors)
    certificates, asked = [], []
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(*box))):
        deg = sum(map(operator.mul, grading, point))
        if deg < 0 or deg > bound or point in layers[deg]:
            continue
        if any(sum(map(operator.mul, c, point)) < 0 for c in certificates):
            continue
        asked.append(point)
        inside, c = ratlp.in_cone(gens, point)
        if not inside:
            certificates.append(c)
            continue
        y = [sum(map(operator.mul, row, point)) for row in u]
        if any(map(operator.mod, y, factors)) or any(y[r:]):
            continue
        return point, asked
    return None, asked


# --------------------------------------------------------------------------
# The face lattice by one strict-functional LP per generator subset, as
# ``logcharts.monoid.faces`` enumerated it before it derived the faces from
# the facets.

def faces_by_lp(m):
    """(support, certificate) for every face of the validated monoid, by
    deciding each of the 2^k generator subsets with the library's simplex;
    sorted by (support size, support)."""
    gens = m.generators
    k = len(gens)
    found = []
    for size in range(k + 1):
        for support in itertools.combinations(range(k), size):
            inside = [gens[i] for i in support]
            outside = [gens[j] for j in range(k) if j not in support]
            cert = ratlp.strict_functional(m.ambient_rank, inside, outside)
            if cert is not None:
                found.append((support, cert))
    return found


# --------------------------------------------------------------------------
# Truncations and transitions as ``logcharts.abgrp.tensor_mod`` and
# ``logcharts.profin`` built them before each level's invariants were built
# in one pass: the torsion part through two lists, and every transition
# through a third group, the truncation of the higher level.

def tensor_mod_by_lists(g, m):
    """The level-m truncation G/mG."""
    m = int(m)
    if m < 1:
        raise ValueError("level must be a positive integer")
    if m == 1:
        return FgAbelianGroup(0)
    torsion = [gcd(d, m) for d in g.torsion]
    torsion = [d for d in torsion if d > 1]
    torsion.extend([m] * g.free_rank)
    return FgAbelianGroup._normal(0, tuple(torsion))


def nonneg_root_normal_form_by_every_integer(base, degree):
    """The normalized (base, degree) of base**(1/degree), trying every
    integer p <= degree as a root degree to pull out."""
    if base in (0, 1):
        degree = 1
    else:
        # Pull out perfect p-th power factors of the degree.
        p = 2
        while p <= degree:
            while degree % p == 0:
                root = rational_nth_root(base, p)
                if root is None:
                    break
                base = root
                degree //= p
            p += 1
    return base, degree


def transition_consistent_by_groups(tower, m, n):
    """Is the tower's level(n) the mod-n truncation of its level(m)?"""
    if m % n != 0:
        raise ValueError(f"transition needs n | m, got n={n}, m={m}")
    return tensor_mod_by_lists(tower.level(m), n) == tower.level(n)


def quadric_relations(gens):
    """Every relation gen_a + gen_b = gen_c + gen_e between two disjoint
    pairs of generators."""
    k = len(gens)
    rels = []
    pairs = itertools.combinations_with_replacement(range(k), 2)
    for (a, b), (c, e) in itertools.combinations(pairs, 2):
        if {a, b}.isdisjoint({c, e}) and all(
                x + y == z + w for x, y, z, w in zip(gens[a], gens[b], gens[c], gens[e])):
            r, s = [0] * k, [0] * k
            r[a] += 1
            r[b] += 1
            s[c] += 1
            s[e] += 1
            rels.append((r, s))
    return rels


_SAMPLER_RETRY_BUDGET = 64
_TURN_DENOMINATOR = 4  # sampled log angles are quarter turns: see sample_kn_stratum


def _product(values, exponents, one):
    """prod v**e over the nonzero exponents e, from ``one``, exactly."""
    out = one
    for v, e in zip(values, exponents):
        if e:
            out = out * v ** e
    return out


def _draw_points(draw, count):
    """Collect ``count`` draws; prefer fresh points, and fall back to
    repeats once a small stratum is exhausted.  Every draw is consistent,
    so the retry budget only bounds the search for a fresh one."""
    out = []
    seen = set()
    while len(out) < count:
        for _ in range(_SAMPLER_RETRY_BUDGET):
            point, key = draw()
            if key not in seen:
                seen.add(key)
                break
        out.append(point)
    return out


def _random_nonzero_fraction(rng: random.Random) -> Fraction:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _random_gaussian_unit_scale(rng: random.Random) -> GaussianRational:
    re = rng.randint(-3, 3)
    im = rng.randint(-3, 3)
    if re == 0 and im == 0:
        re = 1
    return GaussianRational(Fraction(re), Fraction(im))


def sample_stratum(m, f, count: int, seed: int) -> list[CxPoint]:
    """Deterministic exact points with exactly the face's coordinates
    nonvanishing.

    Points are drawn from the ambient torus: a nonzero Gaussian rational
    t_l per ambient dimension induces z_i = prod_l t_l^{g_il} on the
    face's generators and 0 elsewhere.  Every Z-linear relation among the
    generators then holds identically, so each draw is relation-consistent
    by construction; the retry budget guards deduplication.
    """
    rng = random.Random(seed)
    support = set(f.support)

    def draw():
        params = [GaussianRational.of(_random_nonzero_fraction(rng))
                  * _random_gaussian_unit_scale(rng) for _ in range(m.ambient_rank)]
        values = [_product(params, gen, GaussianRational.of(1)) if i in support
                  else GaussianRational.of(0) for i, gen in enumerate(m.generators)]
        point = CxPoint(tuple(values), True)
        return point, tuple((v.re, v.im) for v in values)

    return _draw_points(draw, count)


def sample_kn_stratum(m, f, count: int, seed: int) -> list[KnPoint]:
    """Deterministic exact log-model points over the given face.

    Radii come from positive rational parameters per ambient dimension
    (zero exactly off the face's support); angles are quarter turns, drawn
    per ambient dimension and pushed through the generator exponents, so
    every relation holds identically.  Quarter turns keep tau-images
    exactly Gaussian rational.
    """
    rng = random.Random(seed)
    support = set(f.support)

    def draw():
        rho = [Fraction(rng.randint(1, 9), rng.randint(1, 4))
               for _ in range(m.ambient_rank)]
        theta = [Fraction(rng.randrange(_TURN_DENOMINATOR), _TURN_DENOMINATOR)
                 for _ in range(m.ambient_rank)]
        pairs = []
        for i, gen in enumerate(m.generators):
            angle = turn_mod1(sum(Fraction(e) * t for e, t in zip(gen, theta)))
            pairs.append((_product(rho, gen, Fraction(1)) if i in support else Fraction(0),
                          angle))
        point = KnPoint.exact_point(pairs)
        return point, tuple((r.base, r.degree, a) for r, a in point.values)

    return _draw_points(draw, count)


def torsion_count(rows, k: int, n: int) -> int:
    """The number of u in (Z/n)^k with row . u = 0 (mod n) for every row,
    by backtracking over u_0, u_1, ...: each row is checked once, as soon
    as its last column that is nonzero mod n is set.  Over a stratum F the
    fiber's N-torsion is such a count, with no Smith form and no abgrp."""
    due = [[] for _ in range(k)]
    for row in rows:
        live = [j for j, a in enumerate(row) if a % n]
        if live:
            due[live[-1]].append(row)
    u = [0] * k

    def count(j):
        if j == k:
            return 1
        total = 0
        for x in range(n):
            u[j] = x
            if all(sum(a * b for a, b in zip(row, u)) % n == 0 for row in due[j]):
                total += count(j + 1)
        return total

    return count(0)


def cyclic_quotient(n: int, q: int):
    """The chart of the cyclic quotient singularity 1/n(1, q), 0 < q < n
    coprime: P = {(a, b) in N^2 : a + q b = 0 (mod n)} (Fulton, Introduction
    to Toric Varieties, 2.2 and 2.6).  Returns (basis, b, relations): the
    Hilbert basis u_0 = (n, 0), u_1 = (n - q, 1), ..., u_{e-1} = (0, n) in
    order of slope, with u_{i-1} + u_{i+1} = b_i u_i for the Hirzebruch-Jung
    continued fraction n / (n - q) = [b_1, ..., b_{e-2}] (Oda, Convex Bodies
    and Algebraic Geometry, 1.6); and the (e - 1)(e - 2) / 2 relations u_i +
    u_j = u_{i+1} + u_{j-1} + sum over i < l < j of (b_l - 2) u_l, i < j - 1,
    of Riemenschneider, Math. Ann. 209 (1974), as exponent vectors."""
    b, x = [], Fraction(n, n - q)
    while True:
        b.append(-(-x.numerator // x.denominator))
        if x == b[-1]:
            break
        x = 1 / (b[-1] - x)
    basis = [(n, 0), (n - q, 1)]
    for c in b:
        basis.append(tuple(c * y - z for y, z in zip(basis[-1], basis[-2])))
    e, b = len(basis), [None, *b, None]  # b[l] belongs to u_l, 0 < l < e - 1
    relations = []
    for i in range(e):
        for j in range(i + 2, e):
            lhs, rhs = [0] * e, [0] * e
            lhs[i] += 1
            lhs[j] += 1
            rhs[i + 1] += 1
            rhs[j - 1] += 1
            for l in range(i + 1, j):
                rhs[l] += b[l] - 2
            relations.append((lhs, rhs))
    return basis, b[1:-1], relations
