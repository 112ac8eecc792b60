"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's computation paths:
cosets are counted through a hand-rolled Hermite-style column reduction
and breadth-first enumeration of the quotient, faces are recognized by
the combinatorial face axiom on degree-bounded monoid elements, group
isomorphism is cross-checked on element-order multisets, root-index
congruences are solved by scanning every candidate, linear programs
are solved by the Fraction-tableau simplex the library used to run, and
Kummer fibers and torsor checks act on Fraction turns as the library did
before it moved exact angles to integer residues.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction
from math import gcd

from logcharts.fibers import TorsorReport
from logcharts.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED
from logcharts.semialg import KnPoint


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
    turns = [p.angle(i) for i in range(k)]
    offsets = [int(sum(c * t for c, t in zip(row, turns))) for row in rows]
    return [KnPoint(tuple((p.radius(i).root(n), (turns[i] / n + Fraction(u[i], n)) % 1)
                          for i in range(k)), True)
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
    return KnPoint(tuple(pairs), True)


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
        degree=n,
        group_order=len(chars),
        fiber_size=len(fiber),
        preserves_fiber=len(located) == len(images) and all(
            locate(_act_exact(pt, g, n)) is not None
            for g in _greedy_generators(chars, n) for pt in fiber),
        free=len(set(located)) == len(located),
        transitive=all(x >= 0 for x in orbit_table),
        orbit_table=tuple(orbit_table),
    )
