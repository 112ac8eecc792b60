"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's computation paths:
cosets are counted through a hand-rolled Hermite-style column reduction
and breadth-first enumeration of the quotient, faces are recognized by
the combinatorial face axiom on degree-bounded monoid elements, group
isomorphism is cross-checked on element-order multisets, and root-index
congruences are solved by scanning every candidate.
"""

from __future__ import annotations

import itertools
from collections import deque
from math import gcd


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
