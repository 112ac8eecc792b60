"""Exact linear programming on integer data.

A small dense two-phase simplex with Bland's rule; every entry of the data
must be an int.  Each tableau row is a list of integers over one positive
denominator, reduced by their gcd after every pivot (integer-preserving
elimination in the sense of Bareiss, Math. Comp. 22, 1968), so sign and
ratio tests are integer comparisons.  The pivots, and so every answer, are
those of the same simplex run on ``fractions.Fraction`` entries.  One
builder, :func:`_phase_one`, makes the phase-one tableau: cone membership
stops there, and an infeasible system carries the Farkas certificate read
off its objective row.  Sized for desk-scale cone problems.

``monoid.validate`` is the only caller: ``strict_functional`` certifies
sharpness, and so gives the grading, of a chart whose coordinate sum is
not >= 1 on every generator and, in rank 1, not every generator negative,
and ``in_cone`` serves the saturation check, which reuses the checked
Farkas certificate of each "outside" answer on later points.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import FalsifiedProperty

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _reduced(row, den):
    g = math.gcd(*row, den)
    if g > 1:
        return [x // g for x in row], den // g
    return row, den


def _pivot(tab, dens, basis, prow, pcol):
    """Divide row ``prow`` by its ``pcol`` entry and clear that column
    from every other row; row i holds the values tab[i][j] / dens[i]."""
    pivot_row = tab[prow]
    piv = pivot_row[pcol]
    if piv < 0:
        pivot_row, piv = [-x for x in pivot_row], -piv
    pivot_row, piv = _reduced(pivot_row, piv)
    tab[prow], dens[prow] = pivot_row, piv
    for i, row in enumerate(tab):
        factor = row[pcol]
        if factor and i != prow:
            tab[i], dens[i] = _reduced([x * piv - factor * y for x, y in zip(row, pivot_row)],
                                       dens[i] * piv)
    basis[prow] = pcol


def _run_simplex(tab, dens, basis, ncols):
    """Minimize the objective encoded in the last tableau row.

    The objective row holds reduced costs; column ``ncols`` is the RHS.
    Bland's rule (smallest eligible index) guarantees termination.  A
    row's denominator cancels from its ratio rhs / entry, so ratios are
    compared as integer cross-products.
    """
    m = len(tab) - 1
    while True:
        obj = tab[m]
        pcol = next((j for j in range(ncols) if obj[j] < 0), None)
        if pcol is None:
            return OPTIMAL
        prow = None
        for i in range(m):
            a = tab[i][pcol]
            if a > 0:
                b = tab[i][ncols]
                if prow is None or b * best_a < best_b * a or (
                        b * best_a == best_b * a and basis[i] < basis[prow]):
                    best_b, best_a, prow = b, a, i
        if prow is None:
            return UNBOUNDED
        _pivot(tab, dens, basis, prow, pcol)


def _phase_one(a_rows, b, n):
    """Phase one of the simplex on A x = b, x >= 0, A with n columns.

    A row with negative right-hand side is negated, and row i gets the
    artificial column n + i; the objective is their sum.  Returns the
    final tableau, its row denominators, the basis and None when the
    artificials reach zero, that is when the system is feasible.
    Otherwise the fourth entry is a Farkas certificate (Schrijver 1986,
    Section 7.3): coprime integers y with y.A >= 0 and y.b < 0, read off
    the objective row.  The dual value of row i is 1 - r_i, r_i the
    reduced cost of its artificial column, and y_i = -sign_i (1 - r_i),
    the row's sign flip undone.  An entry that is not an int (a Fraction,
    a float or a bool) raises ValueError before any pivot.
    """
    if any(len(row) != n for row in a_rows) or not {
            type(x) for row in (*a_rows, b) for x in row} <= {int}:
        raise ValueError(f"LP data must be integer rows of width {n}, got {a_rows!r}, {b!r}")
    m, total = len(b), n + len(b)
    tab, signs = [], []
    for i, (row, x) in enumerate(zip(a_rows, b)):
        sign = -1 if x < 0 else 1
        signs.append(sign)
        tab.append([sign * a for a in row] + [int(j == i) for j in range(m)] + [sign * x])
    obj = [-sum(column) for column in zip(*tab)] or [0] * (total + 1)
    obj[n:total] = [0] * m
    tab.append(obj)
    dens = [1] * (m + 1)
    basis = list(range(n, total))
    _run_simplex(tab, dens, basis, total)
    obj, den = tab[m], dens[m]
    if obj[total] >= 0:
        return tab, dens, basis, None
    y = [sign * (r - den) for sign, r in zip(signs, obj[n:total])]
    g = math.gcd(*y) or 1
    return tab, dens, basis, tuple(x // g for x in y)


def solve_standard_form(c, a_rows, b):
    """min c.x subject to A x = b, x >= 0, all data integers.

    Returns (status, x, objective).  x (Fractions) and objective are set
    when status is OPTIMAL; an INFEASIBLE answer is (INFEASIBLE, y, None),
    y the Farkas certificate of :func:`_phase_one`.  An entry of c, A or
    b that is not an int raises ValueError.
    """
    n = len(c)
    if not all(type(x) is int for x in c):
        raise ValueError(f"LP objective must be exact integers, got {c!r}")
    tab, dens, basis, y = _phase_one(a_rows, b, n)
    if y is not None:
        return INFEASIBLE, y, None

    # Drive lingering artificials out of the basis; drop redundant rows.
    total = n + len(b)
    keep = []
    for i in range(len(b)):
        if basis[i] >= n:
            pcol = next((j for j in range(n) if tab[i][j] != 0), None)
            if pcol is None:
                continue  # redundant constraint
            _pivot(tab, dens, basis, i, pcol)
        keep.append(i)

    # Phase 2 tableau: original columns only, fresh reduced costs.
    tab2 = [tab[i][:n] + [tab[i][total]] for i in keep]
    dens2 = [dens[i] for i in keep]
    basis2 = [basis[i] for i in keep]
    obj2, oden = list(c) + [0], 1
    for row, den, j in zip(tab2, dens2, basis2):
        if c[j]:
            obj2, oden = _reduced([x * den - c[j] * oden * v for x, v in zip(obj2, row)],
                                  oden * den)
    tab2.append(obj2)
    dens2.append(oden)

    status = _run_simplex(tab2, dens2, basis2, n)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bj in enumerate(basis2):
        x[bj] = Fraction(tab2[i][n], dens2[i])
    return OPTIMAL, x, sum(map(operator.mul, c, x))


def strict_functional(dim, zero_vectors, positive_vectors):
    """A functional u, in coprime integers, with u.z == 0 for all z and
    u.p > 0 for all p, or None.  The vectors are integer.

    This is the sharpness certificate search of ``monoid.validate``, which
    passes no zero vectors and runs it where neither the coordinate sum nor,
    in rank 1, the sign grades; the certificate becomes the grading.
    Formulated as: maximize t <= 1 subject to u.p_j >= t; by scaling, a
    strictly positive optimum exists iff a strict functional does.
    """
    if not positive_vectors:
        return (0,) * dim

    # Variables: u+ (dim), u- (dim), t, slack per positive vector, slack for t<=1.
    npos = len(positive_vectors)
    rows = [list(z) + [-x for x in z] + [0] * (npos + 2) for z in zero_vectors]
    for j, p in enumerate(positive_vectors):
        slacks = [0] * (npos + 1)
        slacks[j] = -1
        rows.append(list(p) + [-x for x in p] + [-1] + slacks)
    rows.append([0] * (2 * dim) + [1] + [0] * npos + [1])
    rhs = [0] * (len(rows) - 1) + [1]
    c = [0] * (2 * dim) + [-1] + [0] * (npos + 1)  # maximize t
    status, x, value = solve_standard_form(c, rows, rhs)
    if status != OPTIMAL or -value <= 0:
        return None
    return _normalize_functional([x[l] - x[dim + l] for l in range(dim)])


def _normalize_functional(u):
    """Scale a nonzero rational vector to coprime integers."""
    lcm = math.lcm(*(f.denominator for f in u))
    ints = [f.numerator * (lcm // f.denominator) for f in u]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def in_cone(generator_columns, point):
    """Exact test: is the point a nonnegative rational combination of the
    generators?  ``generator_columns`` is a list of vectors in Z^d and the
    point is integer.  Only :func:`_phase_one` runs, on the rows of the
    generator matrix: the point is in the cone exactly when the
    artificials reach zero.

    Returns (True, None) for a point of the cone.  Otherwise returns
    (False, w), w the Farkas certificate of the phase one: a coprime
    integer functional with w.g >= 0 on every generator and w.point < 0,
    so w separates the point, and every point it is negative on, from the
    cone.  w is checked by integer dot products before it is returned; a
    failure raises FalsifiedProperty.
    """
    rows = [[g[i] for g in generator_columns] for i in range(len(point))]
    *_, w = _phase_one(rows, point, len(generator_columns))
    if w is None:
        return True, None
    if (any(sum(map(operator.mul, w, column)) < 0 for column in generator_columns)
            or sum(map(operator.mul, w, point)) >= 0):
        raise FalsifiedProperty(
            f"Farkas certificate {w} does not separate {tuple(point)} from the cone")
    return False, w
