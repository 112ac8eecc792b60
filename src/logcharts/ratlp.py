"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule.  Each tableau row is
held as a list of integers over one positive denominator, reduced by
their gcd after every pivot (integer-preserving elimination in the sense
of Bareiss, Math. Comp. 22, 1968), so sign and ratio tests are integer
comparisons and cross-products.  The pivots, and so every answer, are
those of the same simplex run on ``fractions.Fraction`` entries; cone
membership runs phase one alone.  Sized for desk-scale cone problems
(tens of variables); correctness over cleverness.

``monoid.validate`` is the only caller: ``strict_functional`` certifies
sharpness and ``in_cone`` serves the saturation check, which reuses the
checked Farkas certificate of each "outside" answer on later points.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import FalsifiedProperty

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rational(x):
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _integer_row(values):
    """Integers over one positive denominator, with the given values."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


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


def solve_standard_form(c, a_rows, b):
    """min c.x subject to A x = b, x >= 0, all data rational.

    Returns (status, x, objective); x and objective are None unless
    status is OPTIMAL.
    """
    m = len(a_rows)
    n = len(c)
    c = [_rational(x) for x in c]
    rows = [[_rational(x) for x in row] for row in a_rows]
    rhs = [_rational(x) for x in b]
    for row in rows:
        if len(row) != n:
            raise ValueError("constraint width does not match objective length")

    # Phase 1: artificial variables n..n+m-1, minimize their sum.  A row
    # with negative right-hand side is negated first.
    total = n + m
    tab, dens = [], []
    for i in range(m):
        nums, den = _integer_row(rows[i] + [rhs[i]])
        if rhs[i] < 0:
            nums = [-x for x in nums]
        tab.append(nums[:n] + [den if j == i else 0 for j in range(m)] + nums[n:])
        dens.append(den)
    common = math.lcm(*dens)
    obj = [-sum(row[j] * (common // den) for row, den in zip(tab, dens))
           for j in range(total + 1)]
    obj[n:total] = [0] * m
    obj, common = _reduced(obj, common)
    tab.append(obj)
    dens.append(common)
    basis = [n + i for i in range(m)]

    status = _run_simplex(tab, dens, basis, total)
    if status != OPTIMAL or tab[m][total] < 0:
        return INFEASIBLE, None, None

    # Drive lingering artificials out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            pcol = next((j for j in range(n) if tab[i][j] != 0), None)
            if pcol is None:
                continue  # redundant constraint
            _pivot(tab, dens, basis, i, pcol)
        keep.append(i)

    # Phase 2 tableau: original columns only, fresh reduced costs.
    tab2, dens2 = [], []
    for i in keep:
        row, den = _reduced(tab[i][:n] + [tab[i][total]], dens[i])
        tab2.append(row)
        dens2.append(den)
    basis2 = [basis[i] for i in keep]
    obj2, oden = _integer_row(c + [0])
    for i, row in enumerate(tab2):
        cb = c[basis2[i]]
        if cb != 0:
            f, g = cb.numerator * oden, cb.denominator * dens2[i]
            obj2, oden = _reduced([x * g - f * y for x, y in zip(obj2, row)], oden * g)
    tab2.append(obj2)
    dens2.append(oden)

    status = _run_simplex(tab2, dens2, basis2, n)
    if status != OPTIMAL:
        return status, None, None
    x = [_ZERO] * n
    for i, bj in enumerate(basis2):
        x[bj] = Fraction(tab2[i][n], dens2[i])
    value = sum(ci * xi for ci, xi in zip(c, x))
    return OPTIMAL, x, value


def strict_functional(dim, zero_vectors, positive_vectors):
    """A rational u with u.z == 0 for all z and u.p > 0 for all p, or None.

    This is the sharpness certificate search of ``monoid.validate``, which
    passes no zero vectors.
    Formulated as: maximize t <= 1 subject to u.p_j >= t; by scaling, a
    strictly positive optimum exists iff a strict functional does.
    """
    zero_vectors = [tuple(v) for v in zero_vectors]
    positive_vectors = [tuple(v) for v in positive_vectors]
    if not positive_vectors:
        return tuple(_ZERO for _ in range(dim))

    # Variables: u+ (dim), u- (dim), t, slack per positive vector, slack for t<=1.
    npos = len(positive_vectors)
    nvars = 2 * dim + 1 + npos + 1
    t_idx = 2 * dim
    rows = []
    rhs = []
    for z in zero_vectors:
        row = [_ZERO] * nvars
        for l in range(dim):
            row[l] = Fraction(z[l])
            row[dim + l] = Fraction(-z[l])
        rows.append(row)
        rhs.append(_ZERO)
    for j, p in enumerate(positive_vectors):
        row = [_ZERO] * nvars
        for l in range(dim):
            row[l] = Fraction(p[l])
            row[dim + l] = Fraction(-p[l])
        row[t_idx] = Fraction(-1)
        row[t_idx + 1 + j] = Fraction(-1)
        rows.append(row)
        rhs.append(_ZERO)
    cap = [_ZERO] * nvars
    cap[t_idx] = _ONE
    cap[t_idx + 1 + npos] = _ONE
    rows.append(cap)
    rhs.append(_ONE)

    c = [_ZERO] * nvars
    c[t_idx] = Fraction(-1)  # maximize t
    status, x, value = solve_standard_form(c, rows, rhs)
    if status != OPTIMAL or x is None or -value <= 0:
        return None
    u = tuple(x[l] - x[dim + l] for l in range(dim))
    return _normalize_functional(u)


def _normalize_functional(u):
    """Scale a rational vector to coprime integer entries (as Fractions)."""
    lcm = math.lcm(*(f.denominator for f in u))
    ints = [int(f * lcm) for f in u]
    g = math.gcd(*ints) or 1
    return tuple(Fraction(x // g) for x in ints)


def in_cone(generator_columns, point):
    """Exact test: is the point a nonnegative rational combination of the
    generators?  ``generator_columns`` is a list of vectors in Z^d.  Only
    phase one of :func:`solve_standard_form`, from the integer tableau it
    builds for the same data, so with its pivots: the point is in the cone
    exactly when the artificials reach zero.

    Returns (True, None) for a point of the cone.  Otherwise returns
    (False, w), w a Farkas certificate (Schrijver 1986, Section 7.3): a
    coprime integer functional with w.g >= 0 on every generator and
    w.point < 0, so w separates the point, and every point it is negative
    on, from the cone.  w is read off the final objective row: the dual
    value of row i is y_i = 1 - r_i, r_i the reduced cost of its artificial
    column, and w_i = -sign_i * y_i, the row's sign flip undone.  w is
    checked by integer dot products before it is returned; a failure
    raises FalsifiedProperty.
    """
    m, k = len(point), len(generator_columns)
    total = k + m
    tab, signs = [], []
    for i, x in enumerate(point):
        sign = -1 if x < 0 else 1
        signs.append(sign)
        tab.append([sign * g[i] for g in generator_columns]
                   + [1 if j == i else 0 for j in range(m)] + [sign * x])
    obj = [-sum(column) for column in zip(*tab)] or [0] * (total + 1)
    obj[k:total] = [0] * m
    tab.append(obj)
    dens = [1] * (m + 1)
    _run_simplex(tab, dens, list(range(k, total)), total)
    obj, den = tab[m], dens[m]
    if obj[total] >= 0:
        return True, None
    w = [sign * (r - den) for sign, r in zip(signs, obj[k:total])]
    g = math.gcd(*w) or 1
    w = tuple(x // g for x in w)
    if (any(sum(map(operator.mul, w, column)) < 0 for column in generator_columns)
            or sum(map(operator.mul, w, point)) >= 0):
        raise FalsifiedProperty(
            f"Farkas certificate {w} does not separate {tuple(point)} from the cone")
    return False, w
