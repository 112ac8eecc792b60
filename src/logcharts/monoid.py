"""Affine (fine, saturated, sharp) monoids presented by lattice generators.

A chart supplies a monoid P as a list of integer vectors in an ambient
lattice Z^d, optionally with binomial relations among the generators.
Everything downstream (faces, rank strata, Kummer extensions, the groups
mu_n(P)) is computed from this presentation by exact linear algebra.

Generator indices are 0-based throughout the library.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import deque

from . import ratlp
from ._record import Record
from .abgrp import FgAbelianGroup, _det, generator_matrix, smith_normal_form, tensor_mod
from .errors import (InvalidMonoidSpec, NotAFace, NotSharp,
                     RelationInconsistent, RelationSynthesisIncomplete,
                     SaturationFailure)

DEFAULT_DEGREE_BOUND = 20

Relation = tuple[tuple[int, ...], tuple[int, ...]]


class MonoidSpec(Record):
    """Raw presentation data: ambient rank, generators, optional relations.

    A relation is a pair (r, s) of nonnegative integer exponent vectors of
    length k asserting sum_j r_j gen_j == sum_j s_j gen_j in Z^d.
    """

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    relations: tuple[Relation, ...] | None = None

    @staticmethod
    def make(ambient_rank, generators, relations=None) -> MonoidSpec:
        """The presentation as tuples; :func:`validate` checks its entries."""
        gens = tuple(_sequence(g, "generator") for g in _sequence(generators, "generators"))
        rels = None
        if relations is not None:
            rels = tuple((_sequence(r, "relation side"), _sequence(s, "relation side"))
                         for r, s in _sequence(relations, "relations"))
        return MonoidSpec(ambient_rank, gens, rels)


def _sequence(values, what) -> tuple:
    if not isinstance(values, (list, tuple)):
        raise InvalidMonoidSpec(f"{what} {values!r} is not a list")
    return tuple(values)


def _check_ints(vector, what):
    """Every entry must be an int: any other value, a bool or a float
    included, raises InvalidMonoidSpec instead of being truncated."""
    if not {type(x) for x in vector} <= {int}:
        raise InvalidMonoidSpec(f"{what} {vector!r} has an entry that is not an integer")


class Face(Record):
    """A face of the monoid, as the set of generator indices lying on it.

    The certificate is a functional u on Z^d with <u, gen_i> == 0 exactly
    for i in the support and <u, gen_j> > 0 exactly off it; its existence
    is what makes the support a face.  :func:`faces` makes it the sum of
    the primitive normals of the facets containing the face, in coprime
    integers, and 0 on the dense face.
    """

    support: tuple[int, ...]
    certificate: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    def __str__(self):
        return "{" + ", ".join(map(str, self.support)) + "}"


class AffineMonoid(Record):
    """A validated fine saturated sharp monoid.

    Sharpness and saturation are not stored: :func:`validate`, the only
    constructor, raises on a cone that lacks either.  ``relations`` is the
    verified relation set, supplied or else synthesized (empty for a free
    chart): it spans the kernel of the generator matrix and connects every
    fiber up to ``degree_bound``.  ``grading`` is an integer functional
    >= 1 on every generator, so it certifies that P is sharp: the
    coordinate sum where that is >= 1 on every generator, else -1 in rank 1,
    else the coprime strict functional of the sharpness LP.  Saturation is
    proved exactly for a free chart (linearly independent generators) and
    otherwise by a desk-scale check: every cone lattice point of degree up to
    ``degree_bound`` lies in P.  ``_lattice`` is U[:r], r the group rank,
    from the Smith form U G V = D that :func:`validate` ran; :func:`faces`
    reads the facets in these coordinates, and ``_faces`` caches their
    answer.  ``_presentations`` keeps each congruence system's Smith form,
    keyed by kept relation rows and pinned coordinates (``_presentation``).
    """

    spec: MonoidSpec
    gp_lattice_rank: int
    relations: tuple[Relation, ...]
    degree_bound: int
    grading: tuple[int, ...]
    _lattice: tuple[tuple[int, ...], ...]
    _faces: tuple[Face, ...] | None = None
    _presentations: dict | None = None

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return self.spec.generators

    @property
    def ambient_rank(self) -> int:
        return self.spec.ambient_rank

    @property
    def generator_count(self) -> int:
        return len(self.spec.generators)

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"<affine monoid in Z^{self.ambient_rank} with generators {gens}>"


def _check_spec_shape(spec: MonoidSpec):
    d, k = spec.ambient_rank, len(spec.generators)
    if type(d) is not int or d < 0:
        raise InvalidMonoidSpec(f"ambient rank {d!r} is not a nonnegative integer")
    if d > _RANK_CAP:
        raise InvalidMonoidSpec(f"ambient rank {d} is above the limit of {_RANK_CAP}")
    if k > _GENERATOR_CAP:
        raise InvalidMonoidSpec(f"generator count {k} is above the limit of {_GENERATOR_CAP}")
    for g in spec.generators:
        _check_ints(g, "generator")
        if len(g) != d:
            raise InvalidMonoidSpec(f"generator {g} does not live in Z^{d}")
        if not any(g):
            raise InvalidMonoidSpec("zero generator: sharpness admits no unit besides 0")
    if spec.relations is not None:
        for r, s in spec.relations:
            _check_ints(r, "relation side")
            _check_ints(s, "relation side")
            if len(r) != k or len(s) != k:
                raise InvalidMonoidSpec(f"relation {(r, s)} has wrong arity (expected {k})")
            if k and (min(r) < 0 or min(s) < 0):
                raise InvalidMonoidSpec(f"relation {(r, s)} has negative exponents")


def _verify_relation(spec: MonoidSpec, rows, relation: Relation):
    """G (r - s) = 0 on the rows of G; only a refusal evaluates both sides."""
    z = tuple(map(operator.sub, *relation))
    if any(sum(map(operator.mul, row, z)) for row in rows):
        lhs, rhs = (tuple(sum(map(operator.mul, row, side)) for row in rows) for side in relation)
        raise RelationInconsistent(
            f"relation {relation} fails: sides evaluate to {lhs} and {rhs}")


def _synthesize_relations(kernel) -> tuple[Relation, ...]:
    """Candidate relations from a basis of the integer kernel of the
    generator matrix, each vector split into its positive and negative
    parts."""
    return tuple((tuple(max(x, 0) for x in z), tuple(max(-x, 0) for x in z)) for z in kernel)


_BOX_CAP = 500_000  # saturation box points
_RANK_CAP = 1_000  # ambient rank: the Smith form builds a rank x rank U
_GENERATOR_CAP = 1_000  # generators: it builds a k x k V, and k - 1 relations


def _joined(masks) -> int:
    """The union of the masks that overlap the first one, transitively."""
    comp, before = masks[0], 0
    while comp != before:
        before = comp
        for mask in masks:
            if mask & comp:
                comp |= mask
    return comp


def _check_congruence_complete(spec: MonoidSpec, relations, degrees, bound, box):
    """Congruence oracle over the monoid's elements, degree by degree.

    Two presentations (exponent vectors) of one element x must be connected
    by the moves m + r <-> m + s of the relation set.  For x of degree b
    let I_x = {i : x - gen_i in P}; join i and j in I_x when
    x - gen_i - gen_j is in P, that is when one presentation uses both, and
    join supp r with supp s for each relation r = s of image x.  This is
    the graph G_b of Charalambous, Katsabekis and Thoma, Proc. AMS 135
    (2007).  If every fiber of degree < b is connected, the presentations
    of x are connected exactly when I_x is one component:

    - The support of every presentation lies in I_x and is joined
      pairwise, and every i in I_x is in the support of a presentation.
    - Presentations sharing an index i are connected: less e_i, both
      present x - gen_i, of lower degree, where moves connect them, and a
      move plus e_i is a move.  A relation r = s of image x is itself the
      move from r to s.  So if I_x is one component, so is the fiber.
    - A move m + r -> m + s keeps the indices of m on both sides when
      m != 0 and is a relation of image x when m == 0, so no move leaves
      a component of I_x.

    Layer b maps the code (:func:`_codec`) of each x of degree b to the
    mask of I_x, built and checked in one pass: making x = y + gen_i from
    y in layer b - deg_i adds gen_i's step to the code and is already the
    join (1 << i) | I_y, and the x whose joins do not overlap as they come
    are closed up with the joins of relations of degree <= bound (a higher
    image may leave ``box``).  By induction on b this is union-find over
    every exponent vector, and the least element of the first failing
    degree is the witness; no layer above it is listed, and only the last
    min(max deg_i, bound) are held, as none further back is read.  Returns
    the codes of the elements listed, points of ``box`` each listed once.
    """
    origin, strides = _codec(box)
    steps = [sum(map(operator.mul, g, strides)) for g in spec.generators]
    joins: dict[int, list[int]] = {}
    for r, s in relations:
        if sum(map(operator.mul, r, degrees)) <= bound:
            mask = sum(1 << i for i, (x, y) in enumerate(zip(r, s)) if x or y)
            joins.setdefault(origin + sum(map(operator.mul, r, steps)), []).append(mask)
    moves = [(1 << i, step, deg) for i, (step, deg) in enumerate(zip(steps, degrees))]
    layers = deque([{origin: 0}], maxlen=min(max(degrees), bound))
    elements = {origin}
    for b in range(1, bound + 1):
        layer: dict[int, int] = {}
        apart: dict[int, list[int]] = {}  # x -> joins not yet one component
        for bit, step, deg in moves:
            if deg <= b:
                for y, below in layers[-deg].items():
                    x = y + step
                    mask = bit | below
                    reach = layer.get(x, 0)
                    layer[x] = reach | mask
                    if reach and (not reach & mask or apart and x in apart):
                        apart.setdefault(x, [reach]).append(mask)
        if apart and (split := [x for x, masks in apart.items()
                                 if _joined(masks + joins.get(x, [])) != layer[x]]):
            code = min(split)
            witness = tuple(a + code // s % (c - a + 1) for a, c, s in zip(*box, strides))
            raise RelationSynthesisIncomplete(
                f"relation set does not connect the presentations of {witness} "
                f"at degree {b}; every fiber of lower degree is connected "
                f"(degree bound {bound})", witness, b)
        layers.append(layer)
        elements.update(layer)
    return elements


def _check_principal(spec: MonoidSpec, relations, z, degrees, bound, box):
    """The walk's verdict in corank 1, kernel Z z, where the toric ideal is
    principal, generated by x^z+ - x^z- (Sturmfels, Groebner Bases and Convex
    Polytopes, 1996, Ch. 4): each fiber below deg z+ is one presentation, the
    fiber at deg z+ is {z+, z-}, joined only by (z+, z-) or (z-, z+), and that
    relation connects every fiber above.  So R is refused exactly when deg z+
    <= bound and holds neither; else the codes of the elements of degree <=
    bound are returned, layer by layer, from the last max deg_i layers."""
    plus, minus = tuple(max(x, 0) for x in z), tuple(max(-x, 0) for x in z)
    top = sum(map(operator.mul, plus, degrees))
    if top <= bound and not {(plus, minus), (minus, plus)} & {tuple(map(tuple, rel))
                                                               for rel in relations}:
        witness = tuple(sum(c * g[a] for c, g in zip(plus, spec.generators))
                        for a in range(spec.ambient_rank))
        raise RelationSynthesisIncomplete(
            f"relation set does not connect the presentations of {witness} at degree {top}; "
            f"every fiber of lower degree is connected (degree bound {bound})", witness, top)
    origin, strides = _codec(box)
    moves = [(sum(map(operator.mul, g, strides)), deg) for g, deg in zip(spec.generators, degrees)]
    layers = deque([{origin}], maxlen=min(max(degrees), bound))
    elements = {origin}
    for b in range(1, bound + 1):
        layer = {y + step for step, deg in moves if deg <= b for y in layers[-deg]}
        layers.append(layer)
        elements |= layer
    return elements


def _check_kernel_span(relations, kernel, k: int):
    """The rows r - s of a supplied relation set must span the integer
    kernel of the generator matrix, with basis ``kernel``, as the moves of
    a Markov basis do (Sturmfels, Groebner Bases and Convex Polytopes,
    1996, Ch. 5).  With U A V = D the Smith form of the rows A, z is in
    their span exactly when w = z V has d_j | w_j for the nonzero d_j and
    w_j = 0 past them; the first basis vector that is not is the witness.
    """
    rows = [tuple(a - b for a, b in zip(r, s)) for r, s in relations]
    _, diag, v = smith_normal_form(rows, k)
    factors = [x for x in diag if x != 0]
    for z in kernel:
        w = [sum(map(operator.mul, z, column)) for column in zip(*v)]
        if any(map(operator.mod, w, factors)) or any(w[len(factors):]):
            why = (f"of rank {len(factors)}, not {len(kernel)}," if len(factors) < len(kernel)
                   else f"with invariant factor {min(x for x in factors if x > 1)}")
            raise RelationSynthesisIncomplete(
                f"relation rows span a sublattice {why} of the integer kernel of "
                f"the generator matrix: the kernel vector {z} is not an integer "
                f"combination of them", z)


def _saturation_box(gens, degrees, bound):
    """The integer bounding box (lo, hi) of the cone truncated at the bound.

    {lam >= 0 : degrees . lam <= bound}, every degree >= 1, is the simplex
    with vertices 0 and (bound / degrees_j) e_j, so each coordinate of
    G @ lam runs between 0 and the bound * gen_j / degrees_j, rounded in.
    The bound is nonnegative: ``validate`` refuses a negative one first.
    """
    lo, hi = [], []
    for column in zip(*gens):
        lo.append(min(0, *(-(-bound * x // deg) for x, deg in zip(column, degrees))))
        hi.append(max(0, *(bound * x // deg for x, deg in zip(column, degrees))))
    return lo, hi


def _codec(box):
    """(origin, strides): x in the box (lo, hi) has the code origin +
    x . strides = sum (x_a - lo_a) * stride_a, first axis most significant,
    so code order is box (lexicographic) order."""
    lo, hi = box
    strides = [math.prod(b - a + 1 for a, b in zip(lo[i:], hi[i:])) for i in range(1, len(lo) + 1)]
    return -sum(map(operator.mul, lo, strides)), strides


def _degree_window(grading, box, bound):
    """The box points of degree 0..bound in box order, as rows: for each p
    on the first d - 1 axes, p, the code of (p, 0), and the first and last
    t in the box with 0 <= deg + w t <= bound, deg the degree of (p, 0)
    and w = grading[-1], by floor division; (p, t) has code code + t.  A
    row with no such t has first > last (w = 0 leaves it out).  Lazily:
    along p's last axis, deg and the code step by its weight and stride."""
    (lo, hi), (origin, strides) = box, _codec(box)
    *head, w = grading
    # w t runs from -deg to bound - deg; dividing by w < 0 swaps the ends
    (low, high), first, last = (0, bound) if w > 0 else (bound, 0), lo[-1], hi[-1]
    # the last axis of p; with one axis there is one row, of the empty prefix
    step, stride, start = (head[-1], strides[-2], lo[-2]) if head else (0, 0, 0)
    tails = [(x,) for x in range(start, hi[-2] + 1)] if head else [()]
    for outer in itertools.product(*(range(a, b + 1) for a, b in zip(lo[:-2], hi[:-2]))):
        deg = sum(map(operator.mul, head, outer)) + step * start
        code = origin + sum(map(operator.mul, outer, strides)) + stride * start
        for tail in tails:
            if w:
                yield (outer + tail, code, max(first, -((deg - low) // w)),
                       min(last, (high - deg) // w))
            elif 0 <= deg <= bound:
                yield outer + tail, code, first, last
            deg, code = deg + step, code + stride


def _check_saturation(gens, grading, box, elements, bound, u, factors):
    """Desk-scale saturation check.

    Visits the points of degree 0..bound of ``box`` = (lo, hi) from
    :func:`_saturation_box`, as :func:`_degree_window` lists them, and
    demands each point of the generated sublattice be a nonnegative integer
    combination of generators, i.e. have its code among the ``elements``
    that the walk or :func:`_check_principal` listed (a code fixes the point,
    and so its degree); only a point that does not is built as a tuple.
    The ``grading`` functional gives the generators their degrees.  A
    point off the monoid elements is outside the cone when a Farkas
    certificate found earlier in the scan is negative on it; otherwise a
    phase-one simplex decides it, and an "outside" answer adds its
    certificate to the scan's list.  So a saturated cone costs one LP per
    certificate it needs, not one per point, and every point is classified
    as the LP alone would.  A certificate (h, w) is >= 0 at (p, t) exactly
    on an interval of t, as s = h . p: t >= ceil(-s / w) for w > 0,
    t <= floor(s / -w) for w < 0, all t or none for w = 0 as s >= 0 or
    not.  So the scan visits only the intersection of these intervals with
    each row; a certificate found mid-row is negative at its point, so it
    ends the row when w <= 0 and jumps past the point to its new start
    when w > 0.  With U G V = D the Smith form of the generator matrix, x is in
    the sublattice exactly when y = U x has d_i | y_i for its r nonzero
    ``factors`` d_i, and y_i = 0 after.
    """
    r = len(factors)
    certificates = []
    for prefix, code, first, last in _degree_window(grading, box, bound):
        for head, w in certificates:
            s = sum(map(operator.mul, head, prefix))
            if w > 0:
                first = max(first, -(s // w))
            elif w < 0:
                last = min(last, s // -w)
            elif s < 0:
                last = first - 1
        t = first
        while t <= last:
            if code + t in elements:
                t += 1
                continue
            point = (*prefix, t)
            inside, c = ratlp.in_cone(gens, point)
            if not inside:
                *head, w = c
                certificates.append((head, w))
                if w <= 0:
                    break
                t = -(sum(map(operator.mul, head, prefix)) // w)
                continue
            y = [sum(map(operator.mul, row, point)) for row in u]
            if not any(map(operator.mod, y, factors)) and not any(y[r:]):
                raise SaturationFailure(point)
            t += 1  # in the cone but not in the generated sublattice


def validate(spec: MonoidSpec, degree_bound: int = DEFAULT_DEGREE_BOUND) -> AffineMonoid:
    """Validate a presentation and return the affine monoid it defines.

    Sharpness is decided by the coordinate sum when it is >= 1 on every
    generator, since that sum is then a strict functional, in rank 1 by the
    sign (+1 and -1 are the only coprime functionals on Z^1), and otherwise
    exactly by rational feasibility, an LP whose certificate, in coprime
    integers, becomes the grading.  One Smith form U G V = D of the
    generator matrix gives the group rank r (the nonzero invariant
    factors), a kernel basis (columns r, r+1, ... of V), lattice
    membership for the saturation check, and the lattice coordinates U[:r]
    that :func:`faces` reads.  The relation set R is the supplied one,
    each relation verified exactly, or else the kernel basis split into
    signs.  Relation completeness has three tiers, by the kernel's rank.
    A free chart (rank 0, generators linearly independent) is decided in
    closed form: P is N^k, so R is complete, and P is saturated because a
    cone lattice point has unique, hence nonnegative integer, coordinates.
    Rank 1 is decided in closed form too, by :func:`_check_principal`.
    Rank 2 and up take the congruence walk, which names the least-degree
    element whose presentations R leaves disconnected.  Past rank 0, on the
    integer codes of the bounded saturation box, a supplied R must also span
    the integer kernel, and saturation is checked on the box points of
    degree 0..bound against the elements listed.  Ranks 1 and up join
    z+ to z- for each kernel basis vector z = z+ - z- of deg z+ <= bound,
    so such a z is a sum of relation rows (Diaconis and Sturmfels, 1998),
    and one more Smith form decides the span only where some basis vector
    lies above the bound.  The spec must be a MonoidSpec
    (:meth:`MonoidSpec.make` builds one from lists) and the bound an int.

    Raises NotSharp, RelationInconsistent, RelationSynthesisIncomplete,
    SaturationFailure, or InvalidMonoidSpec.
    """
    if not isinstance(spec, MonoidSpec):
        raise InvalidMonoidSpec(f"validate takes a MonoidSpec, not a {type(spec).__name__}")
    _check_spec_shape(spec)
    if type(degree_bound) is not int:
        raise InvalidMonoidSpec(f"degree bound {degree_bound!r} is not an integer")
    if degree_bound < 0:
        raise InvalidMonoidSpec(
            f"degree bound {degree_bound} is negative; the truncated cone is empty")
    d = spec.ambient_rank

    if all(sum(g) >= 1 for g in spec.generators):
        grading = (1,) * d
    elif d == 1 and all(g[0] < 0 for g in spec.generators):
        grading = (-1,)  # the only other coprime functional on Z^1
    else:
        grading = ratlp.strict_functional(d, [], list(spec.generators))
        if grading is None:
            raise NotSharp("the rational cone spanned by the generators contains a line")

    matrix = generator_matrix(spec.generators, d)
    u, diag, v = smith_normal_form(matrix, len(spec.generators))
    factors = [x for x in diag if x != 0]
    gp_rank = len(factors)
    # G V e_j = 0 for j >= r and V is unimodular: a kernel basis, empty when free
    kernel = list(zip(*v))[gp_rank:]
    for rel in spec.relations or ():
        _verify_relation(spec, matrix, rel)
    relations = _synthesize_relations(kernel) if spec.relations is None else spec.relations

    degrees = [sum(map(operator.mul, grading, g)) for g in spec.generators]
    if kernel:
        box = _saturation_box(spec.generators, degrees, degree_bound)
        size = math.prod(b - a + 1 for a, b in zip(*box))  # lo <= 0 <= hi
        if size > _BOX_CAP:
            raise InvalidMonoidSpec(
                f"saturation box has {size} points; lower the degree bound")
        if len(kernel) == 1:
            elements = _check_principal(spec, relations, kernel[0], degrees, degree_bound, box)
        else:
            elements = _check_congruence_complete(spec, relations, degrees, degree_bound, box)
        # a synthesized set spans the kernel: its rows are the basis itself; the
        # walk connected z+ to z- for each basis vector z of degree <= bound
        if spec.relations is not None and any(
                sum(x * deg for x, deg in zip(z, degrees) if x > 0) > degree_bound
                for z in kernel):
            _check_kernel_span(relations, kernel, len(spec.generators))
        _check_saturation(spec.generators, grading, box, elements, degree_bound, u, factors)
    return AffineMonoid(
        spec=spec,
        gp_lattice_rank=gp_rank,
        relations=relations,
        degree_bound=degree_bound,
        grading=grading,
        _lattice=u[:gp_rank],
        _presentations={},
    )


def _facets(m: AffineMonoid) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The facets of the cone, as support -> primitive ambient normal.

    With U G V = D the Smith form of the generator matrix that
    :func:`validate` ran and r its rank, generator g has lattice
    coordinates y = U[:r] g (rows kept as ``m._lattice``), in which the
    cone is full-dimensional.  Each (r-1)-subset S of the y's of rank
    r - 1 has the cofactor normal n_j = (-1)^j det(S without column j); S
    spans a facet exactly when n.y has one sign on every generator (the
    supporting hyperplanes of Bruns and Ichim, J. Algebra 324 (2010)).  The
    functional n.y is n.U[:r] on Z^d, primitive when n is, since U is
    unimodular.
    """
    lattice, r = m._lattice, m.gp_lattice_rank
    if r == 0:
        return {}  # no generators: the cone is the origin
    ys = [tuple(sum(map(operator.mul, row, g)) for row in lattice) for g in m.generators]
    found = {}
    for rows in itertools.combinations(ys, r - 1):
        normal = [(-1) ** j * _det([y[:j] + y[j + 1:] for y in rows]) for j in range(r)]
        g = math.gcd(*normal)
        if g == 0:
            continue  # the rows have rank < r - 1
        values = [sum(map(operator.mul, normal, y)) for y in ys]
        if min(values) < 0 < max(values):
            continue
        scale = -g if min(values) < 0 else g
        support = tuple(i for i, v in enumerate(values) if v == 0)
        if support not in found:
            found[support] = tuple(sum(c * row[a] for c, row in zip(normal, lattice)) // scale
                                   for a in range(m.ambient_rank))
    return found


def faces(m: AffineMonoid) -> list[Face]:
    """The complete face lattice, one Face per support, sorted by
    (support size, support).

    The supports are the facet supports closed under intersection, with
    the full support (dense face) added; the vertex, the intersection of
    all facets, has empty support because the monoid is sharp.  A face's
    certificate is the sum of the normals of the facets containing it,
    scaled to coprime integers: a face is the intersection of the facets
    containing it, so the sum vanishes on the face's generators and is
    positive on every other.  The dense face gets certificate 0.  No LP
    and no Smith form is run: the facets cost one (r-1)-minor per
    (r-1)-subset of generators, in the lattice coordinates that
    :func:`validate` kept.
    """
    if m._faces is not None:
        return list(m._faces)
    facets = _facets(m)
    supports = {tuple(range(m.generator_count))}
    for facet in facets:
        supports |= {tuple(i for i in s if i in facet) for s in supports}
    found = []
    for support in sorted(supports, key=lambda s: (len(s), s)):
        total = [0] * m.ambient_rank
        for facet, normal in facets.items():
            if set(support) <= set(facet):
                total = list(map(operator.add, total, normal))
        g = math.gcd(*total) or 1
        found.append(Face(support, tuple(x // g for x in total)))
    object.__setattr__(m, "_faces", tuple(found))
    return list(found)


def face_with_support(m: AffineMonoid, support) -> Face:
    """The face with the given support, or NotAFace, also for an index
    that is not an int (a bool included) or that is repeated."""
    for i in support:
        if type(i) is not int:
            raise NotAFace(f"generator index {i!r} is not an integer")
    support = tuple(sorted(support))
    out_of_range = [i for i in support if not 0 <= i < m.generator_count]
    if out_of_range:
        raise NotAFace(f"generator indices {out_of_range} are out of range: "
                       f"the chart has {m.generator_count} generators")
    repeated = sorted({i for i in support if support.count(i) > 1})
    if repeated:
        raise NotAFace(f"generator indices {repeated} are repeated in the support")
    for f in faces(m):
        if f.support == support:
            return f
    raise NotAFace(f"generator subset {support} admits no supporting functional")


def stalk(m: AffineMonoid, f: Face) -> tuple[AffineMonoid, int]:
    """The sharp quotient monoid P/<F> and its group rank.

    The quotient is presented in the free lattice Z^d / sat(L_F), where
    L_F is the sublattice spanned by the face's generators; saturating
    changes nothing on the group side (the face lattice is saturated in
    P^gp because P is) and keeps the quotient torsion-free.  The rank is
    gp_lattice_rank(P) minus the rank of L_F.

    P/F keeps P's relations with F's coordinates deleted: p - q lies in
    F^gp exactly when p + g = q + f for some f, g in F, so these present
    the quotient; :func:`validate` checks them as a supplied set.  The
    dense face, whose support is every generator, runs no Smith form of its
    own: nothing is left to project and L_F is P^gp, of rank r =
    gp_lattice_rank(P), so P/F is the trivial monoid in Z^(d - r).
    """
    face_with_support(m, f.support)  # NotAFace unless f is a face of m
    d = m.ambient_rank
    support = set(f.support)
    outside = [j for j in range(m.generator_count) if j not in support]
    r, kill = m.gp_lattice_rank, ()  # the dense face, with nothing to project
    if outside:
        face_matrix = generator_matrix([m.generators[i] for i in f.support], d)
        u, diag, _ = smith_normal_form(face_matrix, len(f.support))
        r = sum(1 for x in diag if x != 0)
        kill = u[r:]  # x -> last d-r coordinates of U x kills exactly sat(L_F)
    gens = tuple(tuple([sum(map(operator.mul, row, m.generators[j])) for row in kill])
                 for j in outside)
    rels = tuple(tuple(tuple([side[j] for j in outside]) for side in rel) for rel in m.relations)
    quotient = validate(MonoidSpec(d - r, gens, rels), degree_bound=m.degree_bound)
    return quotient, m.gp_lattice_rank - r


def _presentation(m: AffineMonoid, kept: tuple[int, ...], pins: tuple[int, ...], rank):
    """(rows, Smith form of K, ``rank()``) for K the relation rows r - s
    supported on ``kept`` plus unit rows pinning ``pins``, and the lattice
    rank its solution torus should have; once per chart and key."""
    found = m._presentations.get((kept, pins))
    if found is None:
        k, inside = m.generator_count, set(kept)
        rows = tuple(tuple(rj - sj for rj, sj in zip(r, s)) for r, s in m.relations
                     if inside.issuperset(j for j in range(k) if r[j] or s[j]))
        units = tuple(tuple(int(i == j) for i in range(k)) for j in pins)
        found = m._presentations[kept, pins] = rows, smith_normal_form(rows + units, k), rank()
    return found


def _decide(smith, r: int):
    """{theta in (R/Z)^k : K theta = 0}, for U K V = D with nonzero diagonal
    d_1..d_s, is a torus of rank k - s times the sum of the Z/d_j: returns
    (every d_j = 1 and k - s = r, k - s, the d_j > 1)."""
    _, diag, v = smith
    factors = [d for d in diag if d]
    pi0 = tuple(d for d in factors if d > 1)
    return not pi0 and len(v) - len(factors) == r, len(v) - len(factors), pi0


def _angle_fiber(m: AffineMonoid, f: Face, r: int):
    """``_decide`` on K_F, all rows and pins on F, for the stalk rank r."""
    return _decide(*_presentation(m, tuple(range(m.generator_count)), f.support, lambda: r)[1:])


def mu(m: AffineMonoid, n: int) -> FgAbelianGroup:
    """The finite abelian group mu_n(P).

    It is the cokernel of the Kummer inclusion on group lattices, which is
    multiplication by n on Z^r for a sharp fs monoid of group rank r, so
    it is Z^r/nZ^r = (Z/n)^r in closed form.  Cartier duality identifies a
    finite abelian group with its dual only non-canonically, so the
    abstract group is returned; every downstream use (orders, torsor
    cardinalities, pro-system levels) is isomorphism-invariant.
    """
    return tensor_mod(FgAbelianGroup.free(m.gp_lattice_rank), n)
