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
from fractions import Fraction

from . import ratlp
from ._record import Record
from .abgrp import FgAbelianGroup, _det, generator_matrix, smith_normal_form, tensor_mod
from .errors import (InvalidMonoidSpec, NotAFace, NotSharp,
                     RelationInconsistent, RelationSynthesisIncomplete,
                     SaturationFailure)

DEFAULT_DEGREE_BOUND = 20
DEFAULT_TOLERANCE = 1e-9  # semialg's; here so callers state it without loading semialg

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
    if not all(type(x) is int for x in vector):
        raise InvalidMonoidSpec(f"{what} {vector!r} has an entry that is not an integer")


class Face(Record):
    """A face of the monoid, as the set of generator indices lying on it.

    The certificate is a functional u on Z^d with <u, gen_i> == 0 exactly
    for i in the support and <u, gen_j> > 0 exactly off it; its existence
    is what makes the support a face.  :func:`faces` makes it the sum of
    the primitive normals of the facets containing the face, in coprime
    integers held as Fractions, and 0 on the dense face.
    """

    support: tuple[int, ...]
    certificate: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "support", tuple(sorted(self.support)))
        object.__setattr__(self, "certificate", tuple(Fraction(x) for x in self.certificate))

    def __contains__(self, index: int) -> bool:
        return index in self.support

    def __str__(self):
        return "{" + ", ".join(map(str, self.support)) + "}"


class AffineMonoid(Record, frozen=False):
    """A validated fine saturated sharp monoid.

    ``relations`` is the verified relation set (synthesized from the kernel
    of the generator matrix when the presentation supplied none; empty for
    a free chart).  ``is_saturated`` is proved exactly for a free chart
    (linearly independent generators) and otherwise records a desk-scale
    check: saturation was verified for all cone lattice points up to
    ``degree_bound``.  ``_lattice`` is U[:r], r the group rank, from the
    Smith form U G V = D that :func:`validate` ran; :func:`faces` reads
    the facets in these coordinates.  Treat instances as immutable; they
    are only constructed by :func:`validate`.
    """

    spec: MonoidSpec
    gp_lattice_rank: int
    is_sharp: bool
    is_saturated: bool
    relations: tuple[Relation, ...]
    degree_bound: int
    sharpness_certificate: tuple[Fraction, ...]
    grading: tuple[int, ...]
    _lattice: tuple[tuple[int, ...], ...]
    _faces: tuple[Face, ...] | None = None

    @property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        return self.spec.generators

    @property
    def ambient_rank(self) -> int:
        return self.spec.ambient_rank

    @property
    def generator_count(self) -> int:
        return len(self.spec.generators)

    def degree(self, vector) -> int:
        """Value of the grading functional; >= 1 on every generator."""
        return sum(int(u) * int(x) for u, x in zip(self.grading, vector))

    def __str__(self):
        gens = ", ".join(str(g) for g in self.generators)
        return f"<affine monoid in Z^{self.ambient_rank} with generators {gens}>"


def _check_spec_shape(spec: MonoidSpec):
    d, k = spec.ambient_rank, len(spec.generators)
    if type(d) is not int or d < 0:
        raise InvalidMonoidSpec(f"ambient rank {d!r} is not a nonnegative integer")
    for g in spec.generators:
        _check_ints(g, "generator")
        if len(g) != d:
            raise InvalidMonoidSpec(f"generator {g} does not live in Z^{d}")
        if all(x == 0 for x in g):
            raise InvalidMonoidSpec("zero generator: sharpness admits no unit besides 0")
    if spec.relations is not None:
        for r, s in spec.relations:
            _check_ints(r, "relation side")
            _check_ints(s, "relation side")
            if len(r) != k or len(s) != k:
                raise InvalidMonoidSpec(f"relation {(r, s)} has wrong arity (expected {k})")
            if any(x < 0 for x in r) or any(x < 0 for x in s):
                raise InvalidMonoidSpec(f"relation {(r, s)} has negative exponents")


def _verify_relation(spec: MonoidSpec, relation: Relation):
    r, s = relation
    d = spec.ambient_rank
    lhs = tuple(sum(r[j] * spec.generators[j][i] for j in range(len(r))) for i in range(d))
    rhs = tuple(sum(s[j] * spec.generators[j][i] for j in range(len(s))) for i in range(d))
    if lhs != rhs:
        raise RelationInconsistent(
            f"relation {relation} fails: sides evaluate to {lhs} and {rhs}")


def _grading_functional(spec: MonoidSpec, certificate) -> tuple[int, ...]:
    """An integer functional that is >= 1 on every generator.

    The coordinate-sum functional is the default degree; it is used
    whenever it is positive on all generators, and the sharpness
    certificate (coprime integers) is the fallback grading otherwise.
    """
    if all(sum(g) >= 1 for g in spec.generators):
        return (1,) * spec.ambient_rank
    return tuple(int(x) for x in certificate)


def _synthesize_relations(v, r: int) -> tuple[Relation, ...]:
    """Candidate relations from the columns r, r+1, ... of V in the Smith
    form U G V = D of the generator matrix, r its rank: G V e_j = 0 for
    j >= r and V is unimodular, so they are a basis of the integer kernel.
    Each is split into its positive and negative parts."""
    kernel = list(zip(*v))[r:]
    return tuple((tuple(max(x, 0) for x in z), tuple(max(-x, 0) for x in z)) for z in kernel)


_ENUMERATION_CAP = 2_000_000


def _monoid_images(spec: MonoidSpec, degrees, bound):
    """The elements of P up to the degree bound, one layer per degree.

    layers[0] = {0} and layers[b] is the union over i of
    layers[b - degrees_i] + gen_i, so an element is made once per generator
    it is a sum with, not once per presentation.  Each layer maps an element
    x to the bit mask of I_x = {i : x - gen_i in P}.  More than
    ``_ENUMERATION_CAP`` elements held raise InvalidMonoidSpec.
    """
    layers = [{(0,) * spec.ambient_rank: 0}]
    held = 1
    for b in range(1, bound + 1):
        layer: dict[tuple[int, ...], int] = {}
        for i, (gen, step) in enumerate(zip(spec.generators, degrees)):
            if step <= b:
                bit = 1 << i
                for y in layers[b - step]:
                    x = tuple(map(operator.add, y, gen))
                    layer[x] = layer.get(x, 0) | bit
        held += len(layer)
        if held > _ENUMERATION_CAP:
            raise InvalidMonoidSpec(
                "degree-bounded enumeration exceeds the desk-scale cap; "
                "lower the degree bound")
        layers.append(layer)
    return layers


def _joined(masks) -> int:
    """The union of the masks that overlap the first one, transitively."""
    comp, grew = masks[0], True
    while grew:
        grew = False
        for mask in masks:
            if mask & comp and mask | comp != comp:
                comp |= mask
                grew = True
    return comp


def _check_congruence_complete(spec: MonoidSpec, relations, degrees, bound):
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

    By induction on b the verdict is that of union-find over every
    exponent vector up to the bound, and the first degree that fails holds
    truly disconnected fibers; the least of them is the witness.  Returns
    the set of elements up to the bound.
    """
    layers = _monoid_images(spec, degrees, bound)
    gens = spec.generators
    joins: dict[tuple[int, ...], list[int]] = {}
    for r, s in relations:
        image = tuple(sum(c * g[a] for c, g in zip(r, gens))
                      for a in range(spec.ambient_rank))
        mask = sum(1 << i for i, (x, y) in enumerate(zip(r, s)) if x or y)
        joins.setdefault(image, []).append(mask)
    for b in range(1, len(layers)):
        split = []
        for x, reach in layers[b].items():
            if reach & (reach - 1) == 0:
                continue  # every presentation of x contains the one index
            # i joins I_(x - gen_i), the j with x - gen_i - gen_j in P
            masks = [(1 << i) | layers[b - degrees[i]][tuple(map(operator.sub, x, gens[i]))]
                     for i in range(len(gens)) if reach >> i & 1]
            if _joined(masks + joins.get(x, [])) != reach:
                split.append(x)
        if split:
            witness = min(split)
            raise RelationSynthesisIncomplete(
                f"relation set does not connect the presentations of {witness} "
                f"at degree {b}; every fiber of lower degree is connected "
                f"(degree bound {bound})",
                witness, b)
    return set().union(*layers)


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


def _check_saturation(m_partial: AffineMonoid, monoid_images, bound, u, factors):
    """Desk-scale saturation check.

    Enumerates the integer points of the cone truncated at the degree
    bound (a bounding box in closed form, then, off the monoid elements, a
    phase-one simplex per point) and demands each point of the generated
    sublattice be a nonnegative integer combination of generators, i.e.
    appear among the enumerated monoid elements.  With U G V = D the Smith
    form of the generator matrix, x is in the sublattice exactly when
    y = U x has d_i | y_i for its r nonzero ``factors`` d_i, and y_i = 0 after.
    """
    gens = m_partial.generators
    lo, hi = _saturation_box(gens, [m_partial.degree(g) for g in gens], bound)
    box = math.prod(b - a + 1 for a, b in zip(lo, hi))  # lo <= 0 <= hi
    if box > 500_000:
        raise InvalidMonoidSpec(
            f"saturation box has {box} points; lower the degree bound")

    r = len(factors)
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        deg = sum(c * x for c, x in zip(m_partial.grading, point))
        if deg < 0 or deg > bound:
            continue
        if point in monoid_images:  # the origin among them
            continue
        if not ratlp.in_cone(gens, point):
            continue
        y = [sum(map(operator.mul, row, point)) for row in u]
        if any(map(operator.mod, y, factors)) or any(y[r:]):
            continue  # in the cone but not in the generated sublattice
        raise SaturationFailure(point)


def validate(spec: MonoidSpec, degree_bound: int = DEFAULT_DEGREE_BOUND) -> AffineMonoid:
    """Validate a presentation and return the affine monoid it defines.

    Sharpness is decided exactly by rational feasibility, and supplied
    relations are verified exactly.  One Smith form U G V = D of the
    generator matrix gives the group rank r (the nonzero invariant
    factors), the kernel basis that absent relations are synthesized from
    (columns r, r+1, ... of V), lattice membership for the saturation
    check, and the lattice coordinates U[:r] that :func:`faces` reads.  A
    free chart (generators linearly independent) is decided in closed
    form: P is N^k, so the empty relation set is complete, and P is
    saturated in P^gp because a lattice point of the cone has unique,
    hence nonnegative integer, coordinates.  Otherwise absent relations
    are checked up to the degree bound by the congruence oracle, which
    walks the monoid's elements degree by degree and names the
    least-degree element whose presentations the relations leave
    disconnected; saturation is checked up to the same bound against
    those elements (with supplied relations, the elements are listed
    without the connectivity check).  The bound must be an int.

    Raises NotSharp, RelationInconsistent, RelationSynthesisIncomplete,
    SaturationFailure, or InvalidMonoidSpec.
    """
    if not isinstance(spec, MonoidSpec):
        spec = MonoidSpec.make(*spec)
    _check_spec_shape(spec)
    if type(degree_bound) is not int:
        raise InvalidMonoidSpec(f"degree bound {degree_bound!r} is not an integer")
    if degree_bound < 0:
        raise InvalidMonoidSpec(
            f"degree bound {degree_bound} is negative; the truncated cone is empty")
    d = spec.ambient_rank

    certificate = ratlp.strict_functional(d, [], list(spec.generators))
    if certificate is None:
        raise NotSharp("the rational cone spanned by the generators contains a line")

    u, diag, v = smith_normal_form(generator_matrix(spec.generators, d), len(spec.generators))
    factors = [x for x in diag if x != 0]
    gp_rank = len(factors)
    free = gp_rank == len(spec.generators)
    if spec.relations is not None:
        for rel in spec.relations:
            _verify_relation(spec, rel)
        relations = spec.relations
    else:
        relations = _synthesize_relations(v, gp_rank)  # () when free

    grading = _grading_functional(spec, certificate)
    monoid = AffineMonoid(
        spec=spec,
        gp_lattice_rank=gp_rank,
        is_sharp=True,
        is_saturated=False,
        relations=relations,
        degree_bound=degree_bound,
        sharpness_certificate=tuple(certificate),
        grading=grading,
        _lattice=u[:gp_rank],
    )

    degrees = [monoid.degree(g) for g in spec.generators]
    if any(x < 1 for x in degrees):
        raise InvalidMonoidSpec("grading functional is not positive on the generators")
    if not free:
        if spec.relations is None:
            images = _check_congruence_complete(spec, relations, degrees, degree_bound)
        else:
            images = set().union(*_monoid_images(spec, degrees, degree_bound))
        _check_saturation(monoid, images, degree_bound, u, factors)
    monoid.is_saturated = True
    return monoid


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
    m._faces = tuple(found)
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
    the quotient, and no relation is synthesized for it.
    """
    face_with_support(m, f.support)  # NotAFace unless f is a face of m
    d = m.ambient_rank
    support = set(f.support)
    face_matrix = generator_matrix([m.generators[i] for i in f.support], d)
    u, diag, _ = smith_normal_form(face_matrix, len(f.support))
    r = sum(1 for x in diag if x != 0)

    # x -> last d-r coordinates of U x kills exactly sat(L_F).
    def project(vec):
        return [sum(map(operator.mul, row, vec)) for row in u[r:]]

    outside = [j for j in range(len(m.generators)) if j not in support]
    quotient_gens = [project(m.generators[j]) for j in outside]
    quotient_rels = [([a[j] for j in outside], [b[j] for j in outside]) for a, b in m.relations]
    quotient_spec = MonoidSpec.make(d - r, quotient_gens, quotient_rels)
    quotient = validate(quotient_spec, degree_bound=m.degree_bound)
    return quotient, m.gp_lattice_rank - r


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
