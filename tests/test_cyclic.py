"""The cyclic-quotient charts 1/n(1, q): an infinite family of fs charts
whose Hilbert basis, relations and fibers are known in closed form
(``oracles.cyclic_quotient``).  The pins record today's answers where the
relations are left to synthesis, or a basis element is dropped."""

import functools
import math

import pytest

from logcharts.errors import RelationSynthesisIncomplete, SaturationFailure
from logcharts.fibers import verify_fiber_equivalence
from logcharts.monoid import MonoidSpec, _angle_fiber, validate
from logcharts.strata import stratify
from oracles import cyclic_quotient, torsion_count


def charts(largest):
    """(n, q) for every chart 1/n(1, q) with n <= largest."""
    return [(n, q) for n in range(2, largest + 1) for q in range(1, n) if math.gcd(n, q) == 1]


@functools.cache
def closed_form(n, q):
    basis, _, relations = cyclic_quotient(n, q)
    return validate(MonoidSpec.make(2, basis, relations))


def test_the_basis_is_the_brute_force_hilbert_basis():
    # the irreducible elements of P lie in the square [0, n]^2, spanned by
    # (n, 0) and (0, n); in order of slope, their consecutive determinants
    # are n, and u_{i-1} + u_{i+1} = b_i u_i with every b_i >= 2
    assert len(charts(20)) == 127
    for n, q in charts(20):
        basis, b, relations = cyclic_quotient(n, q)
        elements = {(a, c) for a in range(n + 1) for c in range(n + 1) if (a + q * c) % n == 0}
        elements.discard((0, 0))
        irreducible = {x for x in elements
                       if not any((x[0] - y[0], x[1] - y[1]) in elements for y in elements)}
        assert basis == sorted(irreducible, key=lambda x: (-x[0], x[1])), (n, q)
        assert len(b) == len(basis) - 2 and min(b, default=2) >= 2
        assert all(u[0] * v[1] - u[1] * v[0] == n for u, v in zip(basis, basis[1:]))
        e = len(basis)
        assert len(relations) == (e - 1) * (e - 2) // 2
        for lhs, rhs in relations:
            assert [sum(x * u[a] for x, u in zip(lhs, basis)) for a in (0, 1)] == [
                sum(x * u[a] for x, u in zip(rhs, basis)) for a in (0, 1)], (n, q, lhs, rhs)


def test_every_chart_with_its_relations_proves_every_face():
    # 45 charts with n <= 12: each validates and stratifies into the vertex
    # (rank 2), two rays (rank 1) and the dense face (rank 0), and over each
    # face the decision proves the comparison, checked to bound 100; the
    # N-torsion of each fiber is N^(k - s) times the gcds of N with the d_j
    assert len(charts(12)) == 45
    for n, q in charts(12):
        m = closed_form(n, q)
        k = m.generator_count
        entries = stratify(m).entries
        assert [(len(e.face.support), e.stalk_rank) for e in entries] == [
            (0, 2), (1, 1), (1, 1), (k, 0)], (n, q)
        assert [e.face.support for e in entries[1:3]] == [(0,), (k - 1,)]
        rows = [[x - y for x, y in zip(r, s)] for r, s in m.relations]
        for e in entries:
            ok, cert = verify_fiber_equivalence(m, e.face, 100)
            assert ok and cert.checked_to_bound and cert.pi0 == (), (n, q, e.face)
            assert cert.torus_rank == e.stalk_rank
            pins = [[int(i == j) for i in range(k)] for j in e.face.support]
            _, torus_rank, pi0 = _angle_fiber(m, e.face, e.stalk_rank)
            for big in (2, 3, 4, 6):
                if big ** k <= 50_000:
                    assert torsion_count(rows + pins, k, big) == big ** torus_rank * math.prod(
                        math.gcd(d, big) for d in pi0), (n, q, e.face, big)


# With no relations supplied, synthesis takes the e - 2 rows of a kernel
# basis; today these charts are refused as RelationSynthesisIncomplete, and
# of those accepted, the ones with e >= 4 are accepted at the degree bound
# although e - 2 relations cannot generate an ideal that needs
# (e - 1)(e - 2) / 2 (ROADMAP items 4 and 19).
REFUSED = {(3, 1), (4, 1), (5, 1), (5, 2), (5, 3), (6, 1), (7, 1), (7, 2), (7, 3), (7, 4),
           (7, 5), (8, 1), (8, 3), (8, 5), (9, 1), (9, 2), (9, 4), (9, 5), (9, 7), (10, 1),
           (10, 3), (10, 7), (11, 2), (11, 3), (11, 4), (11, 6), (12, 5), (12, 7)}
INCOMPLETE = {(11, 1), (11, 5), (11, 7), (11, 8), (11, 9), (12, 1)}


def test_synthesis_pins_each_chart_refused_complete_or_incomplete():
    answers = {}
    for n, q in charts(12):
        basis = cyclic_quotient(n, q)[0]
        try:
            m = validate(MonoidSpec.make(2, basis))
        except RelationSynthesisIncomplete:
            answers[n, q] = "refused"
            continue
        assert len(m.relations) == len(basis) - 2
        answers[n, q] = "complete" if len(basis) == 3 else "incomplete"
    assert {c for c, a in answers.items() if a == "refused"} == REFUSED
    assert {c for c, a in answers.items() if a == "incomplete"} == INCOMPLETE
    complete = {c for c, a in answers.items() if a == "complete"}
    assert complete == {(n, q) for n, q in charts(12) if len(cyclic_quotient(n, q)[0]) == 3}
    assert len(complete) == 11


def test_a_dropped_interior_basis_element_is_the_saturation_witness():
    # with relations left to synthesis, validate refuses the chart by its
    # walk or by saturation, and then names the dropped element; only
    # A_{n-1} = 1/n(1, n - 1) without (1, 1) is accepted, a chart of another
    # group, generated by (n, 0) and (0, n)
    answers = {"saturation": 0, "synthesis": 0, "accepted": 0}
    for n, q in charts(12):
        basis = cyclic_quotient(n, q)[0]
        for i in range(1, len(basis) - 1):
            try:
                validate(MonoidSpec.make(2, basis[:i] + basis[i + 1:]))
            except SaturationFailure as err:
                assert err.witness == basis[i], (n, q, i)
                answers["saturation"] += 1
            except RelationSynthesisIncomplete:
                answers["synthesis"] += 1
            else:
                assert (q, basis[i]) == (n - 1, (1, 1)), (n, q, i)
                answers["accepted"] += 1
    assert answers == {"saturation": 54, "synthesis": 80, "accepted": 11}
