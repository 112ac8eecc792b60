"""Exact integer linear algebra: Smith form, cokernels, truncations."""

import math
import random
from fractions import Fraction

import pytest

import cli_golden
import logcharts.abgrp as abgrp
import logcharts.fibers as fibers
import logcharts.monoid as monoid
from logcharts.abgrp import FgAbelianGroup, _det, cokernel, smith_normal_form, tensor_mod

from oracles import (coset_count_bfs, coset_count_box, det, diagonal,
                     element_order_multiset, identity, is_unimodular, matmul,
                     random_unimodular, smith_normal_form_by_helpers, tensor_mod_by_lists)


def snf_checks(rows, cols):
    u, diag, v = smith_normal_form(rows, cols)
    assert len(diag) == min(len(rows), cols)
    # U m V is the rows x cols matrix D with the diagonal entries d_i
    assert matmul(matmul(u, rows), v) == diagonal(diag, len(rows), cols)
    assert is_unimodular(u) and len(u) == len(rows)
    assert is_unimodular(v) and len(v) == cols
    assert all(type(x) is tuple for x in (u, v, diag, *u, *v))
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # zeros, which everything divides, come last
    assert diag == tuple(nonzero) + (0,) * (len(diag) - len(nonzero))
    if len(rows) == cols:
        assert _det(rows) == det(rows) and abs(det(rows)) == math.prod(diag)
    return u, diag, v


def test_snf_already_diagonal():
    _, diag, _ = snf_checks(((2, 0), (0, 2)), 2)
    assert diag == (2, 2)


def test_snf_empty_matrix():
    assert snf_checks((), 0) == ((), (), ())
    # no rows still carry a width: V is cols x cols
    assert snf_checks((), 3) == ((), (), tuple(map(tuple, identity(3))))
    assert snf_checks(((),) * 2, 0) == (((1, 0), (0, 1)), (), ())


def test_snf_2x2_gcd_chain():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    rows = ((2, 4), (6, 8))
    _, diag, _ = snf_checks(rows, 2)
    assert diag == (2, 4)
    assert math.gcd(*(x for row in rows for x in row)) == 2 == diag[0]
    assert abs(det(rows)) == 8 == diag[0] * diag[1]


def test_snf_random_stress():
    rng = random.Random(20260810)
    for _ in range(200):
        r, c = rng.randrange(0, 5), rng.randrange(0, 5)
        snf_checks(tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r)), c)


def test_snf_matches_the_helper_reference():
    # the in-place operations keep the pivot sequence of the helper calls,
    # so U and V are the same matrices, not just some unimodular pair:
    # synthesized relations are read off V and stalk generators off U
    rng = random.Random(20261020)
    for _ in range(20_000):
        r, c = rng.randrange(0, 6), rng.randrange(0, 8)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(c)) for _ in range(r))
        assert smith_normal_form(rows, c) == smith_normal_form_by_helpers(rows, c), rows


def test_snf_matches_the_helper_reference_on_the_golden_corpus(monkeypatch):
    # every matrix the golden CLI corpus feeds the Smith form: the
    # generator matrices of the corpus charts, of their stalks and faces,
    # relation rows and the Kummer fibers' congruences
    fed = []

    def recording(rows, cols):
        fed.append((rows, cols))
        return smith_normal_form(rows, cols)

    for module in (abgrp, monoid, fibers):
        monkeypatch.setattr(module, "smith_normal_form", recording)
    for argv in cli_golden.argvs():
        cli_golden.run(argv)
    monkeypatch.undo()
    assert len(fed) > 200, len(fed)
    for rows, cols in fed:
        assert smith_normal_form(rows, cols) == smith_normal_form_by_helpers(rows, cols), rows


@pytest.mark.parametrize("rows, cols", [
    (((1, 2), (3,)), 2), (((1, 2),), 3), (((1.0, 2),), 2), (((True, 2),), 2),
    (((1, Fraction(2)),), 2), (((1, "2"),), 2),
], ids=["ragged", "short", "float", "bool", "fraction", "string"])
def test_snf_checks_its_input_once(rows, cols):
    # the shape and every entry's type are checked on the way in; nothing
    # is truncated to an int
    with pytest.raises(ValueError, match="matrix"):
        smith_normal_form(rows, cols)


def test_cokernel_identity_trivial():
    assert cokernel(identity(3), 3) == FgAbelianGroup.trivial()


def test_cokernel_scalar_matrix():
    assert cokernel(diagonal([4, 4, 4]), 3) == FgAbelianGroup(0, (4, 4, 4))


def test_cokernel_of_empty_map_is_codomain():
    assert cokernel(((),) * 2, 0) == FgAbelianGroup.free(2)


def test_cokernel_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        left, right = random_unimodular(rng, r), random_unimodular(rng, c)
        assert is_unimodular(left) and is_unimodular(right)
        assert cokernel(matmul(matmul(left, m), right), c) == cokernel(m, c)


def test_cokernel_order_matches_direct_coset_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        g = cokernel(rows, c)
        counted = coset_count_bfs(rows, r, c)
        if g.free_rank > 0:
            assert counted is None
        else:
            assert counted == g.order()


def test_cokernel_order_matches_box_enumeration():
    # small matrices, box of side lcm of the diagonal entries
    rng = random.Random(13)
    checked = 0
    while checked < 25:
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        g = cokernel(rows, c)
        if g.free_rank > 0:
            continue
        diag = [d for d in smith_normal_form(rows, c)[1] if d]
        side = 1
        for d in diag:
            side = side * d // math.gcd(side, d)
        if side > 10:
            continue
        assert coset_count_box(rows, r, c, side) == g.order()
        checked += 1


def test_tensor_mod_free_rank():
    assert tensor_mod(FgAbelianGroup.free(2), 4) == FgAbelianGroup(0, (4, 4))
    # oracle: cokernel of 4*I_2
    assert tensor_mod(FgAbelianGroup.free(2), 4) == cokernel(diagonal([4, 4]), 2)


def test_tensor_mod_cyclic():
    assert tensor_mod(FgAbelianGroup.cyclic(6), 4) == FgAbelianGroup.cyclic(2)
    assert math.gcd(6, 4) == 2


def test_tensor_mod_level_one_trivial():
    for g in [FgAbelianGroup.free(3), FgAbelianGroup(1, (2, 6)), FgAbelianGroup.trivial()]:
        assert tensor_mod(g, 1) == FgAbelianGroup.trivial()


def test_tensor_mod_transition_coherence():
    rng = random.Random(3)
    for _ in range(100):
        g = FgAbelianGroup.from_cyclic_orders(
            [rng.randrange(0, 13) for _ in range(rng.randrange(0, 4))])
        k = rng.randrange(1, 40)
        m = rng.choice([d for d in range(1, k + 1) if k % d == 0])
        assert tensor_mod(tensor_mod(g, k), m) == tensor_mod(g, m)


def test_tensor_mod_agrees_with_the_list_oracle():
    # free, torsion and mixed groups at every level m <= 60, and the
    # truncation of each level at every n | m
    rng = random.Random(20151018)
    groups = [FgAbelianGroup.trivial()]
    for kind in ("free", "torsion", "mixed") * 10:
        orders = rng.choices(range(2, 37), k=rng.randint(1, 4))
        groups.append(FgAbelianGroup(
            0 if kind == "torsion" else rng.randint(1, 3),
            () if kind == "free" else FgAbelianGroup.from_cyclic_orders(orders).torsion))
    for g in groups:
        for m in range(1, 61):
            level = tensor_mod(g, m)
            assert level == tensor_mod_by_lists(g, m), (g, m)
            _revalidates(level)
            for n in (n for n in range(1, m + 1) if m % n == 0):
                truncated = tensor_mod(level, n)
                assert truncated == tensor_mod_by_lists(level, n), (g, m, n)
                _revalidates(truncated)
        for m in (0, -3):
            for build in (tensor_mod, tensor_mod_by_lists):
                with pytest.raises(ValueError, match="positive"):
                    build(g, m)


def test_normal_form_equality_examples():
    # normal forms are canonical, so isomorphism is equality
    assert FgAbelianGroup(0, (2, 4)) == FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup.cyclic(8) != FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup.free(1) != FgAbelianGroup.cyclic(2)


def test_normal_form_equality_agrees_with_element_orders():
    # order-8 groups have pairwise distinct element-order multisets
    groups = [FgAbelianGroup(0, (8,)), FgAbelianGroup(0, (2, 4)),
              FgAbelianGroup(0, (2, 2, 2))]
    for a in groups:
        for b in groups:
            same_orders = (element_order_multiset(list(a.torsion))
                           == element_order_multiset(list(b.torsion)))
            assert (a == b) == same_orders


def test_from_cyclic_orders_normalizes():
    assert FgAbelianGroup.from_cyclic_orders([6, 4]) == FgAbelianGroup(0, (2, 12))
    assert FgAbelianGroup.from_cyclic_orders([0, 30, 4]) == FgAbelianGroup(1, (2, 60))
    assert FgAbelianGroup.from_cyclic_orders([1, 1]) == FgAbelianGroup.trivial()


def test_from_cyclic_orders_agrees_with_the_smith_form_oracle():
    # the gcd/lcm sweep against the Smith form of the diagonal matrix of
    # the orders, on seeded lists with Zs (0) and trivial factors (1)
    rng = random.Random(20151019)
    for _ in range(400):
        orders = rng.choices((0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 25, 27, 30, 36),
                             k=rng.randint(0, 7))
        g = FgAbelianGroup.from_cyclic_orders(orders)
        assert g == cokernel(diagonal(orders), len(orders)), orders
        _revalidates(g)
        assert FgAbelianGroup.from_cyclic_orders([-n for n in orders]) == g
        assert FgAbelianGroup.from_cyclic_orders(rng.sample(orders, len(orders))) == g


def test_direct_sum():
    a = FgAbelianGroup(1, (2,))
    b = FgAbelianGroup(0, (4,))
    assert a.direct_sum(b) == FgAbelianGroup(1, (2, 4))
    assert a.direct_sum() == a


def _revalidates(g):
    """g equals, and hashes as, the group its fields build when checked."""
    checked = FgAbelianGroup(g.free_rank, g.torsion)
    assert g == checked and hash(g) == hash(checked), g
    assert type(g.free_rank) is int and all(type(d) is int for d in g.torsion), g


def test_trusted_constructors_build_normal_forms():
    rng = random.Random(20150921)
    _revalidates(FgAbelianGroup.trivial())
    for kind in ("free", "torsion", "mixed") * 20:
        orders = rng.choices(range(2, 37), k=rng.randint(1, 4))
        g = FgAbelianGroup(
            0 if kind == "torsion" else rng.randint(1, 3),
            () if kind == "free" else FgAbelianGroup.from_cyclic_orders(orders).torsion)
        for n in range(1, 61):
            _revalidates(tensor_mod(g, n))
        extra = rng.choices((0, 1, 2, 3, 4, 6, 9, 12, 25), k=rng.randint(0, 3))
        _revalidates(FgAbelianGroup.from_cyclic_orders(g.invariant_factors() + extra))
        _revalidates(g.direct_sum(FgAbelianGroup.cyclic(rng.randint(0, 12))))
        # a presentation of g, disguised by unimodular changes of basis
        size = len(g.invariant_factors())
        left, right = random_unimodular(rng, size), random_unimodular(rng, size)
        presented = matmul(matmul(left, diagonal(g.invariant_factors())), right)
        assert cokernel(presented, size) == g
        _revalidates(cokernel(presented, size))
        r, c = rng.randrange(0, 5), rng.randrange(0, 5)
        _revalidates(cokernel([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], c))


def test_invariant_chain_is_enforced():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
