"""Exact integer linear algebra: Smith form, cokernels, truncations."""

import math
import random

import pytest

from logcharts.abgrp import (FgAbelianGroup, IntMatrix, cokernel,
                             is_isomorphic, smith_normal_form, tensor_mod)

from oracles import (coset_count_bfs, coset_count_box, element_order_multiset,
                     random_unimodular, tensor_mod_by_lists)


def snf_checks(m):
    u, d, v = smith_normal_form(m)
    assert (u @ m @ v).entries == d.entries
    assert u.is_unimodular() and v.is_unimodular()
    diag = d.diagonal_entries()
    assert all(x >= 0 for x in diag)
    nonzero = [x for x in diag if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    # zeros, which everything divides, come last
    assert diag == tuple(nonzero) + (0,) * (len(diag) - len(nonzero))
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.entries[i][j] == 0
    return u, d, v


def test_snf_already_diagonal():
    _, d, _ = snf_checks(IntMatrix.from_rows([[2, 0], [0, 2]]))
    assert d.diagonal_entries() == (2, 2)


def test_snf_empty_matrix():
    _, d, _ = snf_checks(IntMatrix.from_rows([], cols=0))
    assert d.rows == 0 and d.cols == 0


def test_snf_2x2_gcd_chain():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    m = IntMatrix.from_rows([[2, 4], [6, 8]])
    _, d, _ = snf_checks(m)
    assert d.diagonal_entries() == (2, 4)
    entries = [x for row in m.entries for x in row]
    assert math.gcd(*entries) == 2 == d.diagonal_entries()[0]
    assert abs(m.det()) == 8 == d.diagonal_entries()[0] * d.diagonal_entries()[1]


def test_snf_random_stress():
    rng = random.Random(20260810)
    for _ in range(200):
        r, c = rng.randrange(0, 5), rng.randrange(0, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)
        snf_checks(m)


def test_cokernel_identity_trivial():
    assert cokernel(IntMatrix.identity(3)) == FgAbelianGroup.trivial()


def test_cokernel_scalar_matrix():
    assert cokernel(IntMatrix.diagonal([4, 4, 4])) == FgAbelianGroup(0, (4, 4, 4))


def test_cokernel_of_empty_map_is_codomain():
    assert cokernel(IntMatrix.zero(2, 0)) == FgAbelianGroup.free(2)


def test_cokernel_unimodular_invariance():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randrange(1, 4), rng.randrange(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        left = IntMatrix.from_rows(random_unimodular(rng, r))
        right = IntMatrix.from_rows(random_unimodular(rng, c))
        assert left.is_unimodular() and right.is_unimodular()
        assert cokernel(left @ m @ right) == cokernel(m)


def test_cokernel_order_matches_direct_coset_enumeration():
    rng = random.Random(11)
    for _ in range(120):
        r, c = rng.randrange(1, 4), rng.randrange(1, 5)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        g = cokernel(IntMatrix.from_rows(rows))
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
        m = IntMatrix.from_rows(rows)
        g = cokernel(m)
        if g.free_rank > 0:
            continue
        diag = [d for d in smith_normal_form(m)[1].diagonal_entries() if d]
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
    assert tensor_mod(FgAbelianGroup.free(2), 4) == cokernel(IntMatrix.diagonal([4, 4]))


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


def test_is_isomorphic_examples():
    assert is_isomorphic(FgAbelianGroup(0, (2, 4)), FgAbelianGroup(0, (2, 4)))
    assert not is_isomorphic(FgAbelianGroup.cyclic(8), FgAbelianGroup(0, (2, 4)))
    assert not is_isomorphic(FgAbelianGroup.free(1), FgAbelianGroup.cyclic(2))


def test_is_isomorphic_agrees_with_element_orders():
    # order-8 groups have pairwise distinct element-order multisets
    groups = [FgAbelianGroup(0, (8,)), FgAbelianGroup(0, (2, 4)),
              FgAbelianGroup(0, (2, 2, 2))]
    for a in groups:
        for b in groups:
            same_orders = (element_order_multiset(list(a.torsion))
                           == element_order_multiset(list(b.torsion)))
            assert is_isomorphic(a, b) == same_orders


def test_from_cyclic_orders_normalizes():
    assert FgAbelianGroup.from_cyclic_orders([6, 4]) == FgAbelianGroup(0, (2, 12))
    assert FgAbelianGroup.from_cyclic_orders([0, 30, 4]) == FgAbelianGroup(1, (2, 60))
    assert FgAbelianGroup.from_cyclic_orders([1, 1]) == FgAbelianGroup.trivial()


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
        left = IntMatrix.from_rows(random_unimodular(rng, size))
        right = IntMatrix.from_rows(random_unimodular(rng, size))
        presented = left @ IntMatrix.diagonal(g.invariant_factors()) @ right
        assert cokernel(presented) == g
        _revalidates(cokernel(presented))
        r, c = rng.randrange(0, 5), rng.randrange(0, 5)
        _revalidates(cokernel(IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)], cols=c)))


def test_invariant_chain_is_enforced():
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (4, 2))
    with pytest.raises(ValueError):
        FgAbelianGroup(0, (1,))
