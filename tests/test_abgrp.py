"""Exact integer linear algebra: Smith form, cokernels, truncations."""

import math
import random
from fractions import Fraction

import pytest

import cli_golden
import logcharts.abgrp as abgrp
import logcharts.monoid as monoid
from logcharts.abgrp import FgAbelianGroup, _det, cokernel, smith_normal_form, tensor_mod
from logcharts.errors import InvalidMonoidSpec

from oracles import (coset_count_bfs, coset_count_box, cyclic_sum_by_elementary_divisors, det,
                     diagonal, element_order_multiset, identity, is_unimodular, matmul,
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
    # relation rows, the Kummer fibers' congruences and K_F, all of which
    # the chart's presentation table in monoid builds
    fed = []

    def recording(rows, cols):
        fed.append((rows, cols))
        return smith_normal_form(rows, cols)

    for module in (abgrp, monoid):
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


def test_generator_matrix_takes_vectors_in_z_d_as_columns():
    assert abgrp.generator_matrix([(1, 0), (1, 2)], 2) == ((1, 1), (0, 2))
    assert abgrp.generator_matrix([], 2) == ((), ())
    with pytest.raises(InvalidMonoidSpec, match=r"vector \(1, 0, 0\) does not live in Z\^2"):
        abgrp.generator_matrix([(1, 0), (1, 0, 0)], 2)


def test_cokernel_identity_trivial():
    assert cokernel(identity(3), 3) == FgAbelianGroup(0)


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
            assert counted == math.prod(g.torsion)


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
        assert coset_count_box(rows, r, c, side) == math.prod(g.torsion)
        checked += 1


def test_tensor_mod_free_rank():
    assert tensor_mod(FgAbelianGroup.free(2), 4) == FgAbelianGroup(0, (4, 4))
    # oracle: cokernel of 4*I_2
    assert tensor_mod(FgAbelianGroup.free(2), 4) == cokernel(diagonal([4, 4]), 2)


def test_tensor_mod_cyclic():
    assert tensor_mod(FgAbelianGroup(0, (6,)), 4) == FgAbelianGroup(0, (2,))
    assert math.gcd(6, 4) == 2


def test_tensor_mod_level_one_trivial():
    for g in [FgAbelianGroup.free(3), FgAbelianGroup(1, (2, 6)), FgAbelianGroup(0)]:
        assert tensor_mod(g, 1) == FgAbelianGroup(0)


def test_tensor_mod_transition_coherence():
    rng = random.Random(3)
    for _ in range(100):
        orders = [rng.randrange(0, 13) for _ in range(rng.randrange(0, 4))]
        g = cokernel(diagonal(orders), len(orders))
        k = rng.randrange(1, 40)
        m = rng.choice([d for d in range(1, k + 1) if k % d == 0])
        assert tensor_mod(tensor_mod(g, k), m) == tensor_mod(g, m)


def test_tensor_mod_agrees_with_the_list_oracle():
    # free, torsion and mixed groups at every level m <= 60, and the
    # truncation of each level at every n | m
    rng = random.Random(20151018)
    groups = [FgAbelianGroup(0)]
    for kind in ("free", "torsion", "mixed") * 10:
        orders = rng.choices(range(2, 37), k=rng.randint(1, 4))
        groups.append(FgAbelianGroup(
            0 if kind == "torsion" else rng.randint(1, 3),
            () if kind == "free" else cokernel(diagonal(orders), len(orders)).torsion))
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
    assert FgAbelianGroup(0, (8,)) != FgAbelianGroup(0, (2, 4))
    assert FgAbelianGroup.free(1) != FgAbelianGroup(0, (2,))
    # Z/0 is Z, Z/1 is trivial, and Z/-n is Z/n: the cokernels of 1 x 1 matrices
    assert cokernel(((0,),), 1) == FgAbelianGroup.free(1)
    assert cokernel(((1,),), 1) == FgAbelianGroup(0)
    assert cokernel(((-6,),), 1) == cokernel(((6,),), 1) == FgAbelianGroup(0, (6,))


def test_normal_form_equality_agrees_with_element_orders():
    # order-8 groups have pairwise distinct element-order multisets
    groups = [FgAbelianGroup(0, (8,)), FgAbelianGroup(0, (2, 4)),
              FgAbelianGroup(0, (2, 2, 2))]
    for a in groups:
        for b in groups:
            same_orders = (element_order_multiset(list(a.torsion))
                           == element_order_multiset(list(b.torsion)))
            assert (a == b) == same_orders


def _cyclic_sum(orders):
    """Z/n_1 + ... + Z/n_k, Z/0 = Z: the cokernel of diag(n_1, ..., n_k)."""
    return cokernel(diagonal(orders), len(orders))


def test_cokernel_of_cyclic_orders_normalizes():
    assert _cyclic_sum([6, 4]) == FgAbelianGroup(0, (2, 12))
    assert _cyclic_sum([0, 30, 4]) == FgAbelianGroup(1, (2, 60))
    assert _cyclic_sum([1, 1]) == FgAbelianGroup(0)
    assert _cyclic_sum([]) == FgAbelianGroup(0)


def test_cokernel_of_cyclic_orders_agrees_with_the_elementary_divisor_oracle():
    # the Smith form of the diagonal matrix of the orders against the
    # normal form assembled prime by prime, on seeded lists with Zs (0)
    # and trivial factors (1); signs and the order of the list do not count
    rng = random.Random(20151019)
    for _ in range(400):
        orders = rng.choices((0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 18, 25, 27, 30, 36),
                             k=rng.randint(0, 7))
        g = _cyclic_sum(orders)
        assert (g.free_rank, g.torsion) == cyclic_sum_by_elementary_divisors(orders), orders
        _revalidates(g)
        assert _cyclic_sum([-n for n in orders]) == g
        assert _cyclic_sum(rng.sample(orders, len(orders))) == g


def test_direct_sum():
    # a direct sum is the cokernel of the block-diagonal matrix of the
    # summands' presentations
    a = FgAbelianGroup(1, (2,))
    b = FgAbelianGroup(0, (4,))
    assert _cyclic_sum(a.invariant_factors() + b.invariant_factors()) == FgAbelianGroup(1, (2, 4))
    assert _cyclic_sum(a.invariant_factors()) == a
    assert (a.free_rank, b.free_rank, math.prod(b.torsion)) == (1, 0, 4)
    assert str(a) == "Z x Z/2" and str(FgAbelianGroup.free(2)) == "Z^2"


def _revalidates(g):
    """g equals, and hashes as, the group its fields build when checked."""
    checked = FgAbelianGroup(g.free_rank, g.torsion)
    assert g == checked and hash(g) == hash(checked), g
    assert type(g.free_rank) is int and all(type(d) is int for d in g.torsion), g


def test_trusted_constructors_build_normal_forms():
    rng = random.Random(20150921)
    _revalidates(FgAbelianGroup(0))
    for kind in ("free", "torsion", "mixed") * 20:
        orders = rng.choices(range(2, 37), k=rng.randint(1, 4))
        g = FgAbelianGroup(
            0 if kind == "torsion" else rng.randint(1, 3),
            () if kind == "free" else cokernel(diagonal(orders), len(orders)).torsion)
        for n in range(1, 61):
            _revalidates(tensor_mod(g, n))
        extra = rng.choices((0, 1, 2, 3, 4, 6, 9, 12, 25), k=rng.randint(0, 3))
        _revalidates(_cyclic_sum(g.invariant_factors() + extra))
        summand = _cyclic_sum([rng.randint(0, 12)])
        _revalidates(_cyclic_sum(g.invariant_factors() + summand.invariant_factors()))
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
    # a float, a string or a bool is not read as the int it rounds or parses to
    for torsion in ((2.7,), ("6",), (True,), (2, 4.0)):
        with pytest.raises(ValueError, match=f"torsion invariant {torsion[-1]!r} is not an int"):
            FgAbelianGroup(0, torsion)
    for rank in (1.5, 2.0, True, -1):
        for build in (FgAbelianGroup, FgAbelianGroup.free):
            with pytest.raises(ValueError, match=f"free rank {rank!r} is not a nonnegative int"):
                build(rank)
    for n in (2.5, 2.0, True, "6"):
        with pytest.raises(ValueError, match="matrix entries must be exact integers"):
            cokernel(((n,),), 1)
