"""Towers of finite abelian groups and their level-wise comparison."""

import math

import pytest

from logcharts.abgrp import FgAbelianGroup, tensor_mod
from logcharts.monoid import MonoidSpec, validate
from logcharts.profin import (completion, equivalent_up_to, mu_tower,
                              product_system)

Z = FgAbelianGroup.free(1)


def test_completion_of_z_is_the_cyclic_tower():
    c = completion(Z)
    for m in (1, 2, 12, 100):
        assert c.level(m) == FgAbelianGroup.cyclic(m)


def test_completion_of_z2():
    c = completion(FgAbelianGroup.free(2))
    for m in range(1, 25):
        assert c.level(m) == tensor_mod(FgAbelianGroup.free(2), m)


def test_completion_of_finite_group_is_eventually_constant():
    g = FgAbelianGroup.from_cyclic_orders([6])
    c = completion(g)
    for m in (6, 12, 18, 60):
        assert c.level(m) == g
    assert c.level(4) == FgAbelianGroup.cyclic(2)


def test_levels_must_be_finite():
    # levels are truncations G/nG, finite even when G has free rank
    for g in [Z, FgAbelianGroup.free(3), FgAbelianGroup(2, (4,))]:
        for n in (1, 3, 12):
            assert completion(g).level(n).is_finite()
    with pytest.raises(ValueError):
        completion(Z).level(0)


def test_transition_coherence():
    for g in [Z, FgAbelianGroup.free(3), FgAbelianGroup(1, (4,)),
              FgAbelianGroup(0, (2, 6))]:
        assert completion(g).check_coherence(30)


def test_mu_tower_of_log_point_is_z_hat():
    m = validate(MonoidSpec.make(1, [[1]]))
    ok, cert = equivalent_up_to(completion(Z), mu_tower(m), 100)
    assert ok and cert.equivalent and cert.witness_level is None


def test_mu_tower_of_trivial_monoid():
    t = validate(MonoidSpec.make(0, []))
    tower = mu_tower(t)
    for n in (1, 5, 9):
        assert tower.level(n) == FgAbelianGroup.trivial()


def test_finite_products_commute_with_completion():
    for k in (1, 2, 3, 4):
        ok, cert = equivalent_up_to(
            completion(FgAbelianGroup.free(k)),
            product_system(*[completion(Z)] * k), 100)
        assert ok, cert.witness_level


def test_inequivalent_with_witness():
    ok, cert = equivalent_up_to(completion(Z), completion(FgAbelianGroup.free(2)), 10)
    assert not ok and cert.witness_level == 2
    rec = next(r for r in cert.levels if r.n == 2)
    assert rec.factors_a == (2,) and rec.factors_b == (2, 2)


def test_cofinal_factorial_reindexing():
    # every level n is recovered from the first factorial m with n | m
    # through the transition level(m) -> level(n)
    z_hat = completion(Z)
    facts = [math.factorial(m) for m in range(1, 41)]
    for n in range(1, 41):
        m = next(f for f in facts if f % n == 0)
        assert z_hat.transition_consistent(m, n)
        assert tensor_mod(z_hat.level(m), n) == z_hat.level(n)


def test_restriction_needs_cofinality():
    # the indices 2, 4, 8 are not cofinal: no transition reaches level 3
    for m in (2, 4, 8):
        with pytest.raises(ValueError):
            completion(Z).transition_consistent(m, 3)


def test_classifying_pro_space_levels():
    # B is applied level-wise, so pi1 of level n of B(G-hat) is G/nG
    assert completion(Z).level(6) == FgAbelianGroup.cyclic(6)
    trivial = completion(FgAbelianGroup.trivial())
    assert trivial.level(9) == FgAbelianGroup.trivial()
    squares = completion(FgAbelianGroup.free(2))
    assert squares.level(5) == FgAbelianGroup(0, (5, 5))


def test_profinite_type_of_torus():
    # the profinite type of K(Z^k, 1) is B of the completion of Z^k
    for k in (0, 1, 2, 3):
        t = completion(FgAbelianGroup.free(k))
        assert t.level(4) == FgAbelianGroup.from_cyclic_orders([4] * k)


def test_profinite_type_of_finite_k1_stabilizes():
    t = completion(FgAbelianGroup.cyclic(6))
    for n in (6, 12, 36, 60):
        assert t.level(n) == FgAbelianGroup.cyclic(6)


def test_goodness_surrogate():
    # completed torus vs classifying tower of the mu-tower, rank matching
    charts = [
        (1, validate(MonoidSpec.make(1, [[1]]))),
        (2, validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))),
        (2, validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                     [[[1, 0, 1], [0, 2, 0]]]))),
    ]
    for k, m in charts:
        ok, _ = equivalent_up_to(
            completion(FgAbelianGroup.free(k)), mu_tower(m), 60)
        assert ok
