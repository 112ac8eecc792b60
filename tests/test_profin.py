"""Towers of finite abelian groups and their level-wise comparison."""

import math
import random
from collections import Counter

import pytest

from logcharts import monoid, profin
from logcharts.abgrp import FgAbelianGroup, cokernel, tensor_mod
from logcharts.errors import ChartError, InvalidLevel
from logcharts.fibers import verify_fiber_equivalence
from logcharts.monoid import MonoidSpec, face_with_support, mu, validate
from logcharts.profin import FiniteAbelianProSystem, _first_incoherent, equivalent_up_to
from oracles import (coherent_by_all_pairs, covers_by_trial_division, diagonal,
                     equivalent_by_all_pairs, transition_consistent_by_groups)

Z = FgAbelianGroup.free(1)


def _cyclic_sum(orders):
    """Z/n_1 + ... + Z/n_k, Z/0 = Z: the cokernel of diag(n_1, ..., n_k)."""
    return cokernel(diagonal(orders), len(orders))


def test_completion_of_z_is_the_cyclic_tower():
    c = FiniteAbelianProSystem(Z)
    for m in (1, 2, 12, 100):
        assert c.level(m) == _cyclic_sum([m])


def test_completion_of_z2():
    c = FiniteAbelianProSystem(FgAbelianGroup.free(2))
    for m in range(1, 25):
        assert c.level(m) == tensor_mod(FgAbelianGroup.free(2), m)


def test_completion_of_finite_group_is_eventually_constant():
    g = FgAbelianGroup(0, (6,))
    c = FiniteAbelianProSystem(g)
    for m in (6, 12, 18, 60):
        assert c.level(m) == g
    assert c.level(4) == FgAbelianGroup(0, (2,))


def test_levels_must_be_finite():
    # levels are truncations G/nG, finite even when G has free rank
    for g in [Z, FgAbelianGroup.free(3), FgAbelianGroup(2, (4,))]:
        for n in (1, 3, 12):
            assert FiniteAbelianProSystem(g).level(n).free_rank == 0
    with pytest.raises(ValueError):
        FiniteAbelianProSystem(Z).level(0)


def test_transition_coherence():
    for g in [Z, FgAbelianGroup.free(3), FgAbelianGroup(1, (4,)),
              FgAbelianGroup(0, (2, 6))]:
        assert _first_incoherent(FiniteAbelianProSystem(g), 30) is None


def test_mu_tower_of_log_point_is_z_hat():
    m = validate(MonoidSpec.make(1, [[1]]))
    z_hat = FiniteAbelianProSystem(Z)
    mu_hat = FiniteAbelianProSystem(FgAbelianGroup.free(m.gp_lattice_rank))
    ok, cert = equivalent_up_to(z_hat, mu_hat, 100)
    assert ok and cert.equivalent and cert.witness_level is None
    assert all(mu(m, n) == z_hat.level(n) for n in range(1, 101))


def test_mu_tower_of_trivial_monoid():
    t = validate(MonoidSpec.make(0, []))
    for n in (1, 5, 9):
        assert mu(t, n) == FgAbelianGroup(0)


def test_finite_products_commute_with_completion():
    # level n of the k-fold product of Z-hat is (Z/n)^k, the cokernel of n * I_k
    for k in (1, 2, 3, 4):
        tower = FiniteAbelianProSystem(FgAbelianGroup.free(k))
        for n in range(1, 101):
            assert tower.level(n) == _cyclic_sum([n] * k), (k, n)
        assert _first_incoherent(tower, 100) is None


def test_a_tower_is_its_group():
    # towers that complete the same group are one tower, however built
    plane = FiniteAbelianProSystem(FgAbelianGroup.free(2))
    quadrant = validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))
    assert plane == FiniteAbelianProSystem(FgAbelianGroup.free(quadrant.gp_lattice_rank))
    # Z + Z as the cokernel of the zero 2 x 2 matrix, and the empty sum
    assert plane == FiniteAbelianProSystem(_cyclic_sum([0, 0]))
    assert hash(plane) == hash(FiniteAbelianProSystem(_cyclic_sum([0, 0])))
    assert plane != FiniteAbelianProSystem(Z)
    assert FiniteAbelianProSystem(_cyclic_sum([])) == FiniteAbelianProSystem(
        FgAbelianGroup(0))
    assert str(plane) == "<completion of Z^2>", str(plane)


def test_inequivalent_with_witness():
    ok, cert = equivalent_up_to(FiniteAbelianProSystem(Z),
                                FiniteAbelianProSystem(FgAbelianGroup.free(2)), 10)
    assert not ok and cert.witness_level == 2
    rec = next(r for r in cert.levels if r.n == 2)
    assert rec.factors_a == (2,) and rec.factors_b == (2, 2)


def test_cofinal_factorial_reindexing():
    # every level n is recovered from the first factorial m with n | m
    # through the transition level(m) -> level(n)
    z_hat = FiniteAbelianProSystem(Z)
    facts = [math.factorial(m) for m in range(1, 41)]
    for n in range(1, 41):
        m = next(f for f in facts if f % n == 0)
        assert z_hat.transition_consistent(m, n)
        assert tensor_mod(z_hat.level(m), n) == z_hat.level(n)


def test_restriction_needs_cofinality():
    # the indices 2, 4, 8 are not cofinal: no transition reaches level 3
    for m in (2, 4, 8):
        with pytest.raises(ValueError):
            FiniteAbelianProSystem(Z).transition_consistent(m, 3)


def test_classifying_pro_space_levels():
    # B is applied level-wise, so pi1 of level n of B(G-hat) is G/nG
    assert FiniteAbelianProSystem(Z).level(6) == FgAbelianGroup(0, (6,))
    trivial = FiniteAbelianProSystem(FgAbelianGroup(0))
    assert trivial.level(9) == FgAbelianGroup(0)
    squares = FiniteAbelianProSystem(FgAbelianGroup.free(2))
    assert squares.level(5) == FgAbelianGroup(0, (5, 5))


def test_profinite_type_of_torus():
    # the profinite type of K(Z^k, 1) is B of the completion of Z^k
    for k in (0, 1, 2, 3):
        t = FiniteAbelianProSystem(FgAbelianGroup.free(k))
        assert t.level(4) == _cyclic_sum([4] * k)


def test_profinite_type_of_finite_k1_stabilizes():
    t = FiniteAbelianProSystem(FgAbelianGroup(0, (6,)))
    for n in (6, 12, 36, 60):
        assert t.level(n) == FgAbelianGroup(0, (6,))


def test_goodness_surrogate():
    # completed torus vs classifying tower of the mu-tower, rank matching
    charts = [
        (1, validate(MonoidSpec.make(1, [[1]]))),
        (2, validate(MonoidSpec.make(2, [[1, 0], [0, 1]]))),
        (2, validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                     [[[1, 0, 1], [0, 2, 0]]]))),
    ]
    for k, m in charts:
        torus = FiniteAbelianProSystem(FgAbelianGroup.free(k))
        ok, _ = equivalent_up_to(
            torus, FiniteAbelianProSystem(FgAbelianGroup.free(m.gp_lattice_rank)), 60)
        assert ok and all(mu(m, n) == torus.level(n) for n in range(1, 61))


# free parts, torsion parts and both
COHERENCE_GROUPS = [
    FgAbelianGroup(0), Z, FgAbelianGroup.free(2), FgAbelianGroup(0, (4,)),
    FgAbelianGroup(0, (2, 6)), FgAbelianGroup(1, (4,)), FgAbelianGroup(2, (3,)),
    FgAbelianGroup(1, (2, 12)),
]


def _wrong_levels(g, n, rng):
    """Candidate wrong values for level n of the completion of g."""
    return [
        FgAbelianGroup(0),
        tensor_mod(g, 2 * n),
        _cyclic_sum(tensor_mod(g, n).invariant_factors() + [2]),
        _cyclic_sum(rng.choices(range(2, 13), k=rng.randint(1, 2))),
        Z,
    ]


def test_covering_pair_coherence_matches_all_pairs_oracle(monkeypatch):
    # every tower wrong at one level n0 <= bound, on one side or on both
    rng = random.Random(20151101)
    true_level = FiniteAbelianProSystem.level
    tally = Counter()
    for g in COHERENCE_GROUPS:
        bound = rng.randint(12, 40)
        a, b = FiniteAbelianProSystem(g), FiniteAbelianProSystem(g)
        assert _first_incoherent(a, bound) is None and coherent_by_all_pairs(a, bound)
        assert equivalent_up_to(a, b, bound) == equivalent_by_all_pairs(a, b, bound)
        for n0 in range(1, bound + 1):
            wrong = rng.choice(_wrong_levels(g, n0, rng))
            for victims in ((a,), (b,), (a, b)):
                monkeypatch.setattr(
                    FiniteAbelianProSystem, "level",
                    lambda self, n, n0=n0, wrong=wrong, victims=victims:
                        wrong if n == n0 and any(self is v for v in victims)
                        else true_level(self, n))
                coherent = _first_incoherent(a, bound) is None
                assert coherent == coherent_by_all_pairs(a, bound)
                result = equivalent_up_to(a, b, bound)
                assert result == equivalent_by_all_pairs(a, b, bound)
                tally[coherent, result[0], len(victims)] += 1
    # each verdict occurs, and incoherence alone decides some comparisons
    assert tally[True, True, 1] and tally[True, False, 1] and tally[False, False, 1]
    assert tally[False, False, 2] and tally[True, True, 2]
    assert not tally[False, True, 1] and not tally[False, True, 2]


def test_coherence_needs_the_torsion_pair_m_m(monkeypatch):
    # level(n) = Z/2n above bound/2 passes every prime step (m, m/p), since
    # m/p <= bound/2, but level m is not m-torsion
    bound = 30
    true_level = FiniteAbelianProSystem.level
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: FgAbelianGroup(0, (2 * n,)) if n > bound // 2
                        else true_level(self, n))
    a, b = FiniteAbelianProSystem(Z), FiniteAbelianProSystem(Z)
    assert _first_incoherent(a, bound) is not None and not coherent_by_all_pairs(a, bound)
    ok, cert = equivalent_up_to(a, b, bound)
    assert not ok and cert.witness_level == bound // 2 + 1
    assert (ok, cert) == equivalent_by_all_pairs(a, b, bound)


def test_coherence_checks_only_the_covering_pairs(monkeypatch):
    # the pair (m, m) and one pair (m, m/p) per prime p | m
    calls = Counter()
    original = FiniteAbelianProSystem.transition_consistent

    def counting(self, m, n):
        calls[id(self)] += 1
        return original(self, m, n)

    monkeypatch.setattr(FiniteAbelianProSystem, "transition_consistent", counting)
    log_point = validate(MonoidSpec.make(1, [[1]]))
    a = FiniteAbelianProSystem(Z)
    b = FiniteAbelianProSystem(FgAbelianGroup.free(log_point.gp_lattice_rank))
    ok, _ = equivalent_up_to(a, b, 100)
    # the level check has shown b's levels equal to a's, so b is not walked
    assert ok and calls == {id(a): 271}
    for bound, pairs in ((10, 21), (30, 73), (100, 271)):
        calls.clear()
        assert _first_incoherent(a, bound) is None and calls == {id(a): pairs}


def test_sieved_covers_match_trial_division():
    # 65,536 = 2^16, 99,990 = 2 * 3^2 * 5 * 11 * 101, 99,991 is prime
    assert list(profin._covering_divisors(5_000)) == [
        covers_by_trial_division(m) for m in range(1, 5_001)]
    at_cap = list(profin._covering_divisors(100_000))
    for m in (65_536, 99_990, 99_991, 100_000):
        assert at_cap[m - 1] == covers_by_trial_division(m), m
    assert at_cap[99_990 - 1] == [99_990, 49_995, 33_330, 19_998, 9_090, 990]


def test_comparison_bound_is_capped_before_any_level(monkeypatch):
    levels = []
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: levels.append(n))
    for bound in (100_001, 10 ** 9):
        with pytest.raises(ChartError):
            equivalent_up_to(FiniteAbelianProSystem(Z), FiniteAbelianProSystem(Z), bound)
    assert levels == []

    class Reached(Exception):
        pass

    def reach(self, n):
        raise Reached

    # the cap itself is accepted: the comparison reaches its first level
    monkeypatch.setattr(FiniteAbelianProSystem, "level", reach)
    with pytest.raises(Reached):
        equivalent_up_to(FiniteAbelianProSystem(Z), FiniteAbelianProSystem(Z), 100_000)


def test_coherence_bound_is_capped_before_any_level(monkeypatch):
    levels = []
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: levels.append(n))
    # one tower against itself, as a coherence check alone
    z_hat = FiniteAbelianProSystem(Z)
    for bound in (100_001, 10 ** 9):
        with pytest.raises(ChartError, match="above the cap"):
            equivalent_up_to(z_hat, z_hat, bound)
    assert levels == []


def test_bounds_below_one_are_refused_before_any_level(monkeypatch):
    levels = []
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: levels.append(n))
    z_hat = FiniteAbelianProSystem(Z)
    for bound in (0, -5):
        with pytest.raises(ValueError, match="positive"):
            equivalent_up_to(z_hat, z_hat, bound)
        with pytest.raises(ValueError, match="positive"):
            equivalent_up_to(FiniteAbelianProSystem(Z), FiniteAbelianProSystem(Z), bound)
    assert levels == []


def test_levels_are_built_without_revalidation(monkeypatch):
    # every level and every reduction of one is a normal form as built, so
    # the validating constructor runs as often at bound 100 as at bound 1
    built = []
    original = FgAbelianGroup.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(FgAbelianGroup, "__post_init__", counting)
    g = FgAbelianGroup(1, (2, 12))
    m = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]))
    vertex = face_with_support(m, ())
    counts = []
    for bound in (1, 10, 100):
        built.clear()
        assert equivalent_up_to(FiniteAbelianProSystem(g), FiniteAbelianProSystem(g), bound)[0]
        assert _first_incoherent(FiniteAbelianProSystem(g), bound) is None
        assert verify_fiber_equivalence(m, vertex, bound)[0]
        counts.append(len(built))
    assert counts[0] == counts[1] == counts[2], counts


def test_transition_refuses_levels_below_one_before_any_level(monkeypatch):
    levels = []
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: levels.append(n))
    for m, n in ((6, 0), (0, 3), (0, 0), (-6, 3), (6, -2)):
        with pytest.raises(ValueError, match="positive"):
            FiniteAbelianProSystem(Z).transition_consistent(m, n)
    assert levels == []


def test_transition_refuses_a_level_that_is_not_an_int(monkeypatch):
    # "2" and None raised a bare TypeError from the comparison with 1
    levels = []
    monkeypatch.setattr(FiniteAbelianProSystem, "level",
                        lambda self, n: levels.append(n))
    for m, n, bad in (("2", 1, "'2'"), (1, "2", "'2'"), (None, 1, "None"), (True, 1, "True"),
                      (2.0, 1, "2.0"), (6, 3.0, "3.0")):
        with pytest.raises(InvalidLevel, match=f"level {bad} is not a positive integer"):
            FiniteAbelianProSystem(Z).transition_consistent(m, n)
    assert levels == []


def test_transition_verdicts_agree_with_the_group_oracle(monkeypatch):
    # the true levels, and about half the levels replaced by Z, by the
    # trivial group, by the truncation at 2n or by a random group
    rng = random.Random(20151019)
    true_level = FiniteAbelianProSystem.level
    wrong_rules = [
        None,
        lambda g, n: Z,
        lambda g, n: FgAbelianGroup(0),
        lambda g, n: tensor_mod(g, 2 * n),
        lambda g, n: _cyclic_sum(rng.choices(range(13), k=2)),
    ]
    tally = Counter()
    for g in COHERENCE_GROUPS:
        for rule in wrong_rules:
            wrong = {n: rule(g, n) for n in range(1, 61) if rule and rng.random() < 0.5}
            monkeypatch.setattr(FiniteAbelianProSystem, "level",
                                lambda self, n, wrong=wrong: wrong.get(n) or true_level(self, n))
            tower = FiniteAbelianProSystem(g)
            for m in range(1, 61):
                for n in (n for n in range(1, m + 1) if m % n == 0):
                    verdict = tower.transition_consistent(m, n)
                    assert verdict is transition_consistent_by_groups(tower, m, n), (g, m, n)
                    tally[rule is None, verdict] += 1
    assert not tally[True, False] and tally[False, True] and tally[False, False], tally


def _count_builds(monkeypatch):
    """The (free rank, torsion) of every group built from here on."""
    built = []
    original = FgAbelianGroup._normal

    def counting(free_rank, torsion):
        built.append((free_rank, torsion))
        return original(free_rank, torsion)

    monkeypatch.setattr(FgAbelianGroup, "_normal", staticmethod(counting))
    return built


def test_a_transition_builds_only_its_two_levels(monkeypatch):
    # a transition reads levels m and n, and a tower builds each level once
    built = _count_builds(monkeypatch)
    for g in COHERENCE_GROUPS:
        tower, seen = FiniteAbelianProSystem(g), set()
        for m, n in ((1, 1), (12, 12), (12, 6), (12, 4), (60, 1), (60, 30), (12, 6)):
            built.clear()
            assert tower.transition_consistent(m, n)
            fields = list(built)
            new = [k for k in dict.fromkeys((m, n)) if k not in seen]
            assert fields == [(0, tensor_mod(g, k).torsion) for k in new], (g, m, n)
            seen.update((m, n))


@pytest.mark.parametrize("bound", [1, 12, 100])
def test_fresh_towers_build_each_level_once(monkeypatch, bound):
    # towers that complete one group share one level table, so comparing
    # them builds levels 1..bound once and the walk reads them, as the
    # coherence walk does on one tower; unequal towers build them each
    built = _count_builds(monkeypatch)
    for g in (Z, FgAbelianGroup(1, (2, 12))):
        built.clear()
        assert equivalent_up_to(FiniteAbelianProSystem(g), FiniteAbelianProSystem(g), bound)[0]
        assert len(built) == bound
        built.clear()
        assert _first_incoherent(FiniteAbelianProSystem(g), bound) is None
        assert len(built) == bound
    built.clear()
    ok = equivalent_up_to(FiniteAbelianProSystem(Z),
                          FiniteAbelianProSystem(FgAbelianGroup.free(2)), bound)[0]
    assert ok is (bound == 1) and len(built) == 2 * bound
    # the torus tower and the vertex's root tower both complete Z^2
    m = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]))
    vertex = face_with_support(m, ())
    built.clear()
    assert verify_fiber_equivalence(m, vertex, bound)[0] and len(built) == bound


def test_the_level_table_keeps_refusing_what_tensor_mod_refuses():
    # True == 1 and hash(2.0) == hash(2), so a table keyed by n alone would
    # hand back levels 1 and 2 for them
    tower = FiniteAbelianProSystem(Z)
    assert tower.level(1) == FgAbelianGroup(0)
    assert tower.level(2) == FgAbelianGroup(0, (2,))
    for n in (True, 2.0, 0, -2):
        with pytest.raises(ValueError, match="not a positive integer"):
            tower.level(n)
    with pytest.raises(ValueError, match="not a positive integer"):
        tower.transition_consistent(2.0, 1)
    assert tower.level(2) == FgAbelianGroup(0, (2,))


@pytest.mark.parametrize("g, n0, wrong, verdicts", [
    (Z, 12, FgAbelianGroup(0, (24,)), {10: None, 12: 12, 30: 12, 100: 12}),
    # a trivial level 7 is 7-torsion; the pair (14, 7) is the first it fails
    (Z, 7, FgAbelianGroup(0), {10: None, 13: None, 14: 7, 100: 7}),
    (FgAbelianGroup.free(2), 12, FgAbelianGroup(0, (12, 24)), {10: None, 12: 12, 100: 12}),
])
def test_a_wrong_tensor_mod_level_is_caught_through_the_table(monkeypatch, g, n0, wrong,
                                                              verdicts):
    # the wrong group is what tensor_mod returns, so it enters each tower's
    # table and every later read of level n0 sees it
    true_tensor_mod = profin.tensor_mod
    monkeypatch.setattr(profin, "tensor_mod",
                        lambda h, n: wrong if n == n0 else true_tensor_mod(h, n))
    for bound, witness in verdicts.items():
        assert _first_incoherent(FiniteAbelianProSystem(g), bound) == witness
        ok, cert = equivalent_up_to(FiniteAbelianProSystem(g), FiniteAbelianProSystem(g), bound)
        assert ok is (witness is None) and cert.witness_level == witness, bound
        if n0 <= bound:
            rec = cert.levels[n0 - 1]
            assert rec.factors_a == rec.factors_b == tuple(wrong.invariant_factors())
            assert rec.isomorphic


@pytest.mark.parametrize("bound, error", [(0, ValueError), (True, ValueError),
                                          (100_001, ChartError)])
def test_fiber_comparison_refuses_its_bound_before_the_stalk(monkeypatch, bound, error):
    m = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]], [[[1, 0, 1], [0, 2, 0]]]))
    validated = []
    original = monoid.validate
    monkeypatch.setattr(monoid, "validate",
                        lambda *args, **kwargs: validated.append(args) or original(*args, **kwargs))
    for support in ((), (0,)):
        with pytest.raises(error):
            verify_fiber_equivalence(m, face_with_support(m, support), bound)
    assert validated == []
