"""Pro-systems of finite abelian groups indexed by divisibility.

Every tower the theory produces is the profinite completion of a finitely
generated abelian group G: the level at n is the truncation G/nG, and for
n | m the transition G/mG -> G/nG is the natural reduction.  The
mu-tower of a chart of group rank r is the completion of Z^r, because
mu_n(P) = (Z/n)^r, and a finite product of completions is the completion
of the direct sum.  So a tower is held as the group G it completes, and
each level is the closed form tensor_mod(G, n).

Level-wise comparison of invariant factors plus transition coherence is
the checkable shadow of pro-equivalence; the limitation is recorded on
every certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abgrp import FgAbelianGroup, is_isomorphic, tensor_mod
from .monoid import AffineMonoid

COMPARISON_NOTE = (
    "level-wise invariant-factor comparison with transition coherence up to "
    "a finite bound; not a categorical pro-isomorphism"
)


@dataclass(frozen=True)
class FiniteAbelianProSystem:
    """The tower n -> G/nG completing a finitely generated abelian group G.

    Every level is finite, whatever the free rank of G.  Transitions for
    n | m are the natural reductions; their composition law is checkable
    on normal forms because tensor_mod(tensor_mod(g, k), n) ==
    tensor_mod(g, n).
    """

    group: FgAbelianGroup
    description: str

    def level(self, n: int) -> FgAbelianGroup:
        return tensor_mod(self.group, n)

    def transition_consistent(self, m: int, n: int) -> bool:
        """Does the natural reduction level(m) -> level(n) exist, i.e. is
        level(n) the mod-n truncation of level(m)?  Requires n | m."""
        if m % n != 0:
            raise ValueError(f"transition needs n | m, got n={n}, m={m}")
        return is_isomorphic(tensor_mod(self.level(m), n), self.level(n))

    def check_coherence(self, bound: int) -> bool:
        """Transition compatibility for every pair n | m <= bound."""
        for m in range(1, bound + 1):
            for n in _divisors(m):
                if not self.transition_consistent(m, n):
                    return False
        return True

    def __str__(self):
        return f"<pro-system: {self.description}>"


def _divisors(m: int) -> list[int]:
    return [n for n in range(1, m + 1) if m % n == 0]


def completion(g: FgAbelianGroup) -> FiniteAbelianProSystem:
    """The profinite completion of G as the tower of truncations G/mG."""
    return FiniteAbelianProSystem(g, f"completion of {g}")


def mu_tower(m: AffineMonoid) -> FiniteAbelianProSystem:
    """The tower n -> mu_n(P) underlying the infinite root construction:
    the completion of Z^r for the group rank r of P."""
    return FiniteAbelianProSystem(FgAbelianGroup.free(m.gp_lattice_rank),
                                  f"mu-tower of {m}")


def product_system(*systems: FiniteAbelianProSystem) -> FiniteAbelianProSystem:
    """Level-wise direct product of towers: the completion of the direct
    sum of the groups they complete."""
    desc = " x ".join(s.description for s in systems) or "trivial product"
    group = FgAbelianGroup.trivial().direct_sum(*(s.group for s in systems))
    return FiniteAbelianProSystem(group, desc)


@dataclass(frozen=True)
class LevelRecord:
    n: int
    factors_a: tuple[int, ...]
    factors_b: tuple[int, ...]
    isomorphic: bool


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Per-level evidence for (or against) tower equivalence."""

    equivalent: bool
    bound: int
    levels: tuple[LevelRecord, ...]
    witness_level: int | None
    note: str = COMPARISON_NOTE

    def to_json_dict(self):
        return {
            "equivalent": self.equivalent,
            "bound": self.bound,
            "witness_level": self.witness_level,
            "note": self.note,
            "levels": [
                {"n": rec.n, "factors_a": list(rec.factors_a),
                 "factors_b": list(rec.factors_b), "isomorphic": rec.isomorphic}
                for rec in self.levels
            ],
        }


def equivalent_up_to(a: FiniteAbelianProSystem, b: FiniteAbelianProSystem,
                     bound: int) -> tuple[bool, EquivalenceCertificate]:
    """Level-wise equivalence of two towers up to the bound.

    True iff every level n <= bound has isomorphic invariant factors on
    both sides and both towers' transitions are coherent among the levels
    n | m <= bound.  For towers of finite abelian groups with natural
    surjections this is the checkable shadow of pro-equivalence.
    """
    bound = int(bound)
    if bound < 1:
        raise ValueError("bound must be a positive integer")
    records = []
    witness = None
    for n in range(1, bound + 1):
        ga, gb = a.level(n), b.level(n)
        iso = is_isomorphic(ga, gb)
        records.append(LevelRecord(n, tuple(ga.invariant_factors()),
                                   tuple(gb.invariant_factors()), iso))
        if not iso and witness is None:
            witness = n
    ok = witness is None
    if ok:
        for m in range(1, bound + 1):
            for n in _divisors(m):
                if not (a.transition_consistent(m, n) and b.transition_consistent(m, n)):
                    ok = False
                    witness = n
                    break
            if not ok:
                break
    return ok, EquivalenceCertificate(ok, bound, tuple(records), witness)
