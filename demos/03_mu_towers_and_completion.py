"""Profinite completion as a tower of finite truncations.

A tower is built from the group G it completes, as
FiniteAbelianProSystem(G), the system n -> G/nG.  The completion of Z is
the system n -> Z/n; the completion of Z^k agrees level by level with the
k-fold product of completions of Z, whose level n is (Z/n)^k, the
cokernel of n times the k x k identity.  The tower n -> mu_n(P) of a
rank-r chart, read off ``mu``, is the completion of Z^r in disguise, and
towers are insensitive to cofinal reindexing (here: factorials), because
the transitions recover every level from a larger one.
"""

import math

from logcharts import (FgAbelianGroup, FiniteAbelianProSystem, MonoidSpec, cokernel,
                       equivalent_up_to, mu, validate)

z_hat = FiniteAbelianProSystem(FgAbelianGroup.free(1))
print("levels of the completion of Z:",
      ", ".join(f"{n}: {z_hat.level(n)}" for n in (1, 2, 6, 12, 60)))

for k in (1, 2, 3, 4):
    tower = FiniteAbelianProSystem(FgAbelianGroup.free(k))
    ok = all(tower.level(n) == cokernel([[n if i == j else 0 for j in range(k)]
                                         for i in range(k)], k)
             for n in range(1, 101))
    print(f"completion(Z^{k}) vs completion(Z)^{k} up to 100:", ok)

print()
cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                [[[1, 0, 1], [0, 2, 0]]]))
print("mu-tower of the quadric cone:",
      ", ".join(f"{n}: {mu(cone, n)}" for n in (2, 3, 4, 6)))
z2_hat = FiniteAbelianProSystem(FgAbelianGroup.free(2))
ok, _ = equivalent_up_to(FiniteAbelianProSystem(FgAbelianGroup.free(cone.gp_lattice_rank)),
                         z2_hat, 60)
ok = ok and all(mu(cone, n) == z2_hat.level(n) for n in range(1, 61))
print("matches the completion of Z^2 up to level 60:", ok)

print()
# The factorials are cofinal: every n divides some i!, and the transition
# from level i! recovers level n, so the tower can be read on them alone.
facts = [math.factorial(i) for i in range(1, 41)]
ok = all(z_hat.transition_consistent(next(f for f in facts if f % n == 0), n)
         for n in range(1, 41))
print("factorial reindexing is invisible to the tower:", ok)

print()
ok, cert = equivalent_up_to(z_hat, z2_hat, 10)
print("Z-hat vs (Z^2)-hat:", ok, "- first witness at level", cert.witness_level)
print("certificate note:", cert.note)
