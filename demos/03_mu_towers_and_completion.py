"""Profinite completion as a tower of finite truncations.

The completion of Z is the system n -> Z/n; the completion of Z^k agrees
level by level with the k-fold product of completions of Z.  The tower
n -> mu_n(P) of a rank-r chart is the completion of Z^r in disguise, and
towers are insensitive to cofinal reindexing (here: factorials), because
the transitions recover every level from a larger one.
"""

import math

from logcharts import (FgAbelianGroup, MonoidSpec, completion,
                       equivalent_up_to, mu_tower, product_system, validate)

z_hat = completion(FgAbelianGroup.free(1))
print("levels of the completion of Z:",
      ", ".join(f"{n}: {z_hat.level(n)}" for n in (1, 2, 6, 12, 60)))

for k in (1, 2, 3, 4):
    ok, cert = equivalent_up_to(
        completion(FgAbelianGroup.free(k)),
        product_system(*[z_hat] * k), 100)
    print(f"completion(Z^{k}) vs completion(Z)^{k} up to 100:", ok)

print()
cone = validate(MonoidSpec.make(2, [[1, 0], [1, 1], [1, 2]],
                                [[[1, 0, 1], [0, 2, 0]]]))
tower = mu_tower(cone)
print("mu-tower of the quadric cone:",
      ", ".join(f"{n}: {tower.level(n)}" for n in (2, 3, 4, 6)))
ok, _ = equivalent_up_to(tower, completion(FgAbelianGroup.free(2)), 60)
print("matches the completion of Z^2 up to level 60:", ok)

print()
# The factorials are cofinal: every n divides some i!, and the transition
# from level i! recovers level n, so the tower can be read on them alone.
facts = [math.factorial(i) for i in range(1, 41)]
ok = all(z_hat.transition_consistent(next(f for f in facts if f % n == 0), n)
         for n in range(1, 41))
print("factorial reindexing is invisible to the tower:", ok)

print()
ok, cert = equivalent_up_to(completion(FgAbelianGroup.free(1)),
                            completion(FgAbelianGroup.free(2)), 10)
print("Z-hat vs (Z^2)-hat:", ok, "- first witness at level", cert.witness_level)
print("certificate note:", cert.note)
