"""Chart-level invariants of logarithmic structures.

A chart is a fine saturated sharp monoid presented by lattice generators.
From it the library computes the face lattice and rank stratification,
the Kummer extensions and the groups mu_n, fiber models of the
Kato-Nakayama space and of the root-stack tower over each stratum, the
defining binomial equation systems of both chart models, and a level-wise
verification that the two fiber towers agree after profinite completion.
"""

from .abgrp import (FgAbelianGroup, IntMatrix, cokernel, is_isomorphic,
                    smith_normal_form, tensor_mod)
from .errors import (ArityMismatch, ChartError, FalsifiedProperty,
                     InvalidMonoidSpec, InvalidPoint, NotAFace, NotOnVariety,
                     NotSharp, RelationInconsistent,
                     RelationSynthesisIncomplete, SaturationFailure,
                     StratumEmptyAtDeskScale)
from .exactnum import GaussianRational, NonnegRoot
from .fibers import (KnFiberModel, Pi1Comparison, RootFiberTower,
                     TorsorReport, algebraic_kummer_fiber, comparison_on_pi1,
                     kn_fiber, kn_kummer_fiber, root_fiber_tower,
                     torsor_check, verify_fiber_equivalence)
from .monoid import (AffineMonoid, Face, MonoidSpec, face_with_support,
                     faces, kummer, mu, stalk, validate)
from .profin import (EquivalenceCertificate, FiniteAbelianProSystem,
                     completion, equivalent_up_to, mu_tower, product_system)
from .semialg import (BinomialSystem, CxPoint, KnPoint, Target,
                      check_membership, emit_equations, sample_kn_stratum,
                      sample_stratum, tau)
from .strata import StratumTable, stratify, stratum_of_point

__version__ = "0.1.0"

__all__ = [
    "AffineMonoid", "ArityMismatch", "BinomialSystem", "ChartError",
    "CxPoint", "EquivalenceCertificate", "Face", "FalsifiedProperty",
    "FgAbelianGroup", "FiniteAbelianProSystem", "GaussianRational",
    "IntMatrix", "InvalidMonoidSpec", "InvalidPoint", "KnFiberModel",
    "KnPoint", "MonoidSpec", "NonnegRoot", "NotAFace", "NotOnVariety",
    "NotSharp", "Pi1Comparison", "RelationInconsistent",
    "RelationSynthesisIncomplete", "RootFiberTower", "SaturationFailure",
    "StratumEmptyAtDeskScale", "StratumTable", "Target", "TorsorReport",
    "algebraic_kummer_fiber", "check_membership", "cokernel",
    "comparison_on_pi1", "completion", "emit_equations", "equivalent_up_to",
    "face_with_support", "faces", "is_isomorphic", "kn_fiber",
    "kn_kummer_fiber", "kummer", "mu", "mu_tower", "product_system",
    "root_fiber_tower", "sample_kn_stratum", "sample_stratum",
    "smith_normal_form", "stalk",
    "stratify", "stratum_of_point", "tau", "tensor_mod", "torsor_check",
    "validate", "verify_fiber_equivalence",
]
