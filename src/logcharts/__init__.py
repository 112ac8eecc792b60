"""Chart-level invariants of logarithmic structures.

A chart is a fine saturated sharp monoid presented by lattice generators.
From it the library computes the face lattice and rank stratification,
the groups mu_n, the stalk over each stratum (whose rank r fixes both
fiber models: an r-torus and the mu-tower of the stalk), Kummer-cover
fibers, the defining binomial equation systems of both chart models, and
a level-wise verification that the two fiber towers agree after
profinite completion.

Importing the package loads no layer: a public name or a layer submodule
is imported from its home module on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "abgrp": ("FgAbelianGroup", "cokernel", "is_isomorphic", "smith_normal_form", "tensor_mod"),
    "errors": ("ArityMismatch", "ChartError", "FalsifiedProperty", "InvalidMonoidSpec",
               "InvalidPoint", "NotAFace", "NotOnVariety", "NotSharp", "RelationInconsistent",
               "RelationSynthesisIncomplete", "SaturationFailure"),
    "exactnum": ("GaussianRational", "NonnegRoot"),
    "fibers": ("TorsorReport", "algebraic_kummer_fiber", "kn_kummer_fiber", "torsor_check",
               "verify_fiber_equivalence"),
    "monoid": ("AffineMonoid", "Face", "MonoidSpec", "face_with_support", "faces", "mu",
               "stalk", "validate"),
    "profin": ("EquivalenceCertificate", "FiniteAbelianProSystem", "completion",
               "equivalent_up_to", "mu_tower", "product_system"),
    "semialg": ("BinomialSystem", "CxPoint", "KnPoint", "Target", "check_membership",
                "emit_equations", "sample_kn_stratum", "sample_stratum", "tau"),
    "strata": ("StratumTable", "stratify", "stratum_of_point"),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}
_LAYERS = frozenset(_HOMES) | {"ratlp"}
__all__ = sorted(_HOME_OF)


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME_OF:
        return getattr(importlib.import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAYERS | set(_HOME_OF))
