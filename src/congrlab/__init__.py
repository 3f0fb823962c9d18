"""congrlab: congruence lattices, Boolean centers, factor congruences and
lifting properties of finite algebras."""

from .algebra import (
    FiniteAlgebra,
    Signature,
    build_from_spec,
    direct_product,
    dual,
    ordinal_sum,
    sublattice,
)
from .congruences import (
    ConLattice,
    Congruence,
    all_congruences,
    brute_force_congruences,
    cg_generated,
    compose,
    join,
    meet,
    permutes,
    principal_congruence,
)
from .factor import boolean_center, factor_congruences
from .fixtures import FIXTURE_NAMES, fixture

__all__ = [
    "FiniteAlgebra",
    "Signature",
    "build_from_spec",
    "direct_product",
    "dual",
    "ordinal_sum",
    "sublattice",
    "ConLattice",
    "Congruence",
    "all_congruences",
    "brute_force_congruences",
    "cg_generated",
    "compose",
    "join",
    "meet",
    "permutes",
    "principal_congruence",
    "boolean_center",
    "factor_congruences",
    "fixture",
    "FIXTURE_NAMES",
]

__version__ = "0.1.0"
