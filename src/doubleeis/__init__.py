"""Exact rational computations in formal double Eisenstein spaces.

The package provides the generator/relation presentations of the formal
double Eisenstein and double zeta spaces, the structural maps between them,
the GL(2,Z) action on four-variable series, realizations built from the
Kronecker function, and constructors for the classical identity families up
to Ramanujan's differential equations.
"""

__version__ = "0.1.0"

from .series import QSeries
from .multipoly import MultiPoly, divided_difference
from .eisenstein import (
    UnderdeterminedTruncationError,
    bernoulli,
    derived_eisenstein,
    eisenstein_qexp,
    recognize_quasimodular,
)
from .elements import (
    EISENSTEIN,
    ZETA,
    FormalElement,
    G1,
    G2,
    GP,
    GenId,
    MixedSpaceError,
    MixedWeightError,
    Z1,
    Z2,
    ZP,
    parse_genid,
)
from .spaces import (
    RelationSystem,
    dimension,
    eisenstein_relations,
    enumerate_generators,
    is_zero_in_space,
    normal_form,
    relation_system,
    zeta_relations,
)
from .maps import map_partial, map_pi, map_sigma
from .action import (
    GroupRingElem,
    IntMatrix2,
    MATRICES,
    act,
    act_group_ring,
    parse_group_ring,
)
from .kronecker import (
    KroneckerRealization,
    build_b2,
    check_derivation_diagram,
    closed_form_depth2,
    fay_check,
    kronecker_b1,
    realize_bernoulli,
    realize_element,
    realize_kronecker,
    wplus_check,
)
from .identities import (
    mfprod_i,
    mfprod_ii,
    parity_expression,
    ramanujan,
    relprodandg,
    sum_formula,
)
from .expressions import ExpressionSyntaxError, parse_expression

__all__ = [
    "EISENSTEIN",
    "ExpressionSyntaxError",
    "FormalElement",
    "G1",
    "G2",
    "GP",
    "GenId",
    "GroupRingElem",
    "IntMatrix2",
    "KroneckerRealization",
    "MATRICES",
    "MixedSpaceError",
    "MixedWeightError",
    "MultiPoly",
    "QSeries",
    "RelationSystem",
    "UnderdeterminedTruncationError",
    "Z1",
    "Z2",
    "ZETA",
    "ZP",
    "act",
    "act_group_ring",
    "bernoulli",
    "build_b2",
    "check_derivation_diagram",
    "closed_form_depth2",
    "derived_eisenstein",
    "dimension",
    "divided_difference",
    "eisenstein_qexp",
    "eisenstein_relations",
    "enumerate_generators",
    "fay_check",
    "is_zero_in_space",
    "kronecker_b1",
    "map_partial",
    "map_pi",
    "map_sigma",
    "mfprod_i",
    "mfprod_ii",
    "normal_form",
    "parity_expression",
    "parse_expression",
    "parse_genid",
    "parse_group_ring",
    "ramanujan",
    "realize_bernoulli",
    "realize_element",
    "realize_kronecker",
    "recognize_quasimodular",
    "relation_system",
    "relprodandg",
    "sum_formula",
    "wplus_check",
    "zeta_relations",
]
