"""Exact-arithmetic certificates for the 3-Kronecker quiver moduli space
of dimension vector (2,3).

The package computes Harder-Narasimhan types and their destabilizing
one-parameter subgroups, Teleman-quantization vanishing certificates
for bundles built from the universal bundles, the rational Chow ring
with Riemann-Roch Euler characteristics, stability and syzygies of 2x3
matrices of linear forms, and pairwise certification of exceptional
collections.  Everything runs in exact rational arithmetic.
"""

from .bundles import (
    U1,
    U2,
    BundleExpr,
    O,
    StratumWeights,
    det,
    direct_sum,
    dual,
    parse_expr,
    sl,
    sym2,
    tensor,
    twist,
    wedge2,
    weights_of,
)
from .chow import (
    BASIS,
    ChowElement,
    RingInconsistencyError,
    ch_of,
    chi,
    integral,
    parse_chow_poly,
    tangent_chern,
    todd_y,
)
from .quiver import (
    KRONECKER3,
    DimVector,
    HNType,
    Quiver,
    enumerate_hn_types,
    euler_form,
    has_semistable,
    hn_stratum_codim,
    is_hn_type,
    slope,
)
from .repgeom import (
    LinearFormMatrix,
    SyzygyPair,
    blp2_point,
    commutes,
    is_stable,
    minors,
    parse_matrix,
    syzygies,
)
from .strata import (
    Moduli,
    OnePS,
    StratumData,
    TelemanReport,
    count_negative_directions,
    descent_shift,
    eta,
    one_ps_from_hn,
    teleman_certify,
    universal_weights,
    unstable_strata,
)
from .verify import (
    CollectionSpec,
    MutationLedger,
    PairStatus,
    VerificationMatrix,
    check_ch_identities,
    collection_variants,
    euler_pairing,
    mutation_ledger,
    mutation_ledger_check,
    standard_collection,
    symmetry_functor,
    verify_collection,
)

__version__ = "0.1.0"
