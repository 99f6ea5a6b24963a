"""Blow-up combinatorics of Toda flows and the topology it computes.

Exact machinery for: Weyl group enumeration with reduced words and Bruhat
covers, sign-walk blow-up counts and their alternating-sum polynomials,
incidence graphs with 0/±2 chain complexes and integral cohomology, nilpotent
tau-function minimal degrees, finite Chevalley/orthogonal point counts, and
zero counting along exact A-type Toda flows.
"""

from .cartan import (
    CartanMatrix,
    DualCompactData,
    LieType,
    cartan_matrix,
    compact_dual_data,
    dual_type,
    positive_root_count,
    weyl_order,
)
from .errors import (
    CapExceeded,
    DegenerateSpectrum,
    DiamondViolation,
    FieldNotSplit,
    FlagcohError,
    InvalidCartanMatrix,
    InvariantViolated,
    OddSquaredDegree,
    UnsupportedType,
    Unsolvable,
    WindowTooSmall,
    ZeroPolynomial,
)
from .qpoly import QPoly, factor_q_minus_form, q_power_minus_one
from .weyl import (
    DEFAULT_CAP,
    WeylElement,
    WeylGroup,
    all_reduced_words,
    bruhat_cover,
    enumerate_group,
    longest_element,
    positive_roots,
    simple_reflection,
)
from .blowup import (
    BlowupTable,
    all_minus,
    blowup_count,
    blowup_poly,
    blowup_table,
    dual_blowup_count,
    format_signs,
    longest_blowups,
    minus_stable_elements,
    pq_table,
    reflect_signs,
    restricted_blowup_poly,
    sign_vector,
    stable_count,
)
from .graph import (
    IncidenceGraph,
    build_graph,
    components,
    export_graph,
    graph_from_json,
    negative_components,
)
from .cohomology import (
    ChainComplex,
    CohomologyGroups,
    assign_signs,
    diamond_check,
    integral_cohomology,
    mod2_dims,
    rational_betti,
)
from .multipoly import MultiPoly
from .tau import (
    TauFamily,
    complete_homogeneous,
    min_degree,
    nilpotent_tau_family,
    schur_wronskian,
    singularity_multiplicity,
    tau_min_degrees,
)
from .chevalley import (
    OrderPoly,
    PrimeField,
    order_poly,
    so_order_bruteforce,
    sphere_count,
    verify_order,
)
from .flow import (
    SpectralData,
    TauSignal,
    count_zeros,
    default_window,
    tau_signal,
    total_blowups,
)

__version__ = "0.1.0"
