"""Exact homological algebra for connected Nakayama algebras.

An algebra is specified by its Kupisch series (the list of projective
Loewy lengths) over a linear or cyclic quiver.  Every indecomposable
module is an interval, so dimensions, Ext spaces, Gorenstein invariants
and AR translates are computed exactly by combinatorics, with an
independent matrix oracle over small prime fields for cross-checking.
"""

from .classify import (
    ClassificationReport,
    VerifierResult,
    classify,
    is_minimal_ag,
    is_n_auslander,
    is_self_injective,
    minimal_ag_parameter,
    n_auslander_parameter,
    prinj_vertices,
    verify_ses_gpd_bounds,
    verify_thm31_count,
    verify_thm_gp_socle_sub,
    verify_thm_prinj,
)
from .core import (
    INFINITY,
    ExtendedNat,
    KupischSeries,
    count_admissible,
    enumerate_admissible,
    iter_admissible,
)
from .errors import (
    DimensionCapExceeded,
    EmptySeries,
    GorensteinAsymmetry,
    InternalInconsistency,
    IoError,
    NakayamaError,
    NotAdmissible,
    NotGorenstein,
    ParseError,
    PreconditionFailed,
    SearchSpaceTooLarge,
)
from .homology import (
    Resolution,
    cosyzygy,
    domdim,
    ext_dim,
    gldim,
    gorenstein_degree,
    gp_census,
    gpd,
    idim,
    injective_coresolution,
    is_gorenstein_projective,
    pd,
    projective_resolution,
    regular_id,
    regular_id_left,
    syzygy,
)
from .modules import (
    IntervalModule,
    ModuleSum,
    dim_vector,
    embeds_in,
    hom_dim,
    in_sub_lambda,
    indecomposables,
    injective,
    injective_envelope,
    is_injective,
    is_projective,
    projective,
    projective_cover,
    radical,
    radical_power,
    radical_quotient,
    regular_module,
    simple,
    socle,
    socle_part,
    socle_vertex,
    top,
)
from .notation import format_interval, format_module, parse_module
from .oracle import (
    oracle_ext1_dim,
    oracle_hom_dim,
    oracle_is_injective,
    oracle_socle_vector,
    oracle_tau,
    realize,
)
from .precluster import (
    PreclusterVerdict,
    ar_translate,
    ar_translate_inverse,
    is_precluster,
    search_precluster,
    tau_n,
    tau_n_inverse,
)

__version__ = "0.1.0"
