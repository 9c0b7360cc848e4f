"""Desk-scale laboratory for fractional powers of graph connection
Laplacians: forward propagators, source-to-solution map data, and the
inverse reconstruction pipeline that certifies recovery up to gauge."""

from .manifold import DiscreteManifold, Region, build_manifold, lattice, shortest_distances
from .bundle import (
    HermitianBundle,
    GaugeTransform,
    StructureIso,
    build_bundle,
    l2_inner,
    l2_norm,
    apply_gauge,
    pullback_bundle,
    translation_iso,
)
from .operator import SpectralOperator, assemble, apply_function
from .propagators import (
    TimeGrid,
    TimeSection,
    heat_apply,
    duhamel_solve,
    fractional_apply,
    fractional_inverse_spectral,
    fractional_inverse_quadrature,
    transmutation_gaussian_check,
    transmutation_printed_residual,
)
from .s2s import (
    LocalStructure,
    FracMapData,
    WaveMapData,
    local_structure,
    frac_map_assemble,
    wave_map_assemble,
)
from .reconstruction import (
    ProbeConfig,
    ProbeEngine,
    SourceFamily,
    DistanceProfileSet,
    RayPlan,
    RayPoint,
    ChartOperator,
    build_source_family,
    first_arrival_matrix,
    cut_time_estimate,
    ray_point,
    exterior_distance,
    distance_family,
    match_profiles,
    recover_local_operator,
    gauge_invariant_compare,
)
from .reference import chart_operator_from_bundle

__version__ = "0.1.0"
