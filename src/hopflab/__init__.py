"""hopflab: a numerical laboratory for maps between spheres.

Builds explicit sphere-valued maps (the Hopf map, degree-one bumps,
multi-bubble maps, maps of prescribed Hopf degree), estimates their
fractional Sobolev energies by stratified Monte Carlo with a deterministic
quadrature cross-check, certifies degrees and Hopf invariants numerically,
and runs the energy-versus-degree scaling experiment.
"""

__version__ = "0.1.0"

from .energy import (  # noqa: E402
    EnergyEstimate,
    EnergyParams,
    Region,
    check_gluing_bound,
    check_patching_bound,
    energy_mc,
    energy_quadrature,
    fiber_reduced_energy,
    hopf_energy,
    whole_sphere,
)
from .errors import HopflabError  # noqa: E402
from .experiments import (  # noqa: E402
    ExperimentConfig,
    ScalingResult,
    emit_report,
    parse_degrees,
    run_scaling,
    run_verify,
)
from .geometry import (  # noqa: E402
    GeodesicBall,
    Rotation,
    SpherePoint,
    sphere_point,
)
from .maps import (  # noqa: E402
    SphereMap,
    bump_deg1,
    composed_with_hopf,
    constant_map,
    descriptor_from_json,
    descriptor_to_json,
    equator_collapse,
    hopf_bump,
    hopf_map,
    identity_map,
    map_from_descriptor,
    multi_bubble,
    patch_maps,
    precompose_flip,
    precompose_rotation,
    prescribed_hopf_map,
)
from .topology import (  # noqa: E402
    ClosedCurve,
    DegreeReport,
    bookkept_degree,
    gauss_linking,
    hopf_invariant,
    mapping_degree,
    tangential_jacobian,
    trace_fiber,
)

__all__ = [
    "__version__",
    "ClosedCurve",
    "DegreeReport",
    "EnergyEstimate",
    "EnergyParams",
    "ExperimentConfig",
    "GeodesicBall",
    "HopflabError",
    "Region",
    "Rotation",
    "ScalingResult",
    "SphereMap",
    "SpherePoint",
    "bookkept_degree",
    "bump_deg1",
    "check_gluing_bound",
    "check_patching_bound",
    "composed_with_hopf",
    "constant_map",
    "descriptor_from_json",
    "descriptor_to_json",
    "emit_report",
    "energy_mc",
    "energy_quadrature",
    "equator_collapse",
    "fiber_reduced_energy",
    "hopf_energy",
    "gauss_linking",
    "hopf_bump",
    "hopf_invariant",
    "hopf_map",
    "identity_map",
    "map_from_descriptor",
    "mapping_degree",
    "multi_bubble",
    "parse_degrees",
    "patch_maps",
    "precompose_flip",
    "precompose_rotation",
    "prescribed_hopf_map",
    "run_scaling",
    "run_verify",
    "sphere_point",
    "tangential_jacobian",
    "trace_fiber",
    "whole_sphere",
]
