"""Numerics for spin correlations on the 3-sphere.

Modules cover the Cl(3,0) algebra (algebra), the SU(2)/SO(3) geodesic
distance laws (geometry), moving frames with their torsion (frames), an
independent quadrature oracle for the sign model (oracle), the Monte
Carlo correlation experiment and the sign flip of its rotor under a 2pi
rotation (spin), and the CHSH bound search (chsh).  The cli module
exposes them as the ``spinsphere`` command.  README's "Library use"
lists, with their modules, the public names that compute a quantity of
the paper beyond those re-exported here.
"""

from .algebra import (
    BLADE_NAMES,
    CAYLEY,
    bivector_axis,
    bivector_embed,
    geometric_product,
    oriented_product,
    reverse,
    rotor_exp,
    rotor_log,
    rotor_sqrt,
    rotate_bivector,
)
from .chsh import (
    TSIRELSON_BOUND,
    BoundReport,
    ChshConfig,
    OptimizerConfig,
    chsh_string,
    commutator_torsion,
    maximize_chsh,
    variance_rhs,
)
from .frames import (
    TangentFrame,
    curvature_tensor,
    tangent_frame,
    torsion_bivector_so3,
    torsion_bivector_su2,
    torsion_tensor,
    weitzenbock_connection,
)
from .geometry import (
    embed_round,
    rotor_angle,
    so3_distance,
    so3_distance_rotors,
    su2_distance,
)
from .oracle import sign_model_correlation, sign_model_curve
from .spin import (
    CorrelationResult,
    ExperimentConfig,
    correlation_curve,
    quaternion_std_dev,
    raw_correlation,
    scalar_product_correlation,
    simulate_ensemble,
    standard_score_correlation,
)

__version__ = "0.1.0"

__all__ = [
    "BLADE_NAMES",
    "CAYLEY",
    "BoundReport",
    "ChshConfig",
    "CorrelationResult",
    "ExperimentConfig",
    "OptimizerConfig",
    "TSIRELSON_BOUND",
    "TangentFrame",
    "bivector_axis",
    "bivector_embed",
    "chsh_string",
    "commutator_torsion",
    "correlation_curve",
    "curvature_tensor",
    "embed_round",
    "geometric_product",
    "maximize_chsh",
    "oriented_product",
    "quaternion_std_dev",
    "raw_correlation",
    "reverse",
    "rotate_bivector",
    "rotor_angle",
    "rotor_exp",
    "rotor_log",
    "rotor_sqrt",
    "scalar_product_correlation",
    "sign_model_correlation",
    "sign_model_curve",
    "simulate_ensemble",
    "so3_distance",
    "so3_distance_rotors",
    "standard_score_correlation",
    "su2_distance",
    "tangent_frame",
    "torsion_bivector_so3",
    "torsion_bivector_su2",
    "torsion_tensor",
    "weitzenbock_connection",
    "__version__",
]
