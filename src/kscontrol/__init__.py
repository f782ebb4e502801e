"""kscontrol: null-control synthesis and verification for the
Kuramoto-Sivashinsky equation on intervals and box cylinders.

Library layout (one module per subsystem):

* ``spectrum``        eigendata, critical set, counting/gap diagnostics
* ``biorthogonal``    minimal-norm biorthogonal exponential families
* ``modal``           exact-in-time spectral evolution, observations, nonlinearity
* ``moments``         analytic moment-problem solver
* ``boundary_1d``     1-D boundary control, cost scans, counterexamples
* ``pointwise``       minimal time estimation and interior point control
* ``lebeau_robbiano`` frequency-splitting control on the cylinder
* ``nonlinear``       source-term fixed point and nonlinear verification
* ``config``/``runner``/``cli``  the ksctl scenario surface
"""

from .biorthogonal import BiorthogonalFamily, build_family, gram_matrix
from .boundary_1d import (
    critical_counterexample,
    synthesize_boundary_control,
    verify_null,
)
from .lebeau_robbiano import BoundaryGamma, InternalPoint, build_schedule, run_lr
from .modal import (
    ControlSignal,
    ModalSource,
    ModalState,
    Trace,
    evolve_controlled,
    nonlinear_rhs,
    observe,
    state_1d,
    state_nd,
)
from .nonlinear import WeightPair, fixed_point, nonlinear_simulate
from .pointwise import PointSpec, minimal_time_estimate, synthesize_point_control
from .spectrum import (
    Box,
    External,
    K0_index,
    SpectrumSpec,
    critical_set_check,
    n0_index,
)

__all__ = [
    "BiorthogonalFamily",
    "Box",
    "BoundaryGamma",
    "ControlSignal",
    "External",
    "InternalPoint",
    "K0_index",
    "ModalSource",
    "ModalState",
    "PointSpec",
    "SpectrumSpec",
    "Trace",
    "WeightPair",
    "build_family",
    "build_schedule",
    "critical_counterexample",
    "critical_set_check",
    "evolve_controlled",
    "fixed_point",
    "gram_matrix",
    "minimal_time_estimate",
    "n0_index",
    "nonlinear_rhs",
    "nonlinear_simulate",
    "observe",
    "run_lr",
    "state_1d",
    "state_nd",
    "synthesize_boundary_control",
    "synthesize_point_control",
    "verify_null",
]

__version__ = "0.1.0"
