"""Lattice random walks, their second-order local-limit expansion, and
count-based branching random walk simulation."""

__version__ = "0.1.0"

from .step_law import (  # noqa: F401
    Moments,
    StepLaw,
    WalkClass,
    classify,
    law_from_dict,
    law_to_dict,
    lazy_simple_law,
    moments,
    validate,
)
from .exact_dist import (  # noqa: F401
    LatticeDist,
    axis_mixture,
    cf_invert_box,
    convolve_step,
    delta_dist,
    dist_at,
    walk_dist,
)
from .llt import (  # noqa: F401
    ExpansionConstants,
    constants_for,
    fit_correction_coefficients,
    gamma_residual,
    gaussian_identity_check,
    rw_expansion,
)
from .gw_brw import (  # noqa: F401
    GenerationState,
    OffspringLaw,
    ReplicateSeed,
    SiteCounts,
    initial_state,
    simulate,
    validate_offspring,
)
from .martingales import (  # noqa: F401
    MartingaleReadout,
    brw_residual,
    corollary_eval,
    f1_eval,
    f2_eval,
    harmonicity_defect,
    readout,
    theorem_prediction,
)
