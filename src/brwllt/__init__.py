"""Lattice random walks, their second-order local-limit expansion, and
count-based branching random walk simulation.

The public names are read from their defining modules on first use
(PEP 562), so ``import brwllt`` imports neither numpy nor any compute
module."""

import importlib

__version__ = "0.1.0"

# Each public name -> the module that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "step_law": "Moments StepLaw WalkClass classify law_from_dict law_to_dict lazy_simple_law moments validate",
        "config": "OffspringLaw validate_offspring",
        "exact_dist": "LatticeDist axis_mixture cf_invert_box convolve_step delta_dist dist_at walk_dist",
        "llt": "ExpansionConstants constants_for fit_correction_coefficients gamma_residual "
        "gaussian_identity_check rw_expansion",
        "gw_brw": "GenerationState ReplicateSeed SiteCounts initial_state simulate",
        "martingales": "MartingaleReadout brw_residual corollary_eval f1_eval f2_eval harmonicity_defect "
        "readout theorem_prediction",
    }.items()
    for name in names.split()
}
__all__ = tuple(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
