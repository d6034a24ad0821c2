"""modlab: desk-scale numerics for modular operators, relative entropy bounds,
coherent states on truncated Fock spaces, cutoff-function variational limits
and non-signalling unitaries built from truncated shift families."""

from .cuntz import (
    TruncatedCuntz,
    certify_no_product_form,
    gap_floor,
    nonsignalling_check,
    norm_gap_experiment,
    product_reconstruction,
)
from .cutoff import (
    AnalyticCutoff,
    ChiKernel,
    energy,
    energy_limit,
    eta_st,
    minimize_discrete,
)
from .field import (
    Ball,
    BoundSweepRecord,
    BumpFunction,
    InitialData,
    Wedge,
    boundary_term_prediction,
    entropy_bound,
    exact_entropy,
    modular_flow_point,
    squeeze_sweep,
    tau0,
)
from .fock import (
    StandardSubspaceData,
    TruncatedFock,
    coherent_entropy_check,
    dgamma,
    gamma,
    segal_field,
    weyl,
)
from .linalg import (
    HermitianEig,
    hermitian_eig,
    kron,
    partial_trace,
)
from .modular import (
    AntilinearMap,
    DensityMatrix,
    ModularData,
    modular_data,
    monotonicity_check,
    rel_entropy_dm,
    rel_tomita,
    theorem_entropy_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "AntilinearMap", "AnalyticCutoff", "Ball", "BoundSweepRecord", "BumpFunction",
    "ChiKernel", "DensityMatrix", "HermitianEig",
    "InitialData", "ModularData", "StandardSubspaceData",
    "TruncatedCuntz", "TruncatedFock", "Wedge",
    "boundary_term_prediction", "certify_no_product_form",
    "coherent_entropy_check", "dgamma", "energy", "energy_limit", "entropy_bound",
    "eta_st", "exact_entropy", "gamma", "gap_floor", "hermitian_eig", "kron",
    "minimize_discrete", "modular_data", "modular_flow_point", "monotonicity_check",
    "nonsignalling_check", "norm_gap_experiment", "partial_trace",
    "product_reconstruction", "rel_entropy_dm", "rel_tomita", "segal_field",
    "squeeze_sweep", "tau0", "theorem_entropy_bounds", "weyl",
]
