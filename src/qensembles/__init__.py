"""Quantum state ensembles: metrics, entropy/energy bounds, channels, and a
verification harness."""

from .errors import (
    ConvergenceError,
    DimensionMismatch,
    EnergyRangeError,
    TruncationError,
    ValidationError,
)
from .linalg import (
    binary_entropy,
    bures_distance,
    conditional_entropy,
    eigvals_desc,
    fidelity,
    g_func,
    mirsky_gap,
    partial_trace,
    positive_part,
    relative_entropy,
    trace_norm,
    von_neumann_entropy,
)
from .energy import (
    GibbsSolution,
    HamiltonianSpec,
    avg_passive_energy,
    ergotropy,
    f_h,
    mean_energy,
    passive_energy,
    passive_rearrangement,
    solve_gibbs,
    truncated_passive_energy,
    wl_check,
)
from .ensembles import (
    Ensemble,
    average_entropy,
    average_state,
    qc_state,
    singleton,
    steer_to_average,
)
from .metrics import (
    CouplingSolution,
    PointMeasure,
    d0,
    d_ehs,
    d_ehs_many,
    d_kantorovich,
    d_kantorovich_many,
    dk_upper,
    kr_distance,
    kr_modified,
)
from .channels import (
    KrausChannel,
    NormEstimate,
    aoe,
    choi_matrix,
    choi_rank,
    coherent_overlap,
    coherent_state,
    diamond_lower,
    erasure_channel,
    erasure_pair_diamond,
    fock_dephasing,
    holevo_chi,
    identity_channel,
    mix_channels,
    mix_with_state,
    norm_1to1_lower,
)
from .bounds import (
    BoundReport,
    EnergyConstraint,
    RankConstraint,
    aoe_upper,
    ae_upper,
    cb_holevo_energy,
    cb_holevo_rank,
    chi_cb_prior_dim,
    chi_cb_prior_energy,
    crossover_eps,
    discretization_bounds,
    eof_scb,
    eof_scb_fid,
    eof_upper_sep,
    s_ineq_check,
    scb_energy,
    scb_holevo,
    scb_rank,
    u_func,
    v_func,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
