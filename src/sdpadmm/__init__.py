"""ADMM for standard-form semidefinite programs, with the machinery to
measure and explain its local linear convergence: projection linearization,
operator-norm rate predictors, strict-complementarity / nondegeneracy
classification, and minimal-face trace diagnostics."""

from .analysis import analyse
from .diagnostics import (
    ComplementarityReport,
    EigenFrame,
    NondegeneracyReport,
    RateFit,
    backward_error_terms,
    eigen_frame,
    face_projections,
    nd_check,
    rank_trace,
    rate_fit,
    sc_check,
)
from .elimination import (
    EbReport,
    EliminationState,
    eb_scan,
    eliminate_step,
    init_elimination,
    linearization_residual,
    run_elimination,
)
from .errors import NumericalFailureError, SdpaFormatError, UnsupportedBlockError
from .linalg import (
    SpectralDecomp,
    eig_sym,
    psd_project,
    skew_exp,
    smat,
    svec,
    sylvester_solve,
    symmetrize,
)
from .linearization import (
    FixSubspace,
    OmegaStructure,
    apply_M,
    apply_M_adjoint,
    apply_M_directional,
    build_directional,
    build_omega,
    directional_derivative,
    fix_basis,
    op_norm_M,
    op_norm_M_minus_fix,
    psi_residual,
    tail_operator,
)
from .problem import (
    ConstraintKernel,
    PlantedCertificate,
    SdpProblem,
    apply_A,
    apply_At,
    build_kernel,
    generate_maxcut,
    generate_planted,
    load_sdpa,
    project_null,
    project_range,
    write_sdpa,
)
from .solver import (
    Checkpoint,
    IterationRecord,
    SolveStatus,
    SolverConfig,
    SolverState,
    residuals,
    solve,
    read_trace_csv,
    step_fixed_point,
    write_trace_csv,
    z_difference_identity,
)

__version__ = "0.1.0"
