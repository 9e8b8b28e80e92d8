"""Stability analysis of quantum Markov systems in the Heisenberg picture.

Builds Lindblad generators as concrete matrices, certifies Lyapunov and
invariance-principle operator inequalities, computes and classifies
invariant states, integrates the master equation, and synthesizes coupling
operators that stabilize target ground spaces.
"""

from .operators import (
    DensityMatrix,
    EigWitness,
    OperatorError,
    PsdReport,
    SpectralDecomposition,
    Verdict,
    ket_bra,
    ladder_lowering,
    number_operator,
    pauli,
    psd_check,
    random_density,
    random_hermitian,
    random_matrix,
    spectral_decompose,
)
from .generator import (
    ModelSpec,
    Superoperator,
    dissipation_functional,
    dissipator,
    generator_heisenberg,
    generator_schroedinger,
    heisenberg_diffusion,
    liouvillian,
    unvec,
    vec,
)
from .lyapunov import (
    GroundConvergenceReport,
    LyapunovCertificate,
    TailBound,
    check_lasalle_pair,
    check_lyapunov,
    check_theorem8,
    check_weak_lyapunov,
    lyapunov_search,
    tightness_tail_bound,
)
from .invariants import (
    ConnectivityResult,
    ConnectivityScan,
    FaithfulnessResult,
    InvariantAnalysisError,
    InvariantStateReport,
    UniquenessResult,
    connectivity_check,
    connectivity_scan,
    faithfulness_check,
    steady_states,
    subharmonicity_check,
    uniqueness_check,
)
from .dynamics import (
    IntegrationError,
    LaSalleDiagnostics,
    MeanBoundCheck,
    Trajectory,
    evolve,
    expectation_series,
    invariant_set_probe,
    lasalle_diagnostics,
    mean_bound_check,
)
from .synthesis import (
    CouplingFamily,
    GroundCouplingResult,
    SynthesisResult,
    SynthesisSpec,
    solve_ground_coupling,
    synthesize_coupling,
    verify_synthesis,
)

__version__ = "0.1.0"
