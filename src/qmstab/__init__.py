"""Stability analysis of quantum Markov systems in the Heisenberg picture.

Builds Lindblad generators as concrete matrices, certifies Lyapunov and
invariance-principle operator inequalities, computes and classifies
invariant states, integrates the master equation, and synthesizes coupling
operators that stabilize target ground spaces.

Names are exported lazily (PEP 562): `import qmstab` loads numpy alone, and
each name's module is imported on first use. The `n x n` checks (Lyapunov,
LaSalle, synthesis) never load scipy; the Liouvillian and the propagator
load it on their first call.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports
_EXPORTS = {
    "operators": (
        "DensityMatrix", "EigWitness", "IntegrationError", "InvariantAnalysisError",
        "OperatorError", "PsdReport", "SpectralDecomposition", "Verdict", "ket_bra",
        "ladder_lowering", "number_operator", "pauli", "psd_check", "random_density",
        "random_hermitian", "random_matrix", "spectral_decompose",
    ),
    "generator": (
        "ModelSpec", "Superoperator", "dissipation_functional", "dissipator",
        "generator_heisenberg", "generator_schroedinger", "heisenberg_diffusion", "liouvillian",
        "unvec", "vec",
    ),
    "lyapunov": (
        "GroundConvergenceReport", "LyapunovCertificate", "TailBound", "check_lasalle_pair",
        "check_lyapunov", "check_theorem8", "check_weak_lyapunov", "tightness_tail_bound",
    ),
    "invariants": (
        "ConnectivityResult", "ConnectivityScan", "FaithfulnessResult", "InvariantStateReport",
        "UniquenessResult", "connectivity_check", "connectivity_scan", "faithfulness_check",
        "steady_states", "subharmonicity_check", "uniqueness_check",
    ),
    "dynamics": (
        "LaSalleDiagnostics", "MeanBoundCheck", "Trajectory", "evolve", "expectation_series",
        "invariant_set_probe", "lasalle_diagnostics", "mean_bound_check",
    ),
    "synthesis": (
        "CouplingFamily", "GroundCouplingResult", "SynthesisResult", "SynthesisSpec",
        "solve_ground_coupling", "synthesize_coupling", "verify_synthesis",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # `qmstab.dynamics` works without importing it first
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
