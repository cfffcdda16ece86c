"""Digital simulation of small fermionic lattice models on a CZ-phi gate set.

The package compiles hopping/repulsion mode models through the
Jordan-Wigner transformation into hardware-style circuits, simulates
them exactly or under calibrated depolarizing noise, and provides the
verification stack used to characterise such hardware: state fidelities
and digitisation-error curves, two-qubit process tomography with a
physically constrained reconstruction, and interleaved randomized
benchmarking.
"""
from .pauli import PauliString, WeightedPauliSum, commutes
from .fermions import (
    FermionModel,
    anticommutator,
    four_mode_ahm,
    jw_annihilation,
    jw_creation,
    spin_hamiltonian,
    three_mode_model,
    two_mode_model,
)
from .circuits import (
    Circuit,
    Gate,
    circuit_unitary,
    gate_census,
    gate_unitary,
    validate_phase_range,
)
from .compiler import (
    Schedule,
    TrotterPlan,
    compile_evolution,
    compile_trotter_step,
    compile_zz_block,
    conjugate_basis,
    digitize_schedule,
    plan_for_model,
)
from .simulator import (
    DensityState,
    NoiseModel,
    PureState,
    apply_circuit,
    circuit_channel,
    error_budget,
    exact_evolve,
    mode_occupations,
    prepare_input,
    state_fidelity,
)
from .tomography import (
    ProcessMatrix,
    QPTDataset,
    anticommutation_experiment,
    compose_processes,
    process_fidelity,
    reconstruct_chi,
    simulate_qpt_dataset,
)
from .benchmarking import (
    CliffordGroup,
    DecayFit,
    clifford_group,
    extract_interleaved_error,
    fit_decay,
    rb_run,
    rb_runs,
)
from .experiments import ExperimentConfig, run, sweep

__version__ = "0.1.0"

__all__ = [
    "PauliString", "WeightedPauliSum", "commutes",
    "FermionModel", "anticommutator", "four_mode_ahm",
    "jw_annihilation", "jw_creation", "spin_hamiltonian",
    "three_mode_model", "two_mode_model",
    "Circuit", "Gate", "circuit_unitary", "gate_census", "gate_unitary",
    "validate_phase_range",
    "Schedule", "TrotterPlan", "compile_evolution", "compile_trotter_step",
    "compile_zz_block", "conjugate_basis", "digitize_schedule",
    "plan_for_model",
    "DensityState", "NoiseModel", "PureState", "apply_circuit",
    "circuit_channel", "error_budget", "exact_evolve", "mode_occupations",
    "prepare_input", "state_fidelity",
    "ProcessMatrix", "QPTDataset", "anticommutation_experiment",
    "compose_processes", "process_fidelity", "reconstruct_chi",
    "simulate_qpt_dataset",
    "CliffordGroup", "DecayFit", "clifford_group",
    "extract_interleaved_error", "fit_decay", "rb_run", "rb_runs",
    "ExperimentConfig", "run", "sweep",
]
