"""Numerical lab for entanglement growth and dual unitarity in brickwork circuits."""

from .qinfo import (
    DensityMatrix,
    PureState,
    bell_state,
    entropy_vn,
    fidelity,
    purify,
    reduce,
    relative_entropy,
    sandwiched_renyi,
    trace_norm_distance,
    uhlmann_align,
)
from .gates import (
    CartanData,
    DefectReport,
    Gate,
    cartan_decompose,
    choi_output_state,
    defects,
    haar_gate,
    haar_unitary,
    kicked_ising_first_gate,
    kicked_ising_gate,
    nearest_dual_q2,
    project_dual_iterative,
    reshuffle,
    swap_gate,
)
from .circuit import (
    BrickworkCircuit,
    EntanglementRecord,
    FourPartyReport,
    bond_entropies,
    chain_probs,
    dimer_sites,
    evolve,
    four_party_report,
    reconstruct_distillable,
    zigzag_check,
)
from .mps import MPSPair, cut_entropies_exact, random_solvable, replica_purity, solvability_defect
from .ensemble import (
    EnsembleStats,
    EpsDeltaPoint,
    eps_delta_scan,
    haar_choi_fidelity,
    haar_state_fidelity,
)

__version__ = "0.1.0"
