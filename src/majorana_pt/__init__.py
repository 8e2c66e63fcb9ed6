"""Finite PT-symmetric Kitaev/SSH chains at their exceptional points.

Builders for the Majorana ring and SSH chain matrices (:mod:`.model`),
a verified dense biorthogonal eigensolver and mode census (:mod:`.spectral`),
the closed-form zero mode and quantization-equation roots (:mod:`.bethe`),
cross-size projection and sweep analyses (:mod:`.analysis`), and a CLI
(:mod:`.cli`).
"""

from .model import (
    BLOCK_GRAM,
    BlockDecomposition,
    ModelParams,
    apply_ssh,
    build_majorana_ring,
    build_ssh,
    build_ssh_real,
    decompose_blocks,
    fit_block_scale,
    gamma_ep,
    on_locus,
    parity_matrix,
    pt_deviation,
    staggered_signs,
)
from .spectral import (
    Classification,
    ClassificationError,
    Coalescence,
    EigenSystem,
    ModeCensus,
    ModeClass,
    chain_census,
    chain_eigensystem,
    chain_eigensystems,
    classify_modes,
    classify_stack,
    coalesced_eigenvalues,
    detect_coalescence,
    eig,
    match_multisets,
    pseudo_hermiticity_check,
)
from .bethe import (
    BetheRoot,
    RootScanError,
    UniformChainError,
    ZeroModeWavefunction,
    k_from_epsilon,
    match_spectrum_to_roots,
    normalized_residual,
    omega_constant,
    quantization_residual,
    solve_evanescent_pair,
    solve_real_k,
    zero_mode,
    zero_mode_amplitudes,
    zero_mode_root,
)
from .analysis import (
    SweepPoint,
    census_sweep,
    common_part_compare,
    dirac_distribution,
    edge_mode_count,
    gap_bound_check,
)

__version__ = "0.1.0"
