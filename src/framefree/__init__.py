"""Communication without a shared reference frame, simulated end to end.

The package models the loss of a common frame as averaging over collective
rotations, decomposes the n-qubit rotation action into invariant blocks,
and builds the protocols that ride on that structure: perfect classical
messaging, decoherence-free and noiseless-subsystem qubit codes, logical
Bell tests, and a two-photon optical realization of the two-qubit case.
"""

from .core import (ATOL, DensityOperator, GroupElement, MAX_QUBITS, RandomSource,
                   StateVector, apply_collective_rotation, collective_rotation, fidelity,
                   haar_random_su2, random_density, random_state_vector, trace_distance)
from .irreps import (HalfInteger, IrrepDecomposition, decompose, multiplicity,
                     total_irrep_count)
from .twirl import TwirlChannel, twirl_su2_monte_carlo
from .protocols import (CodeBook, CodeBookEntry, DecodingError, ExchangeAction,
                        LogicalEncoding, Message, RateRow, block_outcome_probabilities,
                        build_classical_codebook, classical_rate_asymptote,
                        classical_round_trip, decode_logical, dephasing_sector_encoding,
                        dfs_encoding_4qubit, dfs_logical_paulis,
                        encode_logical, exchange_logical_action,
                        helstrom_success_probability, logical_bell_chsh_trials,
                        most_repeated_irrep, noiseless_subsystem_plan, rate_table,
                        swap_qubits_matrix)
from .optics import (DetectionDistribution, OpticalProtocolResult, OpticalState,
                     apply_mode_transform, beam_splitter, detect, lift_two_qubit,
                     polarization_rotation, prepare_bell, run_optical_protocol)

__version__ = "0.1.0"
