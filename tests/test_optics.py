import json
import warnings
from dataclasses import asdict

import numpy as np
import pytest

from framefree.core import (GroupElement, RandomSource, StateVector, haar_random_su2,
                            random_state_vector)
from framefree.optics import (DetectionDistribution, OpticalState, apply_mode_transform,
                              beam_splitter, detect, lift_two_qubit,
                              polarization_rotation, prepare_bell, run_optical_protocol)

SQRT2 = np.sqrt(2.0)

# iX in SU(2): the 90-degree polarization rotation H <-> V, up to global phase
QUARTER_WAVE_SWAP = GroupElement(np.array([[0.0, 1.0j], [1.0j, 0.0]]))


def random_optical_state(rng) -> OpticalState:
    c = rng.normal((4, 4)) + 1j * rng.normal((4, 4))
    c = c + c.T
    return OpticalState(c / np.linalg.norm(c))


class TestPreparation:
    def test_psi_minus_has_one_photon_per_port(self):
        state = prepare_bell("psi_minus")
        for (i, j), amp in state.basis_amplitudes().items():
            if abs(amp) > 1e-12:
                assert i < 2 <= j

    def test_bell_states_are_orthogonal(self):
        assert abs(prepare_bell("psi_minus").overlap(prepare_bell("phi_minus"))) < 1e-12

    def test_phi_minus_from_rotation_route(self):
        port2_only = np.eye(4, dtype=complex)
        port2_only[2:, 2:] = QUARTER_WAVE_SWAP.matrix
        rotated = apply_mode_transform(prepare_bell("psi_minus"), port2_only)
        overlap = abs(rotated.overlap(prepare_bell("phi_minus")))
        assert abs(overlap - 1.0) < 1e-10

    def test_rejects_unknown_state(self):
        with pytest.raises(ValueError):
            prepare_bell("phi_plus")


class TestOpticalState:
    def test_rejects_asymmetric_coefficients(self):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 1] = 1.0
        with pytest.raises(ValueError):
            OpticalState(c)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            OpticalState(np.eye(4, dtype=complex))

    @pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_coefficients(self, entry):
        c = np.zeros((4, 4), dtype=complex)
        c[0, 1] = c[1, 0] = entry
        with pytest.raises(ValueError, match="non-finite"):
            OpticalState(c)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (16,)])
    def test_rejects_coefficients_not_4x4(self, shape):
        with pytest.raises(ValueError, match="must be 4x4"):
            OpticalState(np.ones(shape, dtype=complex))

    def test_from_amplitudes_round_trip(self):
        amps = {(0, 3): 0.6, (1, 2): -0.8}
        state = OpticalState.from_amplitudes(amps)
        recovered = state.basis_amplitudes()
        for pair, amp in amps.items():
            assert abs(recovered[pair] - amp) < 1e-12

    def test_from_amplitudes_rejects_bad_pair(self):
        for pair in ((3, 0), (0, 4), (0.5, 1), (True, 2)):
            with pytest.raises(ValueError, match=r"^mode pair .* must satisfy 0 <= i <= j < 4$"):
                OpticalState.from_amplitudes({pair: 1.0})

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, 4), (0.5, 1), (True, 0), (0, 3.0)])
    def test_amplitude_rejects_a_mode_that_is_not_an_integer_in_0_to_3(self, i, j):
        # -1 would read mode 3, and True mode 1, through numpy indexing
        with pytest.raises(ValueError, match=r"^modes must be integers in 0..3, got "):
            prepare_bell("psi_minus").amplitude(i, j)


class TestModeTransform:
    @pytest.mark.parametrize("u", [2.0 * np.eye(4), np.eye(3), np.diag([np.nan, 1.0, 1.0, 1.0]),
                                   np.diag([np.inf, 1.0, 1.0, 1.0])],
                             ids=["non-unitary", "wrong-shape", "nan", "inf"])
    def test_rejects(self, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning, such as inf * 0 in u @ u^dagger, fails
            with pytest.raises(ValueError, match="mode transform must be a 4x4 unitary"):
                apply_mode_transform(prepare_bell("psi_minus"), u)


class TestPolarizationRotation:
    def test_identity_leaves_state_unchanged(self, rng):
        state = random_optical_state(rng)
        rotated = polarization_rotation(state, GroupElement.identity())
        assert abs(abs(rotated.overlap(state)) - 1.0) < 1e-12

    def test_common_rotation_fixes_psi_minus(self, rng):
        psi = prepare_bell("psi_minus")
        for _ in range(50):
            rotated = polarization_rotation(psi, haar_random_su2(rng))
            assert abs(abs(rotated.overlap(psi)) - 1.0) < 1e-10

    def test_symmetric_sector_never_reaches_psi_minus(self, rng):
        psi, phi = prepare_bell("psi_minus"), prepare_bell("phi_minus")
        for _ in range(50):
            rotated = polarization_rotation(phi, haar_random_su2(rng))
            assert abs(rotated.overlap(psi)) < 1e-10


class TestBeamSplitter:
    def test_norm_preserved(self, rng):
        for _ in range(100):
            out = beam_splitter(random_optical_state(rng))
            assert abs(np.linalg.norm(out.pair_coefficients) - 1.0) < 1e-10

    def test_hong_ou_mandel_bunching(self):
        # one H photon in each port: output has no coincidence component
        out = beam_splitter(OpticalState.from_amplitudes({(0, 2): 1.0}))
        amps = out.basis_amplitudes()
        assert abs(amps[(0, 0)] - 1 / SQRT2) < 1e-12
        assert abs(amps[(2, 2)] + 1 / SQRT2) < 1e-12
        coincidence = sum(abs(amps[(i, j)]) for i in range(2) for j in range(2, 4))
        assert coincidence < 1e-12

    def test_psi_minus_stays_coincident(self):
        out = beam_splitter(prepare_bell("psi_minus"))
        for (i, j), amp in out.basis_amplitudes().items():
            if abs(amp) > 1e-12:
                assert i < 2 <= j


class TestDetect:
    def test_psi_minus_coincidence(self):
        dist = detect(beam_splitter(prepare_bell("psi_minus")))
        assert abs(dist.p_coincidence - 1.0) < 1e-10

    def test_phi_minus_bunches(self):
        dist = detect(beam_splitter(prepare_bell("phi_minus")))
        assert dist.p_coincidence < 1e-10
        assert abs(dist.p_bunch_port1 + dist.p_bunch_port2 - 1.0) < 1e-10

    def test_balanced_superposition(self):
        state = OpticalState.from_amplitudes(
            {(0, 3): 0.5, (1, 2): -0.5, (0, 2): 0.5, (1, 3): -0.5})
        dist = detect(beam_splitter(state))
        assert abs(dist.p_coincidence - 0.5) < 1e-10

    def test_distribution_normalized(self, rng):
        for _ in range(20):
            dist = detect(random_optical_state(rng))
            vector = dist.as_vector()
            assert vector.min() >= -1e-12
            assert abs(vector.sum() - 1.0) < 1e-10

    def test_invalid_distribution_rejected(self):
        with pytest.raises(ValueError):
            DetectionDistribution(0.5, 0.5, 0.5)

    def test_nan_distribution_rejected(self):
        with pytest.raises(ValueError, match="not a probability vector"):
            DetectionDistribution(float("nan"), 0.0, 1.0)


class TestDualRailEquivalence:
    def test_psi_minus_matches_two_qubit_singlet(self):
        singlet = StateVector.normalized([0.0, 1.0, -1.0, 0.0])
        assert abs(abs(lift_two_qubit(singlet).overlap(prepare_bell("psi_minus"))) - 1.0) < 1e-12

    def test_coincidence_equals_antisymmetric_probability(self, rng):
        singlet = StateVector.normalized([0.0, 1.0, -1.0, 0.0])
        for _ in range(100):
            psi = random_state_vector(rng, 4)
            p = detect(beam_splitter(lift_two_qubit(psi))).p_coincidence
            assert abs(p - abs(singlet.overlap(psi)) ** 2) < 1e-10

    def test_rejects_wrong_dimension(self, rng):
        with pytest.raises(ValueError):
            lift_two_qubit(random_state_vector(rng, 8))


class TestFrameInvariance:
    def test_detection_unchanged_by_common_rotation(self, rng):
        for which in ("psi_minus", "phi_minus"):
            state = prepare_bell(which)
            reference = detect(beam_splitter(state)).as_vector()
            for _ in range(50):
                rotated = polarization_rotation(state, haar_random_su2(rng))
                observed = detect(beam_splitter(rotated)).as_vector()
                assert np.abs(observed - reference).max() < 1e-10


class TestBeamSplitterConvention:
    def test_coincidence_statistics_are_convention_independent(self):
        # the symmetric 50/50 convention with i phases gives the same
        # coincidence probabilities as the real Hadamard convention
        alternative = np.kron(np.array([[1.0, 1.0j], [1.0j, 1.0]]) / SQRT2, np.eye(2))
        for which in ("psi_minus", "phi_minus"):
            state = prepare_bell(which)
            ours = detect(beam_splitter(state))
            theirs = detect(apply_mode_transform(state, alternative))
            assert abs(ours.p_coincidence - theirs.p_coincidence) < 1e-12
            assert abs((ours.p_bunch_port1 + ours.p_bunch_port2)
                       - (theirs.p_bunch_port1 + theirs.p_bunch_port2)) < 1e-12


class TestProtocol:
    def test_single_trial_identity_fiber(self, rng):
        result = run_optical_protocol(0, GroupElement.identity(), 1, rng)
        assert result.counts == {"coincidence": 1, "bunch1": 0, "bunch2": 0}
        assert result.error_rate == 0.0

    @pytest.mark.parametrize("bit", [0, 1])
    def test_thousand_trials_random_fiber(self, rng, bit):
        result = run_optical_protocol(bit, haar_random_su2(rng), 1000, rng)
        assert result.error_rate == 0.0
        assert sum(result.counts.values()) == 1000

    def test_json_payload_schema(self, rng):
        result = run_optical_protocol(1, haar_random_su2(rng), 10, rng)
        payload = asdict(result)
        assert set(payload) == {"bit", "trials", "counts", "error_rate"}
        assert set(payload["counts"]) == {"coincidence", "bunch1", "bunch2"}

    @pytest.mark.parametrize("bit", [0, 1])
    def test_numpy_integer_arguments_give_python_numbers(self, bit):
        result = run_optical_protocol(np.int64(bit), GroupElement.identity(), np.int64(3),
                                      RandomSource(1))
        assert type(result.bit) is int and type(result.trials) is int
        assert type(result.error_rate) is float
        assert all(type(c) is int for c in result.counts.values())
        assert json.loads(json.dumps(asdict(result))) == {
            "bit": bit, "trials": 3, "counts": result.counts, "error_rate": 0.0}

    @pytest.mark.parametrize("trials", [1, 100, 70_000])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_counts_are_one_multinomial_draw(self, bit, trials):
        fiber = haar_random_su2(RandomSource(11))
        ours, oracle = RandomSource(3), RandomSource(3)
        result = run_optical_protocol(bit, fiber, trials, ours)

        state = prepare_bell("psi_minus" if bit == 0 else "phi_minus")
        outcome_probs = detect(beam_splitter(polarization_rotation(state, fiber))).as_vector()
        expected = oracle.generator.multinomial(trials, outcome_probs / outcome_probs.sum())
        assert list(result.counts.values()) == expected.tolist()
        errors = expected[0] if bit else trials - expected[0]
        assert result.error_rate == errors / trials == 0.0
        assert ours.normal() == oracle.normal()  # both streams end at the same position

    def test_any_trial_count_costs_one_draw(self, rng):
        trials = 10 ** 15
        result = run_optical_protocol(1, haar_random_su2(rng), trials, rng)
        assert sum(result.counts.values()) == trials
        assert result.counts["coincidence"] == 0 and result.error_rate == 0.0

    @pytest.mark.parametrize("bit", [2, -1, True, False, 1.0, np.float64(0.0), "1", None])
    def test_rejects_bad_bit(self, rng, bit):
        with pytest.raises(ValueError, match="bit must be 0 or 1"):
            run_optical_protocol(bit, GroupElement.identity(), 1, rng)

    def test_a_numpy_integer_bit_is_a_bit(self):
        ours, theirs = (run_optical_protocol(bit, GroupElement.identity(), 5, RandomSource(2))
                        for bit in (np.int64(1), 1))
        assert ours == theirs
