import numpy as np
import pytest

from dickesim import (
    Convention,
    DickeSpace,
    GateConventions,
    PulseSequence,
    PulseStep,
    QuantumState,
    apply_sequence,
    build_sx,
    build_sy,
    build_sz,
    flatten_params,
    unflatten_params,
)
from dickesim.cli import _sweep_combos
from oracle import rotation_from_turns, squeeze_pair_unitary, step_unitary


def unitarity_defect(u):
    d = u.shape[0]
    return np.max(np.abs(u.conj().T @ u - np.eye(d)))


def test_rotation_zero_angle_is_identity():
    u = rotation_from_turns(DickeSpace(5), (0, 0, 0.0))
    assert np.allclose(u, np.eye(6), atol=1e-14)


def test_rotation_z_axis_diagonal():
    theta = 0.83
    u = rotation_from_turns(DickeSpace(2), (0, 0, theta))
    expected = np.diag([np.exp(-1j * theta), 1.0, np.exp(1j * theta)])
    assert np.allclose(u, expected, atol=1e-12)


def test_rotation_pi_about_y_flips_ground():
    # independent oracle at N=2: truncated matrix exponential series
    space = DickeSpace(2)
    gen = 1j * np.pi * build_sy(space)
    series, term = np.eye(3, dtype=complex), np.eye(3, dtype=complex)
    for k in range(1, 60):
        term = term @ gen / k
        series = series + term
    u = rotation_from_turns(space, (0, np.pi, 0))
    assert np.allclose(u, series, atol=1e-12)
    for n in (3, 17):
        space = DickeSpace(n)
        u = rotation_from_turns(space, (0, np.pi, 0))
        final = u @ QuantumState.ground(space).amplitudes
        assert abs(final[n]) == pytest.approx(1.0, abs=1e-10)


def test_rotation_rejects_zero_axis():
    with pytest.raises(ValueError):
        PulseStep((0, 0, 0), 1.0, 0.0, 0.0)


def test_squeeze_zero_strength_is_identity():
    space = DickeSpace(7)
    assert np.allclose(squeeze_pair_unitary(space, 0.0, 0.0), np.eye(8), atol=1e-14)


def test_single_qubit_squeeze_is_global_phase():
    space = DickeSpace(1)
    alpha = 0.9
    u = squeeze_pair_unitary(space, alpha, 0.0)
    assert np.allclose(u, np.exp(1j * alpha / 4) * np.eye(2), atol=1e-12)


def test_squeeze_commutation_by_direct_computation():
    # direct small-matrix oracle: at N=2 (spin 1) the two squeezes happen to
    # commute exactly; genuine non-commutation starts at N=3
    space = DickeSpace(2)
    ux, uy = squeeze_pair_unitary(space, 0.5, 0.0), squeeze_pair_unitary(space, 0.0, 0.5)
    assert np.max(np.abs(ux @ uy - uy @ ux)) < 1e-14
    space = DickeSpace(3)
    ux, uy = squeeze_pair_unitary(space, 0.5, 0.0), squeeze_pair_unitary(space, 0.0, 0.5)
    assert np.max(np.abs(ux @ uy - uy @ ux)) > 1e-3


def test_step_all_zero_is_identity():
    space = DickeSpace(6)
    step = PulseStep((0, 0, 1), 0.0, 0.0, 0.0)
    assert np.allclose(step_unitary(step, space), np.eye(7), atol=1e-13)


def test_step_reduces_to_rotation_without_squeeze():
    space = DickeSpace(5)
    step = PulseStep((0.3, -0.5, 0.8), 1.2, 0.0, 0.0)
    u = step_unitary(step, space)
    r = rotation_from_turns(space, step.turns)
    assert np.allclose(u, r, atol=1e-13)


def test_step_reduces_to_squeezes_without_rotation():
    space = DickeSpace(5)
    step = PulseStep((0, 0, 1), 0.0, 0.4, -0.7)
    u = step_unitary(step, space)
    expected = squeeze_pair_unitary(space, 0.0, -0.7) @ squeeze_pair_unitary(space, 0.4, 0.0)
    assert np.allclose(u, expected, atol=1e-13)


def test_squeeze_order_flag():
    space = DickeSpace(4)
    xy = squeeze_pair_unitary(space, 0.5, 0.8, GateConventions(squeeze_order="xy"))
    yx = squeeze_pair_unitary(space, 0.5, 0.8, GateConventions(squeeze_order="yx"))
    ux, uy = squeeze_pair_unitary(space, 0.5, 0.0), squeeze_pair_unitary(space, 0.0, 0.8)
    assert np.allclose(xy, uy @ ux, atol=1e-13)
    assert np.allclose(yx, ux @ uy, atol=1e-13)
    assert np.max(np.abs(xy - yx)) > 1e-4


def test_combined_squeeze_composition():
    space = DickeSpace(4)
    conv = GateConventions(squeeze_composition="combined")
    u = squeeze_pair_unitary(space, 0.5, 0.8, conv)
    sx, sy = build_sx(space), build_sy(space)
    w, v = np.linalg.eigh(0.5 * sx @ sx + 0.8 * sy @ sy)
    expected = (v * np.exp(1j * w)) @ v.conj().T
    assert np.allclose(u, expected, atol=1e-12)


def test_exponent_sign_flag_conjugates_each_factor():
    space = DickeSpace(4)
    turns = 0.9 * np.array([0.6, 0.0, 0.8])
    rot_p = rotation_from_turns(space, turns, GateConventions(exponent_sign=1))
    rot_m = rotation_from_turns(space, turns, GateConventions(exponent_sign=-1))
    assert np.allclose(rot_m, rot_p.conj().T, atol=1e-12)
    sq_p = squeeze_pair_unitary(space, 0.7, 0.0, GateConventions(exponent_sign=1))
    sq_m = squeeze_pair_unitary(space, 0.7, 0.0, GateConventions(exponent_sign=-1))
    assert np.allclose(sq_m, sq_p.conj().T, atol=1e-12)


def test_rotation_composition_modes():
    space = DickeSpace(4)
    turns = np.array([0.4, -0.2, 0.9])
    combined = rotation_from_turns(space, turns, GateConventions())
    product = rotation_from_turns(space, turns,
                                  GateConventions(rotation_composition="product"))
    sx, sy, sz = (b(space) for b in (build_sx, build_sy, build_sz))

    def expm_series(gen):
        out, term = np.eye(5, dtype=complex), np.eye(5, dtype=complex)
        for k in range(1, 80):
            term = term @ gen / k
            out = out + term
        return out

    assert np.allclose(combined,
                       expm_series(1j * (0.4 * sx - 0.2 * sy + 0.9 * sz)), atol=1e-12)
    assert np.allclose(product,
                       expm_series(1j * 0.9 * sz) @ expm_series(-1j * 0.2 * sy)
                       @ expm_series(1j * 0.4 * sx), atol=1e-12)
    assert np.max(np.abs(combined - product)) > 1e-3
    # single-axis rotations agree between the two compositions
    one_axis = np.array([0.0, 0.7, 0.0])
    assert np.allclose(
        rotation_from_turns(space, one_axis),
        rotation_from_turns(space, one_axis,
                            GateConventions(rotation_composition="product")),
        atol=1e-12)


def test_apply_sequence_empty_is_identity():
    space = DickeSpace(5)
    seq = PulseSequence.identity(space)
    st = QuantumState.basis_state(space, 2)
    out = apply_sequence(seq, st)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-12)


def test_apply_sequence_pi_y_step():
    space = DickeSpace(6)
    seq = PulseSequence(space, (PulseStep((0, 1, 0), np.pi, 0.0, 0.0),), (0, 0, 1), 0.0)
    out = apply_sequence(seq, QuantumState.ground(space))
    assert abs(out.amplitudes[6]) == pytest.approx(1.0, abs=1e-10)


def test_identity_step_insertion_leaves_output_unchanged():
    rng = np.random.default_rng(5)
    space = DickeSpace(4)
    params = rng.uniform(-np.pi, np.pi, 13)  # two steps
    seq = unflatten_params(space, 2, params)
    base = apply_sequence(seq, QuantumState.ground(space)).amplitudes
    for pos in range(3):
        grown = np.insert(params, 5 * pos, np.zeros(5))
        seq_g = unflatten_params(space, 3, grown)
        out = apply_sequence(seq_g, QuantumState.ground(space)).amplitudes
        assert np.max(np.abs(out - base)) < 1e-12


def test_flatten_length_and_roundtrip():
    rng = np.random.default_rng(9)
    space = DickeSpace(5)
    params = rng.uniform(-np.pi, np.pi, 13)
    seq = unflatten_params(space, 2, params)
    assert seq.n_params == 13
    flat = flatten_params(seq)
    seq2 = unflatten_params(space, 2, flat)
    for st1, st2 in zip(seq.steps, seq2.steps):
        u1 = step_unitary(st1, space)
        u2 = step_unitary(st2, space)
        assert np.max(np.abs(u1 - u2)) < 1e-12
    f1 = rotation_from_turns(space, seq.final_turns)
    f2 = rotation_from_turns(space, seq2.final_turns)
    assert np.max(np.abs(f1 - f2)) < 1e-12


def test_all_zero_vector_is_identity_sequence():
    space = DickeSpace(4)
    seq = unflatten_params(space, 3, np.zeros(18))
    st = QuantumState.basis_state(space, 1)
    out = apply_sequence(seq, st)
    assert np.allclose(out.amplitudes, st.amplitudes, atol=1e-13)


def test_unflatten_rejects_wrong_length():
    with pytest.raises(ValueError):
        unflatten_params(DickeSpace(4), 2, np.zeros(12))


@pytest.mark.parametrize("squeeze_comp", ["product", "combined"])
@pytest.mark.parametrize("rot_comp", ["combined", "product"])
def test_unitarity_of_random_steps(squeeze_comp, rot_comp):
    rng = np.random.default_rng(21)
    space = DickeSpace(9)
    conv = GateConventions(squeeze_composition=squeeze_comp,
                           rotation_composition=rot_comp)
    for _ in range(5):
        axis = rng.normal(size=3)
        step = PulseStep(axis / np.linalg.norm(axis), rng.uniform(-np.pi, np.pi),
                         rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi))
        assert unitarity_defect(step_unitary(step, space, conv)) < 1e-10


def test_pulse_step_normalizes_axis():
    step = PulseStep((3.0, 0.0, 4.0), 1.0, 0.0, 0.0)
    assert step.axis == (3.0, 0.0, 4.0)
    assert np.linalg.norm(step.turns) == pytest.approx(1.0, abs=1e-9)
    assert step.turns[0] == pytest.approx(0.6)
    seq = PulseSequence(DickeSpace(2), (step,), (0.0, 6.0, 8.0), 2.0)
    assert seq.final_axis == (0.0, 6.0, 8.0)
    assert np.allclose(seq.final_turns, [0.0, 1.2, 1.6], rtol=0, atol=1e-15)


def test_conventions_dict_roundtrip():
    combos = list(_sweep_combos())
    assert len(set(combos)) == 24
    for conv in combos:
        doc = conv.to_dict()
        assert list(doc) == ["convention", "exponent_sign", "squeeze_order",
                             "squeeze_composition", "rotation_composition"]
        assert doc["convention"] == conv.convention.value
        assert GateConventions.from_dict(doc) == conv
    assert GateConventions.from_dict({}) == GateConventions()
    assert GateConventions(convention="pauli-sum").convention is Convention.PAULI_SUM
    with pytest.raises(ValueError, match="^convention: "):
        GateConventions.from_dict({"convention": "spin-half"})
