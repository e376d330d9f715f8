import numpy as np
import pytest

from collapsewalk import (
    AllZeroError,
    JointState,
    QuantumState,
    TooFewStatesError,
    form_joint,
    normalize,
    parse_amplitudes,
)


def test_normalize_keeps_unit_vector():
    state = normalize([1.0, 0.0])
    assert np.allclose(state.amplitudes, [1.0, 0.0])


def test_normalize_equal_pair():
    state = normalize([1.0, 1.0])
    assert np.allclose(state.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_normalize_complex_entries():
    state = normalize([3.0, 4.0j])
    assert np.allclose(state.amplitudes, [0.6, 0.8j])


def test_normalize_rejects_zero_vector():
    with pytest.raises(AllZeroError):
        normalize([0.0, 0.0, 0.0])
    with pytest.raises(AllZeroError):
        normalize([1e-310, 1e-312])


def test_normalize_rejects_nonfinite_and_scales_huge_entries():
    """A nan or infinite entry is refused, not carried into nan weights; huge
    finite entries, whose squares overflow, still normalize."""
    for raw in ([np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]):
        with pytest.raises(ValueError, match="finite"):
            normalize(raw)
    with np.errstate(all="raise"):
        state = normalize([1e200, 1e200j])
    assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5 * 1j], rtol=0.0, atol=1e-15)


def test_normalize_rejects_single_entry():
    with pytest.raises(TooFewStatesError):
        normalize([1.0])


def test_normalize_random_vectors_unit_norm():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        raw = rng.normal(size=n) + 1j * rng.normal(size=n)
        state = normalize(raw)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_quantum_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        QuantumState(np.array([1.0, 1.0]))


def test_form_joint_symmetric_pair():
    joint = form_joint(normalize([1.0, 1.0]))
    assert np.allclose(joint.weights, [0.5, 0.5])
    assert abs(joint.cross[0, 1] - 0.5) < 1e-12
    assert joint.alive.all()


def test_form_joint_squares_amplitudes():
    joint = form_joint(normalize([0.6, 0.8j]))
    assert np.allclose(joint.weights, [0.36, 0.64])
    assert abs(abs(joint.cross[0, 1]) - 0.48) < 1e-12


def test_form_joint_diagonal_is_squared_magnitudes():
    rng = np.random.default_rng(3)
    for _ in range(10):
        state = normalize(rng.normal(size=4) + 1j * rng.normal(size=4))
        joint = form_joint(state)
        assert abs(joint.weights.sum() - 1.0) < 1e-12
        assert np.allclose(joint.weights, np.abs(state.amplitudes) ** 2)
        # |kappa_ij|^2 = w_i w_j off the diagonal at construction
        mag2 = np.abs(joint.cross) ** 2
        expect = np.outer(joint.weights, joint.weights)
        off = ~np.eye(4, dtype=bool)
        assert np.allclose(mag2[off], expect[off], atol=1e-12)


def test_form_joint_global_phase_invariance():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=3) + 1j * rng.normal(size=3)
    base = form_joint(normalize(raw))
    shifted = form_joint(normalize(raw * np.exp(1j * 0.7321)))
    assert np.allclose(base.weights, shifted.weights, atol=1e-14)
    assert np.allclose(np.abs(base.cross), np.abs(shifted.cross), atol=1e-13)


def test_joint_state_validation():
    good = form_joint(normalize([1.0, 1.0]))
    with pytest.raises(ValueError):
        JointState(np.array([0.6, 0.6]), good.cross, good.alive)
    bad_cross = np.array([[0.0, 0.5], [0.4, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        JointState(good.weights, bad_cross, good.alive)
    # dead state carrying weight
    with pytest.raises(ValueError):
        JointState(good.weights, good.cross, np.array([True, False]))


def test_joint_state_dead_rows_must_be_zero():
    weights = np.array([1.0, 0.0])
    cross = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        JointState(weights, cross, np.array([True, False]))
    clean = JointState(weights, np.zeros((2, 2), complex), np.array([True, False]))
    assert clean.weights[1] == 0.0


def test_parse_amplitudes_round_trip():
    raw = parse_amplitudes("0.6,0;0,0.8")
    assert np.allclose(raw, [0.6, 0.8j])
    assert np.allclose(parse_amplitudes(" 1,0 ; 0,-1 "), [1.0, -1.0j])


def test_parse_amplitudes_rejects_garbage():
    for text in ("", "1;2", "1,2;x,0", "1"):
        with pytest.raises(ValueError):
            parse_amplitudes(text)
