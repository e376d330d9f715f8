import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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


def test_normalize_tiny_entries_whose_squares_underflow():
    """|a_i|^2 underflows to zero at 1e-200, but the vector is not zero."""
    with np.errstate(all="raise"):
        state = normalize([1e-200, 1e-200])
    assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5], rtol=0.0, atol=1e-15)
    assert np.allclose(state.weights(), [0.5, 0.5], rtol=0.0, atol=1e-15)


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


def test_quantum_state_rejects_nonfinite_amplitudes():
    """A nan norm fails the normalization test instead of passing it."""
    for raw in ([np.nan, 1.0], [1.0, complex(np.nan, 0.0)], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="not normalized"):
            QuantumState(np.array(raw))


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


def test_joint_state_rejects_nonfinite_weights():
    with pytest.raises(ValueError, match="finite"):
        JointState(weights=[np.nan, np.nan], cross=np.zeros((2, 2)), alive=[True, True])
    with pytest.raises(ValueError, match="finite"):
        JointState(weights=[np.inf, 1.0], cross=np.zeros((2, 2)), alive=[True, True])


def test_joint_state_rejects_nonfinite_cross_terms():
    """Even on the unused diagonal, where no other check looks."""
    good = form_joint(normalize([1.0, 1.0]))
    for bad in (np.inf, complex(0.0, -np.inf), np.nan):
        cross = good.cross.copy()
        cross[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            JointState(good.weights, cross, good.alive)
    cross = good.cross.copy()
    cross[0, 1] = cross[1, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        JointState(good.weights, cross, good.alive)


@pytest.mark.parametrize("entry", [1e308j, 1e308 + 1e308j])
def test_joint_state_refuses_huge_cross_terms_quietly(entry):
    """A finite cross term whose residual overflows is refused as not
    Hermitian, with no overflow warning on the way."""
    good = form_joint(normalize([1.0, 1.0]))
    cross = good.cross.copy()
    cross[0, 0] = entry
    with pytest.raises(ValueError, match="Hermitian"):
        JointState(good.weights, cross, good.alive)


def reference_verdict(weights, cross, alive):
    """The original JointState validator, check for check, as the oracle:
    None when it accepts, else (exception type, message)."""
    w = np.array(weights, dtype=np.float64)
    k = np.array(cross, dtype=np.complex128)
    al = np.array(alive, dtype=bool)
    n = w.size
    if w.ndim != 1 or n < 2:
        return TooFewStatesError, "need at least 2 states"
    if k.shape != (n, n) or al.shape != (n,):
        return ValueError, "weights, cross and alive have inconsistent shapes"
    if np.any(w < 0):
        return ValueError, "weights must be nonnegative"
    if abs(w.sum() - 1.0) > 1e-12:
        return ValueError, f"weights must sum to 1, got {w.sum()!r}"
    if not np.allclose(k, k.conj().T, rtol=0.0, atol=1e-12):
        return ValueError, "cross terms must be Hermitian"
    mag = np.sqrt(np.outer(w, w))
    both_alive = np.outer(al, al)
    off = ~np.eye(n, dtype=bool)
    bad = np.abs(np.abs(k) - mag)[both_alive & off]
    if bad.size and bad.max() > 1e-12:
        return ValueError, "|cross_ij| must equal sqrt(w_i w_j) for alive pairs"
    dead = ~al
    if np.any(w[dead] != 0.0):
        return ValueError, "dead states must carry zero weight"
    if np.any(k[dead, :] != 0) or np.any(k[:, dead] != 0):
        return ValueError, "dead states must have zero cross terms"
    return None


CORRUPTIONS = (None, "negative", "sum", "hermitian", "magnitude", "dead weight", "dead cross")
# sizes on both sides of the 1e-12 tolerance, and far beyond it
SIZES = (3e-13, 9e-13, 1.1e-12, 3e-12, 1e-9, 1e-3, 0.5)


@st.composite
def joint_inputs(draw, n=None):
    """A valid (weights, cross, alive) of n states (by default 2 to 6), then
    at most one corruption."""
    n = draw(st.integers(2, 6)) if n is None else n
    alive = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    alive[draw(st.integers(0, n - 1))] = True
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
    raw = np.where(alive, raw, 0.0)
    assume(raw.sum() > 0)
    w = raw / raw.sum()
    phases = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)))
    a = np.sqrt(w) * np.exp(1j * phases)
    cross = np.outer(a, a.conj())
    diag = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    np.fill_diagonal(cross, np.where(alive, diag, 0.0) * draw(st.booleans()))
    kind = draw(st.sampled_from(CORRUPTIONS))
    size = draw(st.sampled_from(SIZES))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, n - 1).filter(lambda j: j != i))
    dead = np.flatnonzero(~alive)
    if kind == "negative":
        w[i] = -size
    elif kind == "sum":
        w[i] += size * draw(st.sampled_from((-1.0, 1.0)))
    elif kind == "hermitian":
        j = draw(st.sampled_from((i, j)))
        cross[i, j] += size * np.exp(1j * draw(st.floats(-4.0, 4.0)))
    elif kind == "magnitude":
        live = np.flatnonzero(alive).tolist()
        assume(len(live) >= 2)
        i, j = draw(st.permutations(live))[:2]
        cross[i, j] *= 1.0 + size
        cross[j, i] = np.conj(cross[i, j])
    elif kind is not None:
        assume(dead.size)
        i = draw(st.sampled_from(dead.tolist()))
        if kind == "dead weight":
            w[i] = size
        else:
            cross[i, j] = size
            cross[j, i] = size
    return w, cross, alive


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(inputs=joint_inputs())
def test_joint_state_verdicts_match_reference_validator(inputs):
    """Same exception type and message as the original validator on valid
    states and on each single corruption; accepted states keep their
    values."""
    expect = reference_verdict(*inputs)
    try:
        joint = JointState(*inputs)
    except (ValueError, TooFewStatesError) as exc:
        assert (type(exc), str(exc)) == expect
        return
    assert expect is None
    for got, raw in zip((joint.weights, joint.cross, joint.alive), inputs):
        assert np.array_equal(got, raw)


def test_parse_amplitudes_round_trip():
    raw = parse_amplitudes("0.6,0;0,0.8")
    assert np.allclose(raw, [0.6, 0.8j])
    assert np.allclose(parse_amplitudes(" 1,0 ; 0,-1 "), [1.0, -1.0j])


def test_parse_amplitudes_rejects_garbage():
    for text in ("", "1;2", "1,2;x,0", "1"):
        with pytest.raises(ValueError):
            parse_amplitudes(text)
