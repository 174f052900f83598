"""Tests for the reservoir architectures.

The count-chain engine is validated against exact finite-state chain
oracles built locally in this file (including noisy and no-reset
variants), and the literal per-trajectory path is cross-checked against
the same oracles.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbqrc.errors import ConfigError, NumericError
from fbqrc.metrics import esp_divergence
from fbqrc.oracle import exact_feature_series_markov, transition_kernel
from fbqrc.qsim import (
    NoiseSpec,
    RngStream,
    StateVector,
    all_strings,
    apply_gate,
    apply_r_gate,
    haar_random_unitary,
    string_to_index,
)
from fbqrc.reservoirs import (
    EsnConfig,
    FeatureSeries,
    FeedbackDrivenConfig,
    McmBaselineConfig,
    ProposedModelConfig,
    _count_chain,
    _cycle_kernels,
    _input_gates,
    _r_gate_full,
    _run_mcm,
    model_unitary,
    renormalize_spectral_radius,
    run_esn,
    run_feedback_driven_baseline,
    run_mcm_baseline,
    run_proposed_cycle,
    run_proposed_model,
)
from fbqrc.tasks import gen_uniform

STRINGS2 = all_strings(2).astype(float)


def chain_features(kernels, z_signs):
    """Exact outcome-string chain expectations from per-step kernels."""
    pi = np.full(kernels[0].shape[0], 1.0 / kernels[0].shape[0])
    rows = []
    for k in kernels:
        pi = pi @ k
        rows.append(pi @ z_signs)
    return np.array(rows)


def flip_matrix(n, lam):
    """Measurement-marginal of per-qubit depolarizing noise: independent
    outcome bit flips with probability lam/2."""
    dim = 2**n
    f = np.empty((dim, dim))
    for a in range(dim):
        for b in range(dim):
            differing = bin(a ^ b).count("1")
            f[a, b] = (lam / 2) ** differing * (1 - lam / 2) ** (n - differing)
    return f


def assert_within_sigma(measured, exact, shots, z=4.0, frac=1.0):
    sigma = np.sqrt(np.maximum(1.0 - exact**2, 1e-30) / shots)
    dev = np.abs(measured - exact) / sigma
    assert np.mean(dev <= z) >= frac, f"max standardized deviation {dev.max():.2f}"


# ---------------------------------------------------------------------------
# Single cycle
# ---------------------------------------------------------------------------

def test_cycle_trivial_config_always_all_plus():
    cfg = ProposedModelConfig(n_qubits=2, a_in=0.0, a_fb=0.0, shots=1)
    stream = RngStream(1)
    for _ in range(20):
        m, state = run_proposed_cycle(StateVector.zero(2), 0.3, np.array([1, -1]), cfg, np.eye(4), stream)
        assert np.array_equal(m, [1, 1])
        assert np.allclose(state.amplitudes, [1, 0, 0, 0])


def test_cycle_reset_contract():
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=1)
    u = haar_random_unitary(4, RngStream(2))
    stream = RngStream(3)
    _, state = run_proposed_cycle(StateVector.zero(2), 0.7, np.array([-1, 1]), cfg, u, stream)
    assert np.allclose(state.amplitudes, [1, 0, 0, 0])

    no_reset = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=1, reset_after_measurement=False)
    m, state = run_proposed_cycle(StateVector.zero(2), 0.7, np.array([-1, 1]), no_reset, u, stream)
    assert abs(abs(state.amplitudes[string_to_index(m)]) - 1.0) < 1e-12


def test_cycle_rejects_wrong_feedback_length():
    cfg = ProposedModelConfig(n_qubits=2, shots=1)
    with pytest.raises(ValueError):
        run_proposed_cycle(StateVector.zero(2), 0.5, np.array([1, 1, 1]), cfg, np.eye(4), RngStream(0))


def test_cycle_noise_preserves_norm():
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.0, shots=1, noise=NoiseSpec(0.3, True))
    u = haar_random_unitary(4, RngStream(4))
    stream = RngStream(5)
    for _ in range(30):
        _, state = run_proposed_cycle(StateVector.zero(2), 0.5, np.array([1, 1]), cfg, u, stream)
        assert abs(state.norm() - 1.0) < 1e-10


# ---------------------------------------------------------------------------
# Proposed model, grouped engine vs oracles
# ---------------------------------------------------------------------------

def test_model_trivial_config_is_all_ones():
    cfg = ProposedModelConfig(n_qubits=2, a_in=0.0, a_fb=0.0, shots=200)
    inputs = np.array([0.2, 0.9, 0.5])
    for method in ("grouped", "per_shot"):
        feats = run_proposed_model(cfg, inputs, RngStream(6), u_haar=np.eye(4), method=method)
        assert np.array_equal(feats.values, np.ones((3, 2)))


def test_model_matches_markov_oracle():
    """Shot means within 4 sigma of the exact chain over a 10-step input."""
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=20_000)
    u = haar_random_unitary(4, RngStream(7))
    inputs = gen_uniform(10, RngStream(8))
    feats = run_proposed_model(cfg, inputs, RngStream(9), u_haar=u)
    exact = exact_feature_series_markov(cfg, inputs, u_haar=u)
    assert_within_sigma(feats.values, exact.values, cfg.shots)


def test_per_shot_path_matches_markov_oracle():
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=2500)
    u = haar_random_unitary(4, RngStream(10))
    inputs = gen_uniform(6, RngStream(11))
    feats = run_proposed_model(cfg, inputs, RngStream(12), u_haar=u, method="per_shot")
    exact = exact_feature_series_markov(cfg, inputs, u_haar=u)
    assert_within_sigma(feats.values, exact.values, cfg.shots)


def test_model_bit_identical_reruns_and_range():
    cfg = ProposedModelConfig(n_qubits=3, a_in=1.5, a_fb=2.0, shots=500)
    inputs = gen_uniform(8, RngStream(13))
    a = run_proposed_model(cfg, inputs, RngStream(14))
    b = run_proposed_model(cfg, inputs, RngStream(14))
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (8, 3)
    assert np.all((a.values >= -1) & (a.values <= 1))


def test_model_haar_initial_state_matches_oracle():
    cfg = ProposedModelConfig(
        n_qubits=2, a_in=1.0, a_fb=1.6, shots=20_000, initial_state="haar_random_pure"
    )
    u = haar_random_unitary(4, RngStream(15))
    inputs = np.array([0.3, 0.8, 0.1])
    rng = RngStream(16)
    # replicate the model's internal initial-state derivation
    psi0 = StateVector.haar_random(2, rng.child("init"))
    feats = run_proposed_model(cfg, inputs, RngStream(16), u_haar=u)
    exact = exact_feature_series_markov(cfg, inputs, u_haar=u, initial=psi0)
    assert_within_sigma(feats.values, exact.values, cfg.shots)


def no_reset_kernels(a_in, a_fb, u, inputs):
    """Noiseless no-reset trajectories are still a finite-state chain: the
    register entering a cycle is the previous outcome's basis state."""

    def cycle_state(s, m, start):
        st = StateVector(2, start.copy())
        st = apply_r_gate(st, a_in * s, 0, 1)
        st = apply_r_gate(st, a_fb * m[0], 0, 1)
        st = apply_r_gate(st, a_fb * m[1], 1, 0)
        return apply_gate(st, u, (0, 1)).probabilities()

    e = np.eye(4, dtype=complex)
    kernels = []
    for k, s in enumerate(inputs):
        kern = np.empty((4, 4))
        for mi, m in enumerate(all_strings(2)):
            start = e[0] if k == 0 else e[mi]
            kern[mi] = cycle_state(float(s), m, start)
        kernels.append(kern)
    return kernels


def test_no_reset_model_matches_local_chain_oracle():
    a_in, a_fb = 1.0, 1.6
    cfg = ProposedModelConfig(
        n_qubits=2, a_in=a_in, a_fb=a_fb, shots=20_000, reset_after_measurement=False
    )
    u = haar_random_unitary(4, RngStream(17))
    inputs = np.array([0.4, 0.7, 0.2, 0.9])
    exact = chain_features(no_reset_kernels(a_in, a_fb, u, inputs), STRINGS2)

    feats = run_proposed_model(cfg, inputs, RngStream(18), u_haar=u)
    assert_within_sigma(feats.values, exact, cfg.shots)


def test_noisy_model_matches_flip_composed_kernel():
    """Depolarizing noise before measurement marginalizes to independent
    outcome bit flips; composing the noiseless kernel with the flip matrix
    gives the exact noisy chain."""
    lam = 0.12
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=40_000, noise=NoiseSpec(lam, True))
    clean = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=1)
    u = haar_random_unitary(4, RngStream(19))
    inputs = np.array([0.3, 0.6, 0.9, 0.1])
    flips = flip_matrix(2, lam)
    kernels = [transition_kernel(float(s), clean, u) @ flips for s in inputs]
    exact = chain_features(kernels, STRINGS2)

    feats = run_proposed_model(cfg, inputs, RngStream(20), u_haar=u)
    assert_within_sigma(feats.values, exact, cfg.shots)


def test_noisy_per_shot_path_matches_flip_composed_kernel():
    """The literal path realizes noise as Pauli draws; same marginal chain."""
    lam = 0.2
    cfg = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=3000, noise=NoiseSpec(lam, True))
    clean = ProposedModelConfig(n_qubits=2, a_in=1.0, a_fb=1.3, shots=1)
    u = haar_random_unitary(4, RngStream(21))
    inputs = np.array([0.5, 0.25, 0.75])
    kernels = [transition_kernel(float(s), clean, u) @ flip_matrix(2, lam) for s in inputs]
    exact = chain_features(kernels, STRINGS2)

    feats = run_proposed_model(cfg, inputs, RngStream(22), u_haar=u, method="per_shot")
    assert_within_sigma(feats.values, exact, cfg.shots)


@pytest.mark.parametrize("method,shots", [("grouped", 40_000), ("per_shot", 2000)])
def test_noisy_no_reset_model_matches_flip_composed_local_chain(method, shots):
    """Without resets the next cycle starts in the basis state of the noisy
    outcome, so the exact chain is the no-reset kernel times the flip matrix."""
    a_in, a_fb, lam = 1.0, 1.6, 0.15
    cfg = ProposedModelConfig(
        n_qubits=2, a_in=a_in, a_fb=a_fb, shots=shots, noise=NoiseSpec(lam, True),
        reset_after_measurement=False,
    )
    u = haar_random_unitary(4, RngStream(45))
    inputs = np.array([0.35, 0.8, 0.05, 0.6])
    flips = flip_matrix(2, lam)
    exact = chain_features([k @ flips for k in no_reset_kernels(a_in, a_fb, u, inputs)], STRINGS2)

    feats = run_proposed_model(cfg, inputs, RngStream(46), u_haar=u, method=method)
    assert_within_sigma(feats.values, exact, cfg.shots)


# ---------------------------------------------------------------------------
# Count-chain engine internals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_input_gate_stack_matches_cached_embedding(n):
    thetas = np.array([0.0, 0.37, -0.37, 1.9, -2.6, 3.0])
    stack = _input_gates(thetas, n)
    assert stack.shape == (len(thetas), 2**n, 2**n)
    for theta, gate in zip(thetas, stack):
        assert np.allclose(gate, _r_gate_full(float(theta), 0, 1, n), atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 3),
    a_in=st.floats(-3.0, 3.0),
    a_fb=st.floats(-3.0, 3.0),
    reset=st.booleans(),
    lam=st.one_of(st.none(), st.floats(0.0, 0.9)),
    inputs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    shots=st.integers(1, 3000),
    seed=st.integers(0, 2**32),
)
def test_count_chain_invariants(n, a_in, a_fb, reset, lam, inputs, shots, seed):
    """Every kernel row is a probability vector and every step keeps all shots."""
    cfg = ProposedModelConfig(
        n_qubits=n, a_in=a_in, a_fb=a_fb, shots=shots, haar_seed=RngStream(seed, 1),
        noise=NoiseSpec() if lam is None else NoiseSpec(lam, True),
        reset_after_measurement=reset,
    )
    values = np.array(inputs)
    psi0 = StateVector.haar_random(n, RngStream(seed, 2))
    kernels = _cycle_kernels(cfg, values, model_unitary(cfg), psi0)
    assert kernels.shape == (len(values), 2**n, 2**n)
    assert np.all(kernels >= 0)
    assert np.allclose(kernels.sum(axis=2), 1.0, rtol=0, atol=1e-12)

    start = np.bincount(RngStream(seed, 3).integers(0, 2**n, size=shots), minlength=2**n)
    counts = _count_chain(kernels, start, RngStream(seed, 4))
    assert counts.shape == (len(values), 2**n)
    assert np.all(counts >= 0)
    assert np.all(counts.sum(axis=1) == shots)


def test_engine_rejects_unnormalized_kernels():
    """A non-unitary scrambler breaks the Born rule: the engine raises
    rather than renormalizing the kernel rows."""
    cfg = ProposedModelConfig(n_qubits=2, shots=10)
    with pytest.raises(NumericError):
        run_proposed_model(cfg, np.array([0.5, 0.2]), RngStream(47), u_haar=1.01 * np.eye(4))


def test_engine_refuses_register_beyond_memory():
    """N=12 needs 16 * 8^12 bytes (1 TiB) for the cycle-unitary stack alone:
    refused before the Haar unitary or any engine array is allocated."""
    cfg = ProposedModelConfig(n_qubits=12, shots=10)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="n_qubits=12"):
            run_proposed_model(cfg, np.array([0.5, 0.1]), RngStream(48))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_model_input_domain_enforced():
    cfg = ProposedModelConfig(n_qubits=2, shots=10)
    with pytest.raises(ValueError):
        run_proposed_model(cfg, np.array([0.5, 1.7]), RngStream(23))
    with pytest.raises(ValueError):
        run_proposed_model(cfg, np.array([]), RngStream(23))


def test_model_unitary_is_deterministic_per_config():
    cfg = ProposedModelConfig(n_qubits=2, shots=1, haar_seed=RngStream(40, 2))
    assert np.array_equal(model_unitary(cfg), model_unitary(cfg))


def test_custom_feedback_pairs():
    cfg = ProposedModelConfig(n_qubits=3, shots=300, feedback_pairs=((0, 1), (0, 2), (1, 2)))
    assert cfg.pairs() == ((0, 1), (0, 2), (1, 2))
    feats = run_proposed_model(cfg, np.array([0.2, 0.7]), RngStream(41))
    assert feats.values.shape == (2, 3)
    with pytest.raises(ValueError):
        ProposedModelConfig(n_qubits=2, shots=1, feedback_pairs=((0, 1),)).pairs()
    with pytest.raises(ValueError):
        ProposedModelConfig(n_qubits=2, shots=1, feedback_pairs=((0, 0), (0, 1))).pairs()


# ---------------------------------------------------------------------------
# Feedback-driven baseline
# ---------------------------------------------------------------------------

def test_feedback_driven_trivial_config():
    cfg = FeedbackDrivenConfig(n_qubits=2, a_in=0.0, a_fb=0.0)
    feats = run_feedback_driven_baseline(cfg, np.array([0.1, 0.9]), u_res=np.eye(4))
    assert np.allclose(feats.values, 1.0, atol=1e-14)


def test_feedback_driven_deterministic_and_bounded():
    cfg = FeedbackDrivenConfig(n_qubits=2)
    inputs = gen_uniform(30, RngStream(24))
    a = run_feedback_driven_baseline(cfg, inputs)
    b = run_feedback_driven_baseline(cfg, inputs)
    assert np.array_equal(a.values, b.values)
    assert np.all((a.values >= -1) & (a.values <= 1))
    assert a.values.shape == (30, 2)


def test_feedback_driven_first_step_matches_manual_circuit():
    cfg = FeedbackDrivenConfig(n_qubits=2, a_in=0.4, a_fb=1.9)
    u = haar_random_unitary(4, RngStream(25))
    s0 = 0.62
    feats = run_feedback_driven_baseline(cfg, np.array([s0]), u_res=u)

    x_init = cfg.init_seed.child("esp-init").uniform(-1.0, 1.0, 2)
    st = StateVector.zero(2)
    st = apply_r_gate(st, cfg.a_in * s0, 0, 1)
    st = apply_r_gate(st, cfg.a_fb * x_init[0], 0, 1)
    st = apply_r_gate(st, cfg.a_fb * x_init[1], 1, 0)
    st = apply_gate(st, u, (0, 1))
    expected = st.probabilities() @ STRINGS2
    assert np.allclose(feats.values[0], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# Mid-circuit-measurement baseline
# ---------------------------------------------------------------------------

def test_mcm_trivial_config_ancillas_stay_up():
    cfg = McmBaselineConfig(n_system=2, n_ancilla=2, a=0.0, shots=100)
    feats = run_mcm_baseline(cfg, np.array([0.3, 0.8]), RngStream(26), u_haar=np.eye(16))
    assert np.array_equal(feats.values, np.ones((2, 2)))


def test_mcm_system_is_never_reset():
    """With trivial gates the per-shot system state survives all cycles."""
    cfg = McmBaselineConfig(
        n_system=2, n_ancilla=2, a=0.0, shots=7, initial_system_state="haar_random_pure"
    )
    rng = RngStream(27)
    psi_sys = rng.child("init")
    z = psi_sys.normal(size=4) + 1j * psi_sys.normal(size=4)
    z /= np.linalg.norm(z)
    expected = np.kron(z, np.array([1, 0, 0, 0], dtype=complex))
    _, final = _run_mcm(cfg, np.array([0.1, 0.5, 0.9]), np.eye(16), RngStream(27), return_states=True)
    assert np.allclose(final, expected[None, :], atol=1e-12)


def test_mcm_first_step_matches_sequential_state_marginal():
    cfg = McmBaselineConfig(n_system=2, n_ancilla=2, a=5.0, shots=40_000)
    u = haar_random_unitary(16, RngStream(28))
    s0 = 0.37
    feats = run_mcm_baseline(cfg, np.array([s0]), RngStream(29), u_haar=u)

    st = StateVector.zero(4)
    st = apply_r_gate(st, cfg.a * s0, 0, 1)
    st = apply_r_gate(st, cfg.a * s0, 0, 2)
    st = apply_r_gate(st, cfg.a * s0, 1, 3)
    st = apply_gate(st, u, (0, 1, 2, 3))
    anc_probs = st.probabilities().reshape(4, 4).sum(axis=0)
    expected = anc_probs @ STRINGS2
    assert_within_sigma(feats.values[0], expected, cfg.shots)


def test_mcm_bounded_and_deterministic():
    cfg = McmBaselineConfig(shots=300)
    inputs = gen_uniform(5, RngStream(30))
    a = run_mcm_baseline(cfg, inputs, RngStream(31))
    b = run_mcm_baseline(cfg, inputs, RngStream(31))
    assert np.array_equal(a.values, b.values)
    assert np.all((a.values >= -1) & (a.values <= 1))
    assert a.values.shape == (5, 2)


def test_mcm_config_validation():
    with pytest.raises(ValueError):
        McmBaselineConfig(n_system=1)
    with pytest.raises(ValueError):
        McmBaselineConfig(n_system=2, n_ancilla=3)


# ---------------------------------------------------------------------------
# Echo state network
# ---------------------------------------------------------------------------

def test_esn_frozen_at_zero_leak():
    cfg = EsnConfig(dim=50, alpha=0.0)
    inputs = gen_uniform(10, RngStream(32))
    feats = run_esn(cfg, inputs)
    x0 = cfg.init_seed.child("esp-init").random(50)
    assert np.allclose(feats.values, x0[None, :], atol=1e-15)


def test_esn_update_matches_manual_recurrence():
    cfg = EsnConfig(dim=40, alpha=0.3, spectral_radius=1.25)
    inputs = np.array([0.2, 0.9])
    feats = run_esn(cfg, inputs)

    wrng = cfg.weight_seed.child("weights")
    w_in = wrng.normal(-0.5, 1.0, 40)
    bias = wrng.normal(-0.5, 1.0, 40)
    w = renormalize_spectral_radius(wrng.normal(-0.5, 1.0, (40, 40)), 1.25)
    x = cfg.init_seed.child("esp-init").random(40)
    for k, s in enumerate(inputs):
        x = 0.7 * x + 0.3 * np.tanh(w_in * s + bias + w @ x)
        assert np.allclose(feats.values[k], x, atol=1e-12)


def test_esn_recurrent_matrix_spectral_radius_is_tuned():
    cfg = EsnConfig(dim=200)
    wrng = cfg.weight_seed.child("weights")
    wrng.normal(-0.5, 1.0, 200)
    wrng.normal(-0.5, 1.0, 200)
    w = renormalize_spectral_radius(wrng.normal(-0.5, 1.0, (200, 200)), cfg.spectral_radius)
    rho = max(abs(np.linalg.eigvals(w)))
    assert abs(rho - 1.25) < 1e-6


def test_esn_bounded_after_first_update():
    cfg = EsnConfig(dim=60, alpha=0.8)
    feats = run_esn(cfg, gen_uniform(50, RngStream(33)))
    # convex mix of [0,1] start and tanh output stays within (-1, 1)
    assert np.all(np.abs(feats.values) <= 1.0)


def test_esn_state_contraction_smoke():
    """Initial-condition differences wash out under the tuned leaky update."""
    runs = []
    for r in range(3):
        cfg = EsnConfig(dim=100, weight_seed=RngStream(50, 1), init_seed=RngStream(60, r))
        runs.append(run_esn(cfg, gen_uniform(100, RngStream(34))).values[:, 0])
    curve = esp_divergence(runs)
    assert curve[-1] < 1e-6 * curve[0]


# ---------------------------------------------------------------------------
# Spectral radius renormalization
# ---------------------------------------------------------------------------

def test_renormalize_scalar_matrix():
    """2I has radius 2, so the matrix is scaled by 1.25/2 = 0.625."""
    out = renormalize_spectral_radius(2.0 * np.eye(3), 1.25)
    assert np.allclose(out, 0.625 * (2.0 * np.eye(3)), atol=1e-12)
    assert max(abs(np.linalg.eigvals(out))) == pytest.approx(1.25, abs=1e-12)


def test_renormalize_fixed_point():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(20, 20))
    rho = max(abs(np.linalg.eigvals(w)))
    out = renormalize_spectral_radius(w, rho)
    assert np.max(np.abs(out - w)) < 1e-9


def test_renormalize_rejects_zero_matrix():
    with pytest.raises(ValueError):
        renormalize_spectral_radius(np.zeros((4, 4)), 1.0)


def power_iteration_radius(w, iters=800, depth=8):
    """Independent spectral-radius estimate: power iteration plus a small
    Krylov linear-recurrence fit (handles complex dominant pairs)."""
    rng = np.random.default_rng(12345)
    v = rng.normal(size=w.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = w @ v
        v /= np.linalg.norm(v)
    chain = [v]
    for _ in range(depth):
        chain.append(w @ chain[-1])
    basis = np.stack(chain[depth - 1 :: -1], axis=1)
    coef, *_ = np.linalg.lstsq(basis, chain[depth], rcond=None)
    roots = np.roots(np.concatenate([[1.0], -coef]))
    return max(abs(roots))


def test_spectral_radius_matches_power_iteration_oracle():
    """Dense eigensolver agrees with power iteration on 50 random matrices."""
    rng = np.random.default_rng(77)
    for _ in range(50):
        w = rng.normal(size=(20, 20))
        exact = max(abs(np.linalg.eigvals(w)))
        assert abs(power_iteration_radius(w) - exact) < 1e-6
        scaled = renormalize_spectral_radius(w, 1.25)
        assert abs(power_iteration_radius(scaled) - 1.25) < 1e-6


# ---------------------------------------------------------------------------
# Common contracts
# ---------------------------------------------------------------------------

def test_feature_series_row_count_matches_inputs():
    inputs = gen_uniform(6, RngStream(35))
    cases = [
        run_proposed_model(ProposedModelConfig(n_qubits=2, shots=50), inputs, RngStream(36)),
        run_feedback_driven_baseline(FeedbackDrivenConfig(n_qubits=2), inputs),
        run_mcm_baseline(McmBaselineConfig(shots=50), inputs, RngStream(37)),
        run_esn(EsnConfig(dim=30), inputs),
    ]
    for feats in cases:
        assert len(feats) == 6


def test_feature_series_requires_matrix():
    with pytest.raises(ValueError):
        FeatureSeries(np.zeros(5))
