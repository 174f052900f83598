"""The four reservoir architectures as feature-series producers.

- the proposed feedback model with mid-circuit measurement (with or
  without post-measurement resets), shot-based;
- the feedback-driven restart baseline (exact expectation values);
- the continuous mid-circuit-measurement baseline with ancilla readout,
  shot-based;
- the classical leaky echo state network.

Every producer is a deterministic function of (config, inputs, seeds).

The proposed model runs on a count-chain engine. Every qubit is measured
projectively each cycle and the register is then reset (or collapses onto
the measured basis state), so the outcome string is a finite Markov chain
over {-1, +1}^N with one input-dependent 2^N x 2^N transition kernel per
timestep. A shot-averaged feature depends only on how many shots sit in
each outcome string, so the engine propagates those counts: each step
draws one multinomial per kernel row and sums the rows. This is exact in
distribution, and its cost per step does not depend on the shot count.
`method="per_shot"` runs the literal one-trajectory-at-a-time loop
instead and samples the same distribution.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericError
from .qsim import (
    NoiseSpec,
    RngStream,
    StateVector,
    all_strings,
    apply_depolarizing,
    apply_gate,
    apply_r_gate,
    expand_gate,
    haar_random_unitary,
    measure_all_z,
    r_gate_matrix,
    reset_all,
    sample_measurements,
)


@dataclass
class FeatureSeries:
    """T x M matrix of reservoir outputs: rows = timesteps, columns = components."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("feature series must be a 2-d matrix")

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class ProposedModelConfig:
    """Feedback model with mid-circuit measurement (Z-basis, all qubits)."""

    n_qubits: int = 2
    a_in: float = 1.0
    a_fb: float = 1.3
    shots: int = 5000
    haar_seed: RngStream = field(default_factory=lambda: RngStream(0, 1))
    noise: NoiseSpec = NoiseSpec()
    reset_after_measurement: bool = True
    initial_state: str = "all_zero"
    feedback_pairs: tuple | None = None  # default: ring (j, (j+1) mod N)

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("the coupling gate is two-qubit; need n_qubits >= 2")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.initial_state not in ("all_zero", "haar_random_pure"):
            raise ValueError(f"unknown initial state '{self.initial_state}'")

    def pairs(self) -> tuple[tuple[int, int], ...]:
        if self.feedback_pairs is not None:
            out = tuple((int(a), int(b)) for a, b in self.feedback_pairs)
            if len(out) != self.n_qubits:
                raise ValueError("need one feedback pair per qubit")
        else:
            n = self.n_qubits
            out = tuple((j, (j + 1) % n) for j in range(n))
        for a, b in out:
            if a == b or not (0 <= a < self.n_qubits) or not (0 <= b < self.n_qubits):
                raise ValueError(f"invalid feedback pair ({a}, {b})")
        return out


@dataclass(frozen=True)
class FeedbackDrivenConfig:
    """Restart-per-timestep baseline fed by exact expectation values.

    Defaults replicate the cited reference reservoir (8 qubits, weak input
    coupling, strong expectation feedback); well below 8 qubits the
    autonomous feedback map is frequently multistable and loses the echo
    state property.
    """

    n_qubits: int = 8
    a_in: float = 0.001
    a_fb: float = 2.5
    haar_seed: RngStream = field(default_factory=lambda: RngStream(0, 2))
    init_seed: RngStream = field(default_factory=lambda: RngStream(0, 3))

    def __post_init__(self):
        if self.n_qubits < 2:
            raise ValueError("the coupling gate is two-qubit; need n_qubits >= 2")


@dataclass(frozen=True)
class McmBaselineConfig:
    """Continuous mid-circuit-measurement baseline: persistent system, ancilla readout.

    The initial system state (and all sampling) derives from the rng passed
    to run_mcm_baseline.
    """

    n_system: int = 2
    n_ancilla: int = 2
    a: float = 5.0
    shots: int = 10000
    haar_seed: RngStream = field(default_factory=lambda: RngStream(0, 4))
    initial_system_state: str = "all_zero"

    def __post_init__(self):
        if self.n_system < 2:
            raise ValueError("need at least two system qubits for the input gate")
        if not (1 <= self.n_ancilla <= self.n_system):
            raise ValueError("ancilla count must be in [1, n_system]")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.initial_system_state not in ("all_zero", "haar_random_pure"):
            raise ValueError(f"unknown initial state '{self.initial_system_state}'")


@dataclass(frozen=True)
class EsnConfig:
    """Leaky echo state network x' = (1-a) x + a tanh(W_in s + b + W x)."""

    dim: int = 1000
    alpha: float = 0.3
    spectral_radius: float = 1.25
    weight_seed: RngStream = field(default_factory=lambda: RngStream(0, 6))
    init_seed: RngStream = field(default_factory=lambda: RngStream(0, 7))

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("reservoir dimension must be positive")
        # alpha = 0 (frozen state) is allowed as the degenerate limit
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("leak rate must be in [0, 1]")
        if self.spectral_radius <= 0.0:
            raise ValueError("spectral radius target must be positive")


def _input_values(inputs) -> np.ndarray:
    vals = np.asarray(getattr(inputs, "values", inputs), dtype=float)
    if vals.ndim != 1 or len(vals) == 0:
        raise ValueError("inputs must be a non-empty 1-d sequence")
    return vals


def model_unitary(config) -> np.ndarray:
    """The fixed Haar-random unitary owned by a model config."""
    if isinstance(config, McmBaselineConfig):
        dim = 2 ** (config.n_system + config.n_ancilla)
    else:
        dim = 2**config.n_qubits
    return haar_random_unitary(dim, config.haar_seed.child("unitary"))


@lru_cache(maxsize=8192)
def _r_gate_full(theta: float, i: int, j: int, n: int) -> np.ndarray:
    """Cached full-register embedding of the two-qubit coupling gate."""
    m = expand_gate(r_gate_matrix(theta), (i, j), n)
    m.flags.writeable = False
    return m


def run_proposed_cycle(
    state: StateVector,
    s_k: float,
    m_prev: np.ndarray,
    config: ProposedModelConfig,
    u_haar: np.ndarray,
    rng: RngStream,
    noise_rng: RngStream | None = None,
) -> tuple[np.ndarray, StateVector]:
    """One input-feedback-scramble-measure cycle on a single trajectory.

    Applies, in order: the input gate R(a_in*s_k) on qubits (0, 1), one
    feedback gate R(a_fb*m_prev[j]) per qubit pair, the fixed Haar unitary,
    per-qubit depolarizing noise when enabled, then a full projective
    measurement; the register is reset afterwards when configured.
    Returns (outcome string, post-cycle state).
    """
    n = config.n_qubits
    m_prev = np.asarray(m_prev)
    if m_prev.shape != (n,):
        raise ValueError(f"feedback string has length {m_prev.shape}, expected {n}")
    state = apply_r_gate(state, config.a_in * s_k, 0, 1)
    for j, (a, b) in enumerate(config.pairs()):
        state = apply_r_gate(state, config.a_fb * float(m_prev[j]), a, b)
    state = apply_gate(state, u_haar, tuple(range(n)))
    if config.noise.enabled:
        nrng = noise_rng if noise_rng is not None else rng
        for q in range(n):
            state = apply_depolarizing(state, config.noise, q, nrng)
    m_k, state = measure_all_z(state, rng)
    if config.reset_after_measurement:
        state = reset_all(state)
    return m_k, state


def _initial_state(config, rng: RngStream) -> StateVector:
    n = config.n_qubits
    if config.initial_state == "haar_random_pure":
        return StateVector.haar_random(n, rng)
    return StateVector.zero(n)


def _feedback_product(config: ProposedModelConfig, m: np.ndarray) -> np.ndarray:
    """Full-register product of the feedback gates R(a_fb * m[j]) on each pair."""
    n = config.n_qubits
    acc = np.eye(2**n, dtype=complex)
    for j, (a, b) in enumerate(config.pairs()):
        acc = _r_gate_full(config.a_fb * float(m[j]), a, b, n) @ acc
    return acc


def _feedback_unitaries(config: ProposedModelConfig) -> np.ndarray:
    """(2^N, dim, dim) stack of feedback-gate products, one per outcome string."""
    return np.stack([_feedback_product(config, m) for m in all_strings(config.n_qubits)])


# ZZ eigenvalue of the two-qubit basis states |00>, |01>, |10>, |11>
_ZZ = np.array([1.0, -1.0, -1.0, 1.0])


def _input_gates(thetas: np.ndarray, n: int) -> np.ndarray:
    """(T, 2^n, 2^n) stack of the coupling gate R(theta) on qubits (0, 1).

    Closed form of `r_gate_matrix`: R(theta) = (Rx(theta) x Rx(theta)) .
    diag(exp(-i theta zz / 2)), embedded as R x I because qubits 0 and 1
    are the most significant bits. Input angles are continuous, so these
    gates bypass the `_r_gate_full` cache, which they would only fill.
    """
    half = 0.5 * np.asarray(thetas, dtype=float)
    c, s = np.cos(half), -1j * np.sin(half)
    rx = np.stack([np.stack([c, s], axis=-1), np.stack([s, c], axis=-1)], axis=-2)
    pair = np.einsum("kab,kcd->kacbd", rx, rx).reshape(-1, 4, 4)
    pair = pair * np.exp(-1j * half[:, None, None] * _ZZ)
    rest = 2 ** (n - 2)
    return np.einsum("kab,cd->kacbd", pair, np.eye(rest)).reshape(-1, 2**n, 2**n)


def _flip_matrix(n: int, lam: float) -> np.ndarray:
    """Outcome marginal of per-qubit depolarizing noise before measurement:
    each outcome bit flips independently with probability lam/2."""
    strings = all_strings(n)
    differing = (strings[:, None, :] != strings[None, :, :]).sum(axis=2)
    p = lam / 2.0
    return p**differing * (1.0 - p) ** (n - differing)


def _check_engine_memory(n_qubits: int, steps: int) -> None:
    """Reject a run whose engine arrays cannot fit in physical memory.

    The engine holds the (2^N, 2^N, 2^N) cycle-unitary stack and the
    (T, 2^N, 2^N) kernel stack as complex128: 16 * (8^N + T * 4^N) bytes.
    """
    need = 16 * (8**n_qubits + steps * 4**n_qubits)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(
            f"n_qubits={n_qubits} over {steps} steps needs about {need / 2**30:.1f} GiB "
            f"for the shot engine; this machine has {have / 2**30:.1f} GiB"
        )


def _cycle_kernels(
    config: ProposedModelConfig, values: np.ndarray, u_haar: np.ndarray, psi0: StateVector
) -> np.ndarray:
    """(T, 2^N, 2^N) row-stochastic kernels K_k[m, m'] = P(outcome m' | string m).

    K_k[m, :] = |U F_m R_in(a_in s_k) start_m|^2, where F_m is the feedback
    product of string m and start_m is |0...0> with resets and the basis
    state e_m without them; step 0 starts every row in psi0. With noise,
    each kernel is composed with the lam/2 outcome bit-flip matrix.
    """
    n = config.n_qubits
    dim = 2**n
    cycle_units = u_haar @ _feedback_unitaries(config)  # (2^N, dim, dim): U F_m
    rin = _input_gates(config.a_in * values, n)
    if config.reset_after_measurement:
        entry = np.repeat(rin[:, :, :1], dim, axis=2)  # column m: R_in start_m
    else:
        entry = rin.copy()
    entry[0] = (rin[0] @ psi0.amplitudes)[:, None]
    # psi[k, m] = cycle_units[m] @ entry[k, :, m], as one batched matmul over m
    psi = (cycle_units @ entry.transpose(2, 1, 0)).transpose(2, 0, 1)
    kernels = np.abs(psi) ** 2
    if config.noise.enabled:
        kernels = kernels @ _flip_matrix(n, config.noise.lam)
    totals = kernels.sum(axis=2, keepdims=True)
    if not np.all(np.abs(totals - 1.0) <= 1e-9):
        worst = float(np.max(np.abs(totals - 1.0)))
        raise NumericError(f"cycle kernel rows are not normalized: max |sum - 1| = {worst:.3g}")
    return kernels / totals


def _count_chain(kernels: np.ndarray, counts: np.ndarray, rng: RngStream) -> np.ndarray:
    """(T, 2^N) outcome counts: row k is sum_m Multinomial(counts_{k-1}[m], K_k[m, :])."""
    out = np.empty(kernels.shape[:2], dtype=np.int64)
    for k, kernel in enumerate(kernels):
        counts = rng.multinomial(counts, kernel).sum(axis=0)
        out[k] = counts
    return out


def _run_grouped(
    config: ProposedModelConfig,
    values: np.ndarray,
    u_haar: np.ndarray,
    psi0: StateVector,
    m_idx: np.ndarray,
    measure_rng: RngStream,
) -> np.ndarray:
    strings = all_strings(config.n_qubits).astype(float)
    kernels = _cycle_kernels(config, values, u_haar, psi0)
    counts = _count_chain(kernels, np.bincount(m_idx, minlength=len(strings)), measure_rng)
    return counts @ strings / len(m_idx)


def _run_per_shot(
    config: ProposedModelConfig,
    values: np.ndarray,
    u_haar: np.ndarray,
    psi0: StateVector,
    m_idx: np.ndarray,
    measure_rng: RngStream,
    noise_rng: RngStream,
) -> np.ndarray:
    n = config.n_qubits
    strings = all_strings(n)
    totals = np.zeros((len(values), n))
    for shot, mi in enumerate(m_idx):
        srng = measure_rng.child("shot", shot)
        snoise = noise_rng.child("shot", shot)
        state = StateVector(n, psi0.amplitudes.copy())
        m_prev = strings[mi]
        for k, s in enumerate(values):
            m_prev, state = run_proposed_cycle(
                state, float(s), m_prev, config, u_haar, srng, snoise
            )
            totals[k] += m_prev
    return totals / len(m_idx)


def run_proposed_model(
    config: ProposedModelConfig,
    inputs,
    rng: RngStream,
    u_haar: np.ndarray | None = None,
    method: str = "grouped",
) -> FeatureSeries:
    """Shot-averaged Z-outcome series of the feedback model.

    Simulates `config.shots` independent trajectories over the whole input
    sequence; each draws its own initial feedback string uniformly from
    {-1, +1}^N. Row k, column n is the shot mean of qubit n's outcome in
    cycle k. One Haar unitary per model instance, fixed across the sequence
    (pass `u_haar` to pin it explicitly). The default engine propagates
    outcome counts through the per-step transition kernels;
    `method="per_shot"` runs every trajectory literally.
    """
    values = _input_values(inputs)
    if values.min() < -1e-12 or values.max() > 1 + 1e-12:
        raise ValueError("model inputs must lie in [0, 1]")
    if method == "grouped":
        _check_engine_memory(config.n_qubits, len(values))
    elif method != "per_shot":
        raise ValueError(f"unknown method '{method}'")
    if u_haar is None:
        u_haar = model_unitary(config)
    init_rng = rng.child("init")
    measure_rng = rng.child("measure")
    psi0 = _initial_state(config, init_rng)
    m_idx = init_rng.integers(0, 2**config.n_qubits, size=config.shots)
    if method == "grouped":
        feats = _run_grouped(config, values, u_haar, psi0, m_idx, measure_rng)
    else:
        feats = _run_per_shot(config, values, u_haar, psi0, m_idx, measure_rng, rng.child("noise"))
    return FeatureSeries(feats)


def sample_cycle_outcomes(
    config: ProposedModelConfig,
    s_k: float,
    m_prev: np.ndarray,
    u_haar: np.ndarray,
    shots: int,
    rng: RngStream,
) -> np.ndarray:
    """Outcome indices of `shots` single-cycle runs with a fixed feedback string.

    Composes the cycle as the count-chain engine does (closed-form input
    gate, feedback product, Haar unitary; noiseless, |0...0> start) and
    draws each shot's outcome from the resulting Born distribution. The
    per-shot loop over run_proposed_cycle samples the same distribution.
    """
    if config.noise.enabled:
        raise ValueError("cycle sampling helper supports noiseless cycles only")
    n = config.n_qubits
    m_prev = np.asarray(m_prev)
    if m_prev.shape != (n,):
        raise ValueError(f"feedback string has length {m_prev.shape}, expected {n}")
    rin = _input_gates(np.array([config.a_in * float(s_k)]), n)[0]
    psi = u_haar @ _feedback_product(config, m_prev) @ rin[:, 0]  # action on |0...0>
    return sample_measurements(StateVector(n, psi), shots, rng)


def run_feedback_driven_baseline(
    config: FeedbackDrivenConfig, inputs, u_res: np.ndarray | None = None
) -> FeatureSeries:
    """Exact-expectation restart baseline (no sampling).

    Every timestep rebuilds the circuit from |0...0>, encodes the input and
    the previous expectation vector through coupling gates, applies the
    fixed reservoir unitary, and reads out exact per-qubit <Z>. The first
    step is fed an expectation vector drawn uniformly from [-1, 1]^N.
    """
    values = _input_values(inputs)
    n = config.n_qubits
    if u_res is None:
        u_res = haar_random_unitary(2**n, config.haar_seed.child("unitary"))
    pairs = tuple((j, (j + 1) % n) for j in range(n))
    z_signs = all_strings(n).astype(float)
    x = config.init_seed.child("esp-init").uniform(-1.0, 1.0, n)
    features = np.empty((len(values), n))
    for k, s in enumerate(values):
        state = StateVector.zero(n)
        state = apply_r_gate(state, config.a_in * float(s), 0, 1)
        for j, (a, b) in enumerate(pairs):
            state = apply_r_gate(state, config.a_fb * float(x[j]), a, b)
        state = apply_gate(state, u_res, tuple(range(n)))
        x = state.probabilities() @ z_signs
        features[k] = x
    return FeatureSeries(features)


def _mcm_initial_state(config: McmBaselineConfig, rng: RngStream) -> np.ndarray:
    dim_sys = 2**config.n_system
    dim_anc = 2**config.n_ancilla
    if config.initial_system_state == "haar_random_pure":
        z = rng.normal(size=dim_sys) + 1j * rng.normal(size=dim_sys)
        sys = z / np.linalg.norm(z)
    else:
        sys = np.zeros(dim_sys, dtype=complex)
        sys[0] = 1.0
    anc = np.zeros(dim_anc, dtype=complex)
    anc[0] = 1.0
    return np.kron(sys, anc)  # system qubits are the most significant bits


def _run_mcm(
    config: McmBaselineConfig,
    values: np.ndarray,
    u_haar: np.ndarray,
    rng: RngStream,
    return_states: bool = False,
):
    n = config.n_system + config.n_ancilla
    dim_anc = 2**config.n_ancilla
    dim_sys = 2**config.n_system
    shots = config.shots
    measure_rng = rng.child("measure")
    psi0 = _mcm_initial_state(config, rng.child("init"))
    psi = np.tile(psi0, (shots, 1))

    anc_strings = all_strings(config.n_ancilla).astype(float)
    features = np.empty((len(values), config.n_ancilla))
    for k, s in enumerate(values):
        gate = _r_gate_full(config.a * float(s), 0, 1, n)
        for j in range(config.n_ancilla):
            gate = _r_gate_full(config.a * float(s), j, config.n_system + j, n) @ gate
        step = u_haar @ gate
        psi = psi @ step.T
        # marginal ancilla distribution; ancillas are the least significant bits
        blocks = psi.reshape(shots, dim_sys, dim_anc)
        probs = (np.abs(blocks) ** 2).sum(axis=1)
        cum = np.cumsum(probs, axis=1)
        u = measure_rng.random(shots) * cum[:, -1]
        outcome = np.minimum((cum < u[:, None]).sum(axis=1), dim_anc - 1)
        features[k] = anc_strings[outcome].mean(axis=0)
        # collapse onto the outcome and reset the ancillas to |0...0>
        kept = blocks[np.arange(shots), :, outcome]
        kept /= np.linalg.norm(kept, axis=1, keepdims=True)
        blocks = np.zeros_like(blocks)
        blocks[:, :, 0] = kept
        psi = blocks.reshape(shots, -1)
    if return_states:
        return features, psi
    return features


def run_mcm_baseline(
    config: McmBaselineConfig, inputs, rng: RngStream, u_haar: np.ndarray | None = None
) -> FeatureSeries:
    """Continuous mid-circuit baseline: ancilla outcome means per timestep.

    System qubits persist across timesteps (never reset); each cycle
    couples the input into the system and each ancilla to its system
    qubit, scrambles everything with a fixed Haar unitary, then measures
    and resets only the ancillas.
    """
    values = _input_values(inputs)
    if u_haar is None:
        u_haar = model_unitary(config)
    return FeatureSeries(_run_mcm(config, values, u_haar, rng))


def renormalize_spectral_radius(w: np.ndarray, target: float) -> np.ndarray:
    """Scale a square matrix so its spectral radius equals `target`."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("matrix must be square")
    if target <= 0:
        raise ValueError("target radius must be positive")
    rho = float(np.max(np.abs(np.linalg.eigvals(w))))
    if rho < 1e-300:
        raise ValueError("matrix has (numerically) zero spectral radius")
    return w * (target / rho)


def run_esn(config: EsnConfig, inputs) -> FeatureSeries:
    """Leaky-tanh echo state network driven by a scalar sequence.

    Input weights, bias, and recurrent weights are drawn N(-0.5, 1) in that
    order from the weight stream; the recurrent matrix is rescaled to the
    configured spectral radius; the initial state is uniform on [0, 1]^dim.
    Row k holds the state after absorbing input k.
    """
    values = _input_values(inputs)
    d = config.dim
    wrng = config.weight_seed.child("weights")
    w_in = wrng.normal(-0.5, 1.0, d)
    bias = wrng.normal(-0.5, 1.0, d)
    w = renormalize_spectral_radius(wrng.normal(-0.5, 1.0, (d, d)), config.spectral_radius)
    x = config.init_seed.child("esp-init").random(d)
    a = config.alpha
    features = np.empty((len(values), d))
    for k, s in enumerate(values):
        x = (1.0 - a) * x + a * np.tanh(w_in * s + bias + w @ x)
        features[k] = x
    return FeatureSeries(features)
