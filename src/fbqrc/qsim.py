"""Pure-state quantum simulation core.

Dense statevector simulation of small registers (N <= ~12): gate
application, projective computational-basis measurement with Born-rule
sampling, resets, stochastic Pauli noise, Haar-random unitary generation,
and exact Hamiltonian propagators.

Conventions (fixed throughout the package):
- Qubit 0 is the most significant bit of the basis index, i.e. basis state
  |q0 q1 ... q_{n-1}> has index q0*2^(n-1) + ... + q_{n-1}.
- Rotation gates use half-angle generators: RP(theta) = exp(-i*theta*P/2).
- Measurement outcomes are reported as Z eigenvalues: bit 0 -> +1,
  bit 1 -> -1.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

_SEED_MASK = 0xFFFFFFFFFFFFFFFF

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Two-qubit CX in the (control, target) subspace, control = first qubit.
CX = np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]],
    dtype=complex,
)


class RngStream:
    """Deterministic random stream keyed by (seed, stream_id).

    Identical (seed, stream_id) pairs yield identical draw sequences;
    distinct stream_ids give statistically independent streams. Child
    streams are derived with a stable hash so that parallel work can be
    assigned non-overlapping streams without coordinating draw order.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed) & _SEED_MASK
        self.stream_id = int(stream_id) & _SEED_MASK
        self._gen = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        )

    def child(self, *keys: int | str) -> "RngStream":
        """Derive an independent stream from this stream's identity and keys."""
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<QQ", self.seed, self.stream_id))
        for k in keys:
            if isinstance(k, str):
                h.update(b"s" + k.encode())
            else:
                h.update(b"i" + struct.pack("<q", int(k)))
        return RngStream(self.seed, int.from_bytes(h.digest(), "little"))

    # Draw methods delegate to the underlying generator and advance state.
    def random(self, size=None):
        return self._gen.random(size)

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def multinomial(self, n, pvals, size=None):
        return self._gen.multinomial(n, pvals, size)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


@dataclass(frozen=True)
class NoiseSpec:
    """Single-qubit depolarizing noise, applied stochastically per trajectory.

    `lam` is the depolarization probability: the state is replaced by the
    maximally mixed state with probability lam, realized as random Pauli
    application with probabilities (1 - 3*lam/4, lam/4, lam/4, lam/4) for
    (I, X, Y, Z).
    """

    lam: float = 0.0
    enabled: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"depolarization probability must be in [0, 1), got {self.lam}")


@dataclass
class StateVector:
    """Pure state of an n-qubit register as a dense amplitude vector."""

    n_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {self.amplitudes.shape}, "
                f"expected {2**self.n_qubits}"
            )

    @classmethod
    def zero(cls, n_qubits: int) -> "StateVector":
        """The all-|0> state."""
        amps = np.zeros(2**n_qubits, dtype=complex)
        amps[0] = 1.0
        return cls(n_qubits, amps)

    @classmethod
    def haar_random(cls, n_qubits: int, rng: RngStream) -> "StateVector":
        """A pure state drawn uniformly from the Hilbert-space sphere."""
        dim = 2**n_qubits
        z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return cls(n_qubits, z / np.linalg.norm(z))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def index_to_string(index: int, n_qubits: int) -> np.ndarray:
    """Basis index -> measurement string of Z eigenvalues (+1/-1)."""
    bits = (index >> np.arange(n_qubits - 1, -1, -1)) & 1
    return (1 - 2 * bits).astype(np.int8)


def string_to_index(string: np.ndarray) -> int:
    """Measurement string of Z eigenvalues -> basis index."""
    bits = (1 - np.asarray(string, dtype=np.int64)) // 2
    n = len(bits)
    return int(bits @ (1 << np.arange(n - 1, -1, -1)))


def all_strings(n_qubits: int) -> np.ndarray:
    """(2^n, n) array of all measurement strings in basis-index order."""
    idx = np.arange(2**n_qubits)
    bits = (idx[:, None] >> np.arange(n_qubits - 1, -1, -1)[None, :]) & 1
    return (1 - 2 * bits).astype(np.int8)


def rx_gate(theta: float) -> np.ndarray:
    """X rotation exp(-i*theta*X/2) as a 2x2 unitary."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def rz_gate(theta: float) -> np.ndarray:
    """Z rotation exp(-i*theta*Z/2) as a diagonal 2x2 unitary."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def apply_gate(state: StateVector, gate: np.ndarray, targets: tuple[int, ...] | list[int]) -> StateVector:
    """Apply a 2^k x 2^k unitary to the target qubits, identity elsewhere."""
    n = state.n_qubits
    targets = tuple(int(t) for t in targets)
    k = len(targets)
    if len(set(targets)) != k:
        raise ValueError(f"duplicate target qubits: {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target out of range for {n} qubits: {targets}")
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (2**k, 2**k):
        raise ValueError(f"gate shape {gate.shape} does not match {k} target qubit(s)")

    psi = state.amplitudes.reshape([2] * n)
    rest = [ax for ax in range(n) if ax not in targets]
    perm = list(targets) + rest
    psi = psi.transpose(perm).reshape(2**k, -1)
    psi = gate @ psi
    psi = psi.reshape([2] * n).transpose(np.argsort(perm)).reshape(-1)
    return StateVector(n, psi)


def apply_r_gate(state: StateVector, theta: float, i: int, j: int) -> StateVector:
    """Two-qubit composite coupling gate built from CX, RZ, and RX factors.

    Gate sequence (circuit reading, first applied first): CX_ij, RZ_j(theta),
    CX_ij, then RX on both qubits. The CX-RZ-CX core equals the symmetric
    two-qubit phase exp(-i*theta*ZZ/2), so the composite is invariant under
    swapping i and j.
    """
    if i == j:
        raise ValueError("r gate requires two distinct qubits")
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    state = apply_gate(state, CX, (i, j))
    state = apply_gate(state, rz_gate(theta), (j,))
    state = apply_gate(state, CX, (i, j))
    rx = rx_gate(theta)
    state = apply_gate(state, rx, (i,))
    state = apply_gate(state, rx, (j,))
    return state


def r_gate_matrix(theta: float) -> np.ndarray:
    """The composite two-qubit coupling gate as a 4x4 matrix."""
    if not np.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    rx = rx_gate(theta)
    rzj = np.kron(IDENTITY_2, rz_gate(theta))
    return np.kron(rx, rx) @ CX @ rzj @ CX


def expand_gate(gate: np.ndarray, targets: tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Embed a small gate into the full 2^n x 2^n unitary."""
    dim = 2**n_qubits
    out = np.empty((dim, dim), dtype=complex)
    for b in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[b] = 1.0
        out[:, b] = apply_gate(StateVector(n_qubits, e), gate, targets).amplitudes
    return out


def sample_outcome(probabilities: np.ndarray, rng: RngStream) -> int:
    """Draw one basis index by inverse-CDF sampling."""
    cum = np.cumsum(probabilities)
    u = rng.random() * cum[-1]
    return min(int(np.searchsorted(cum, u, side="right")), len(probabilities) - 1)


def sample_measurements(state: StateVector, shots: int, rng: RngStream) -> np.ndarray:
    """Sample `shots` computational-basis outcomes (basis indices) from a state."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    probs = state.probabilities()
    total = probs.sum()
    if total <= 0:
        raise RuntimeError("cannot sample from a zero-norm state")
    cum = np.cumsum(probs)
    u = rng.random(shots) * cum[-1]
    return np.minimum(np.searchsorted(cum, u, side="right"), len(probs) - 1)


def measure_all_z(state: StateVector, rng: RngStream) -> tuple[np.ndarray, StateVector]:
    """Projective measurement of every qubit in the computational basis.

    Returns (measurement string of Z eigenvalues, collapsed state). The
    collapsed state is the post-measurement basis state, phase preserved.
    """
    if state.norm() < 1e-12:
        raise RuntimeError("cannot measure a zero-norm state")
    outcome = sample_outcome(state.probabilities(), rng)
    amps = np.zeros_like(state.amplitudes)
    a = state.amplitudes[outcome]
    amps[outcome] = a / abs(a)
    return index_to_string(outcome, state.n_qubits), StateVector(state.n_qubits, amps)


def measure_qubits_z(
    state: StateVector, qubits: tuple[int, ...] | list[int], rng: RngStream
) -> tuple[np.ndarray, StateVector]:
    """Projective Z measurement of a subset of qubits.

    Returns the Z eigenvalues of the measured qubits (in the order given)
    and the renormalized post-measurement state of the full register.
    """
    n = state.n_qubits
    qubits = tuple(int(q) for q in qubits)
    if len(set(qubits)) != len(qubits) or any(q < 0 or q >= n for q in qubits):
        raise ValueError(f"invalid measurement qubits: {qubits}")
    psi = state.amplitudes.reshape([2] * n)
    other = tuple(ax for ax in range(n) if ax not in qubits)
    marg = np.abs(psi) ** 2
    if other:
        marg = marg.sum(axis=other)
    # marg axes are the measured qubits in ascending order
    order = np.argsort(qubits)
    marg = marg.transpose(np.argsort(order)) if len(qubits) > 1 else marg
    flat = marg.reshape(-1)
    k = sample_outcome(flat, rng)
    bits = (k >> np.arange(len(qubits) - 1, -1, -1)) & 1
    sel = [slice(None)] * n
    for q, b in zip(qubits, bits):
        sel[q] = int(b)
    keep = np.zeros_like(psi)
    keep[tuple(sel)] = psi[tuple(sel)]
    keep = keep.reshape(-1)
    nrm = np.linalg.norm(keep)
    if nrm <= 0:
        raise RuntimeError("projection produced a zero-norm state")
    return (1 - 2 * bits).astype(np.int8), StateVector(n, keep / nrm)


def reset_all(state: StateVector) -> StateVector:
    """Discard the state and return |0...0> of the same register size."""
    return StateVector.zero(state.n_qubits)


def reset_qubits(state: StateVector, qubits: tuple[int, ...] | list[int], rng: RngStream) -> StateVector:
    """Measure the given qubits and flip any that landed in |1> back to |0>."""
    bits_z, state = measure_qubits_z(state, qubits, rng)
    for q, z in zip(qubits, bits_z):
        if z < 0:
            state = apply_gate(state, PAULI_X, (q,))
    return state


def haar_random_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The QR phases are fixed by Lambda = diag(R_ii / |R_ii|) so that the
    result is uniform under the group-invariant measure.
    """
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    lam = np.diag(r).copy()
    lam /= np.abs(lam)
    return q * lam[None, :]


def pauli_probabilities(lam: float) -> np.ndarray:
    """(I, X, Y, Z) application probabilities of the depolarizing channel."""
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"depolarization probability must be in [0, 1), got {lam}")
    return np.array([1 - 0.75 * lam, lam / 4, lam / 4, lam / 4])


_PAULI_OPS = (IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z)


def apply_depolarizing(state: StateVector, spec: NoiseSpec, qubit: int, rng: RngStream) -> StateVector:
    """One stochastic depolarizing event: draw I/X/Y/Z and apply it.

    Mixed-unitary realization of the channel; agrees with the density-matrix
    channel in expectation over trajectories.
    """
    cum = np.cumsum(pauli_probabilities(spec.lam))
    u = rng.random()
    k = min(int(np.searchsorted(cum, u, side="right")), 3)
    if k == 0:
        return state
    return apply_gate(state, _PAULI_OPS[k], (qubit,))


def matrix_exponential_propagator(hamiltonian: np.ndarray, dt: float) -> np.ndarray:
    """Exact unitary propagator exp(-i*H*dt) via eigendecomposition."""
    h = np.asarray(hamiltonian, dtype=complex)
    if not np.isfinite(dt):
        raise ValueError(f"time step must be finite, got {dt}")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > 1e-10:
        raise ValueError("Hamiltonian is not Hermitian within 1e-10")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * evals * dt)[None, :]) @ evecs.conj().T


def unitarity_residual(u: np.ndarray) -> float:
    """max |U^dag U - I|, the unitarity defect."""
    u = np.asarray(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
