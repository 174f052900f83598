"""In-memory span tracing of the fbqrc layers, installed from outside the package.

Each traced layer function is replaced, for the duration of a `patched`
block, at the module attribute its caller looks it up by (for example
`harness.run_proposed_model` or `oracle.apply_gate`), and restored
afterwards. A span records its name, `time.perf_counter` start and end,
its parent span and the ensemble member it belongs to. A span's self time
is its duration minus the durations of its child spans; single-threaded
calls nest strictly, so children never overlap.
"""

from __future__ import annotations

import hashlib
import pickle
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Span names whose outermost occurrence marks one ensemble member: a sweep
# pipeline, or one reservoir run or oracle comparison outside a pipeline.
MEMBER_SPANS = frozenset(
    {
        "harness.run_pipeline",
        "reservoirs.proposed",
        "reservoirs.esn",
        "reservoirs.feedback_driven",
        "reservoirs.mcm",
        "oracle.markov",
        "oracle.cycle_dist",
    }
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    member: int = -1
    note: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; `open`/`close` must be balanced like a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        member = self.spans[parent].member if parent >= 0 else -1
        idx = len(self.spans)
        if member < 0 and name in MEMBER_SPANS:
            member = idx
        self.spans.append(Span(name, perf_counter() if start is None else start, parent=parent, member=member))
        self._stack.append(idx)
        return idx

    def close(self, idx: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != idx:
            raise RuntimeError(f"span {idx} closed out of order")
        self._stack.pop()
        self.spans[idx].end = perf_counter() if end is None else end

    def wrap(self, fn, name: str, note=None):
        """`fn` timed as span `name`; `note(args, kwargs, result)` adds span data."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.spans[idx].note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per-span duration minus the summed durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span], wall: float) -> tuple[dict[str, float], float]:
    """Self time per layer (the span-name prefix) and the unattributed rest of `wall`.

    The layer self times plus the remainder sum to `wall`: every instant
    inside a root span belongs to exactly one innermost span.
    """
    layers: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + t
    rest = wall - sum(s.duration for s in spans if s.parent < 0)
    return layers, rest


@contextmanager
def patched(replacements):
    """Set each (module, attribute, value); restore the originals on exit."""
    saved = []
    try:
        for module, attr, value in replacements:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _series_note(args, kwargs, result) -> dict:
    return {"digest": _digest(result.values)}


def _unitary_note(args, kwargs, result) -> dict:
    return {"digest": _digest(result)}


def _proposed_note(args, kwargs, result) -> dict:
    config = args[0] if args else kwargs["config"]
    return {"shot_steps": config.shots * len(result)}


def layer_wrappers(tracer: Tracer, fbqrc) -> list:
    """(module, attribute, traced function) for every traced layer entry point.

    Each function is wrapped at every name a caller inside the package
    resolves it by, so calls from any layer are seen exactly once.
    """
    harness, reservoirs, qsim, oracle, readout = (
        fbqrc.harness, fbqrc.reservoirs, fbqrc.qsim, fbqrc.oracle, fbqrc.readout,
    )
    table = [
        (harness, "run_pipeline", "harness.run_pipeline", None),
        (harness, "write_results_csv", "harness.write", None),
        (harness, "write_divergence_csv", "harness.write", None),
        (harness, "gen_uniform", "tasks.series", _series_note),
        (harness, "gen_ising_series", "tasks.series", _series_note),
        (harness, "gen_mackey_glass", "tasks.series", _series_note),
        (harness, "run_proposed_model", "reservoirs.proposed", _proposed_note),
        (harness, "run_esn", "reservoirs.esn", None),
        (harness, "run_feedback_driven_baseline", "reservoirs.feedback_driven", None),
        (harness, "run_mcm_baseline", "reservoirs.mcm", None),
        (reservoirs, "model_unitary", "reservoirs.model_unitary", None),
        (reservoirs, "renormalize_spectral_radius", "reservoirs.spectral_radius", None),
        (reservoirs, "haar_random_unitary", "qsim.haar", _unitary_note),
        (harness, "haar_random_unitary", "qsim.haar", _unitary_note),
        (qsim, "apply_gate", "qsim.apply_gate", None),
        (reservoirs, "apply_gate", "qsim.apply_gate", None),
        (oracle, "apply_gate", "qsim.apply_gate", None),
        (readout, "fit_readout", "readout.fit", None),
        (harness, "r_squared", "metrics.score", None),
        (harness, "nmse", "metrics.score", None),
        (harness, "exact_feature_series_markov", "oracle.markov", None),
        (harness, "exact_cycle_distribution", "oracle.cycle_dist", None),
        (oracle, "exact_cycle_distribution", "oracle.cycle_dist", None),
    ]
    return [(mod, attr, tracer.wrap(getattr(mod, attr), name, note)) for mod, attr, name, note in table]


def recording_pool(job_bytes: list):
    """A ProcessPoolExecutor that appends the pickled size of each submitted job."""

    class RecordingPool(ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            job_bytes.append(len(pickle.dumps((fn, args, kwargs))))
            return super().submit(fn, *args, **kwargs)

    return RecordingPool


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced round (0 where a layer is unused)."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        count[s.name] = count.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        own[s.name] = own.get(s.name, 0.0) + t

    def notes(name, key):
        return [s.note[key] for s in spans if s.name == name]

    def frac(num, den):
        return num / den if den else 0.0

    shot_steps = sum(notes("reservoirs.proposed", "shot_steps"))
    pipeline_ms = [1e3 * s.duration for s in spans if s.name == "harness.run_pipeline"]
    fit_members = {s.member for s in spans if s.name == "readout.fit"}
    p50, p90 = np.percentile(pipeline_ms, [50, 90]) if pipeline_ms else (0.0, 0.0)
    return {
        "reservoirs.proposed_self_s": own.get("reservoirs.proposed", 0.0),
        "reservoirs.shot_steps": shot_steps,
        "reservoirs.ns_per_shot_step": 1e9 * frac(own.get("reservoirs.proposed", 0.0), shot_steps),
        "tasks.series_calls": count.get("tasks.series", 0),
        "tasks.series_s": total.get("tasks.series", 0.0),
        "tasks.unique_series_frac": frac(len(set(notes("tasks.series", "digest"))), count.get("tasks.series", 0)),
        "qsim.haar_calls": count.get("qsim.haar", 0),
        "qsim.unique_haar_frac": frac(len(set(notes("qsim.haar", "digest"))), count.get("qsim.haar", 0)),
        "reservoirs.model_unitary_s": total.get("reservoirs.model_unitary", 0.0),
        "readout.fit_calls": count.get("readout.fit", 0),
        "readout.fits_per_member": frac(count.get("readout.fit", 0), len(fit_members)),
        "readout.fit_s": total.get("readout.fit", 0.0),
        "metrics.score_calls": count.get("metrics.score", 0),
        "metrics.score_s": total.get("metrics.score", 0.0),
        "harness.pipeline_calls": count.get("harness.run_pipeline", 0),
        "harness.pipeline_self_s": own.get("harness.run_pipeline", 0.0),
        "harness.pipeline_p50_ms": float(p50),
        "harness.pipeline_p90_ms": float(p90),
        "harness.write_s": total.get("harness.write", 0.0),
        "qsim.apply_gate_calls": count.get("qsim.apply_gate", 0),
        "qsim.apply_gate_s": total.get("qsim.apply_gate", 0.0),
        "reservoirs.spectral_radius_calls": count.get("reservoirs.spectral_radius", 0),
        "reservoirs.spectral_radius_s": total.get("reservoirs.spectral_radius", 0.0),
        "reservoirs.esn_s": total.get("reservoirs.esn", 0.0),
        "reservoirs.feedback_driven_s": total.get("reservoirs.feedback_driven", 0.0),
        "reservoirs.mcm_s": total.get("reservoirs.mcm", 0.0),
        "oracle.markov_s": total.get("oracle.markov", 0.0),
        "oracle.cycle_dist_calls": count.get("oracle.cycle_dist", 0),
        "oracle.cycle_dist_s": total.get("oracle.cycle_dist", 0.0),
    }
