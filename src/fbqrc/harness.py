"""Experiment orchestration: washout/train/test pipeline, Haar-ensemble
averaging, parameter sweeps, echo-state-property runs, noise sweeps, and
oracle verification, with deterministic seeded parallel execution.

All randomness is derived from one master seed through keyed child
streams, so results are bit-identical across reruns and worker counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import readout
from .errors import ConfigError
from .metrics import esp_divergence, nmse, r_squared
from .oracle import exact_cycle_distribution, exact_feature_series_markov
from .qsim import NoiseSpec, RngStream, all_strings, haar_random_unitary
from .reservoirs import (
    EsnConfig,
    FeedbackDrivenConfig,
    McmBaselineConfig,
    ProposedModelConfig,
    run_esn,
    run_feedback_driven_baseline,
    run_mcm_baseline,
    run_proposed_model,
    sample_cycle_outcomes,
)
from .tasks import IsingParams, MackeyGlassParams, TimeSeries, gen_ising_series, gen_mackey_glass, gen_uniform

MODELS = ("proposed", "proposed_no_reset", "feedback_driven", "mcm_baseline", "esn")
TASKS = ("uniform", "mackey_glass", "ising")

# Fig. 3-style sweep defaults: feedback strength swept at fixed input strength.
DEFAULT_AFB_GRID = (0.0, 0.5, 1.0, 1.3, 1.6, 2.0, 2.5, 3.0)

_MODEL_PARAM_KEYS = {
    "proposed": {"n_qubits", "a_in", "a_fb", "initial_state"},
    "proposed_no_reset": {"n_qubits", "a_in", "a_fb", "initial_state"},
    "feedback_driven": {"n_qubits", "a_in", "a_fb"},
    "mcm_baseline": {"n_system", "n_ancilla", "a", "initial_system_state"},
    "esn": {"dim", "alpha", "spectral_radius"},
}

_TASK_PARAM_KEYS = {
    "uniform": set(),
    "mackey_glass": {f.name for f in fields(MackeyGlassParams)},
    "ising": {f.name for f in fields(IsingParams)},
}


@dataclass
class MetricReport:
    """One scalar metric from one pipeline run."""

    name: str
    value: float
    tau: int | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class ExperimentResult:
    """Per-run metric records plus ensemble aggregates and provenance."""

    records: list
    summary: dict
    config_hash: str
    master_seed: int


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment."""

    model: str = "proposed"
    task: dict = field(default_factory=lambda: {"name": "uniform"})
    tau_list: list = field(default_factory=lambda: [0, -1, -2, -3])
    l_w: int = 25
    l_tr: int = 100
    l_ts: int = 100
    n_unitaries: int = 128
    shots: int = 5000
    master_seed: int = 0
    noise: NoiseSpec = NoiseSpec()
    sweep: dict | None = None
    model_params: dict = field(default_factory=dict)
    lambda_list: list | None = None
    n_runs: int = 5
    series_len: int = 100
    checks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError(f"unknown model '{self.model}'; expected one of {MODELS}")
        if not isinstance(self.task, dict) or "name" not in self.task:
            raise ConfigError("task must be an object with a 'name' key")
        if self.task["name"] not in TASKS:
            raise ConfigError(f"unknown task '{self.task['name']}'; expected one of {TASKS}")
        extra = set(self.task) - {"name"} - _TASK_PARAM_KEYS[self.task["name"]]
        if extra:
            raise ConfigError(f"unknown task parameter(s) for {self.task['name']}: {sorted(extra)}")
        extra = set(self.model_params) - _MODEL_PARAM_KEYS[self.model]
        if extra:
            raise ConfigError(f"unknown model parameter(s) for {self.model}: {sorted(extra)}")
        if self.l_tr < 1 or self.l_ts < 1:
            raise ConfigError("training and test lengths must be >= 1")
        if self.l_w < 0:
            raise ConfigError("washout length must be >= 0")
        if not self.tau_list:
            raise ConfigError("tau_list must be non-empty")
        self.tau_list = [int(t) for t in self.tau_list]
        if self.l_w + min(self.tau_list) < 0:
            raise ConfigError(
                f"washout l_w={self.l_w} too short for the most negative tau "
                f"{min(self.tau_list)}"
            )
        if self.n_unitaries < 1 or self.shots < 1:
            raise ConfigError("n_unitaries and shots must be >= 1")
        if self.sweep is not None:
            extra = set(self.sweep) - {"a_in", "a_fb"}
            if extra:
                raise ConfigError(f"sweep can only cover a_in and a_fb, got {sorted(extra)}")
            if self.model in ("esn", "mcm_baseline"):
                raise ConfigError(f"model '{self.model}' has no a_in/a_fb couplings to sweep")
            for key, grid in self.sweep.items():
                if not isinstance(grid, (list, tuple)) or not grid:
                    raise ConfigError(f"sweep values for {key} must be a non-empty list")
        if self.lambda_list is not None:
            for lam in self.lambda_list:
                if not 0.0 <= lam < 1.0:
                    raise ConfigError(f"noise sweep value {lam} outside [0, 1)")
        if self.n_runs < 2:
            raise ConfigError("echo-state-property analysis needs n_runs >= 2")
        extra = set(self.checks) - {"n_configs", "n_timesteps", "n_cycles"}
        if extra:
            raise ConfigError(f"unknown check parameter(s): {sorted(extra)}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in fields(cls)}
        extra = set(raw) - known
        if extra:
            raise ConfigError(f"unknown config key(s): {sorted(extra)}")
        kwargs = dict(raw)
        if "noise" in kwargs:
            n = kwargs["noise"]
            if not isinstance(n, dict) or set(n) - {"lambda", "enabled"}:
                raise ConfigError("noise must be an object with keys 'lambda' and 'enabled'")
            try:
                kwargs["noise"] = NoiseSpec(lam=float(n.get("lambda", 0.0)), enabled=bool(n.get("enabled", False)))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"malformed config: {exc}") from exc

    def to_dict(self) -> dict:
        out = {
            "model": self.model,
            "task": self.task,
            "tau_list": self.tau_list,
            "l_w": self.l_w,
            "l_tr": self.l_tr,
            "l_ts": self.l_ts,
            "n_unitaries": self.n_unitaries,
            "shots": self.shots,
            "master_seed": self.master_seed,
            "noise": {"lambda": self.noise.lam, "enabled": self.noise.enabled},
            "sweep": self.sweep,
            "model_params": self.model_params,
            "lambda_list": self.lambda_list,
            "n_runs": self.n_runs,
            "series_len": self.series_len,
            "checks": self.checks,
        }
        return out

    def hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(raw)


def generate_task_series(config: ExperimentConfig, length: int) -> TimeSeries:
    """The experiment's driving series; the same for every ensemble member."""
    name = config.task["name"]
    params = {k: v for k, v in config.task.items() if k != "name"}
    if name == "uniform":
        return gen_uniform(length, RngStream(config.master_seed).child("task"))
    if name == "mackey_glass":
        return gen_mackey_glass(length, MackeyGlassParams(**params))
    return gen_ising_series(length, IsingParams(**params))


def _haar_stream(config: ExperimentConfig, unitary_index: int) -> RngStream:
    return RngStream(config.master_seed).child("haar", unitary_index)


def _build_model(config: ExperimentConfig, unitary_index: int, a_in, a_fb, lam, shots):
    """Instantiate the model-specific config for one ensemble member.

    Fields absent from model_params fall back to the dataclass defaults;
    sweep overrides (a_in, a_fb) and the noise override win over both.
    """
    kwargs = dict(config.model_params)
    master = RngStream(config.master_seed)
    if a_in is not None:
        kwargs["a_in"] = a_in
    if a_fb is not None:
        kwargs["a_fb"] = a_fb
    if config.model in ("proposed", "proposed_no_reset"):
        noise = config.noise if lam is None else NoiseSpec(lam=lam, enabled=True)
        return ProposedModelConfig(
            shots=config.shots if shots is None else shots,
            haar_seed=_haar_stream(config, unitary_index),
            noise=noise,
            reset_after_measurement=(config.model == "proposed"),
            **kwargs,
        )
    if config.model == "feedback_driven":
        return FeedbackDrivenConfig(
            haar_seed=_haar_stream(config, unitary_index),
            init_seed=master.child("fb-init", unitary_index),
            **kwargs,
        )
    # remaining models have no a_in/a_fb couplings
    kwargs.pop("a_in", None)
    kwargs.pop("a_fb", None)
    if config.model == "mcm_baseline":
        return McmBaselineConfig(
            shots=config.shots if shots is None else shots,
            haar_seed=_haar_stream(config, unitary_index),
            **kwargs,
        )
    return EsnConfig(
        weight_seed=master.child("esn-weights", unitary_index),
        init_seed=master.child("esn-init", unitary_index),
        **kwargs,
    )


def _run_model(config: ExperimentConfig, model_cfg, inputs, run_rng: RngStream):
    if isinstance(model_cfg, ProposedModelConfig):
        return run_proposed_model(model_cfg, inputs, run_rng)
    if isinstance(model_cfg, FeedbackDrivenConfig):
        return run_feedback_driven_baseline(model_cfg, inputs)
    if isinstance(model_cfg, McmBaselineConfig):
        return run_mcm_baseline(model_cfg, inputs, run_rng)
    return run_esn(model_cfg, inputs)


def run_pipeline(
    config: ExperimentConfig,
    unitary_index: int,
    a_in: float | None = None,
    a_fb: float | None = None,
    lam: float | None = None,
    shots: int | None = None,
    u_haar: np.ndarray | None = None,
) -> list[MetricReport]:
    """One washout/train/test pass for one ensemble member.

    Generates the task series, runs the configured reservoir over all
    l_w + l_tr + l_ts steps, discards the washout rows, fits the linear
    readout on the training rows, and scores the test rows per tau:
    squared correlation for the memory task, NMSE for prediction tasks.
    """
    l_total = config.l_w + config.l_tr + config.l_ts
    max_pos = max(0, max(config.tau_list))
    series = generate_task_series(config, l_total + max_pos)
    inputs = TimeSeries(series.values[:l_total], meta=series.meta)

    model_cfg = _build_model(config, unitary_index, a_in, a_fb, lam, shots)
    run_rng = RngStream(config.master_seed).child(
        "run", unitary_index, repr(a_in), repr(a_fb), -1 if shots is None else shots
    )
    if isinstance(model_cfg, ProposedModelConfig):
        features = run_proposed_model(model_cfg, inputs, run_rng, u_haar=u_haar)
    else:
        features = _run_model(config, model_cfg, inputs, run_rng)

    x_tr = readout.assemble_design_matrix(features, (config.l_w, config.l_w + config.l_tr))
    x_ts = readout.assemble_design_matrix(features, (config.l_w + config.l_tr, l_total))
    train_idx = np.arange(config.l_w, config.l_w + config.l_tr)
    test_idx = np.arange(config.l_w + config.l_tr, l_total)

    is_memory = config.task["name"] == "uniform"
    used_shots = getattr(model_cfg, "shots", 0)
    reports = []
    for tau in config.tau_list:
        y_tr = series.values[train_idx + tau]
        y_ts = series.values[test_idx + tau]
        w = readout.fit_readout(x_tr, y_tr)
        pred = readout.predict(x_ts, w)
        meta = {
            "model": config.model,
            "task": config.task["name"],
            "a_in": getattr(model_cfg, "a_in", 0.0),
            "a_fb": getattr(model_cfg, "a_fb", 0.0),
            "shots": used_shots,
            "unitary_index": unitary_index,
        }
        if lam is not None:
            meta["lambda"] = lam
        if is_memory:
            value, degenerate = r_squared(y_ts, pred, return_flag=True)
            meta["degenerate"] = degenerate
            reports.append(MetricReport("r2", value, tau, meta))
        else:
            reports.append(MetricReport("nmse", nmse(y_ts, pred), tau, meta))
    return reports


def _sweep_grid(config: ExperimentConfig) -> list[tuple[float | None, float | None]]:
    if config.sweep is None:
        return [(None, None)]
    a_in_list = config.sweep.get("a_in", [None])
    a_fb_list = config.sweep.get("a_fb", [None])
    return [(ai, af) for ai in a_in_list for af in a_fb_list]


def check_workers(workers) -> None:
    """Reject a worker count below 1 (a ConfigError, not a silent serial run)."""
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")


def _point_task(config, unitary_index, a_in, a_fb, lam, shots):
    return run_pipeline(config, unitary_index, a_in=a_in, a_fb=a_fb, lam=lam, shots=shots)


def run_ensemble(
    config: ExperimentConfig,
    workers: int = 1,
    lam: float | None = None,
    shots: int | None = None,
) -> ExperimentResult:
    """Pipeline runs for every (sweep point, Haar unitary), aggregated.

    Every generated unitary enters the statistics (no post-selection).
    Results are deterministic for a fixed master seed regardless of the
    worker count: each task derives its own random streams and lands in a
    slot keyed by its indices.
    """
    check_workers(workers)
    grid = _sweep_grid(config)
    jobs = [(pi, ui) for pi in range(len(grid)) for ui in range(config.n_unitaries)]
    results: dict[tuple[int, int], list[MetricReport]] = {}
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                (pi, ui): pool.submit(_point_task, config, ui, grid[pi][0], grid[pi][1], lam, shots)
                for pi, ui in jobs
            }
            for key, fut in futures.items():
                results[key] = fut.result()
    else:
        for pi, ui in jobs:
            results[(pi, ui)] = _point_task(config, ui, grid[pi][0], grid[pi][1], lam, shots)

    records = []
    for pi in range(len(grid)):
        for ui in range(config.n_unitaries):
            for rep in results[(pi, ui)]:
                records.append(
                    {
                        "model": rep.meta["model"],
                        "task": rep.meta["task"],
                        "tau": rep.tau,
                        "a_in": rep.meta["a_in"],
                        "a_fb": rep.meta["a_fb"],
                        "shots": rep.meta["shots"],
                        "unitary_index": rep.meta["unitary_index"],
                        "metric_name": rep.name,
                        "value": rep.value,
                    }
                )
    summary = _aggregate(records, config)
    return ExperimentResult(records, summary, config.hash(), config.master_seed)


def _aggregate(records: list, config: ExperimentConfig) -> dict:
    groups: dict[tuple, list[float]] = {}
    for row in records:
        key = (row["metric_name"], row["tau"], row["a_in"], row["a_fb"], row["shots"])
        groups.setdefault(key, []).append(row["value"])
    ensemble = {}
    for (metric, tau, a_in, a_fb, shots), vals in sorted(groups.items()):
        arr = np.asarray(vals)
        label = f"{metric},tau={tau},a_in={a_in:g},a_fb={a_fb:g},shots={shots}"
        ensemble[label] = {
            "mean": float(arr.mean()),
            "std_of_mean": float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0,
            "n": int(len(arr)),
        }
    return {
        "config_hash": config.hash(),
        "master_seed": config.master_seed,
        "model": config.model,
        "task": config.task["name"],
        "ensemble": ensemble,
    }


def capacity_by_point(result: ExperimentResult) -> dict:
    """Ensemble mean and std-of-mean of the memory capacity per sweep point.

    The capacity of one ensemble member is the sum of its per-tau R^2
    values; statistics are taken over unitaries.
    """
    per_member: dict[tuple, dict[int, float]] = {}
    for row in result.records:
        if row["metric_name"] != "r2":
            continue
        key = (row["a_in"], row["a_fb"], row["shots"], row["unitary_index"])
        per_member.setdefault(key, {})[row["tau"]] = row["value"]
    by_point: dict[tuple, list[float]] = {}
    for (a_in, a_fb, shots, _ui), r2s in per_member.items():
        by_point.setdefault((a_in, a_fb, shots), []).append(sum(r2s.values()))
    out = {}
    for (a_in, a_fb, shots), caps in sorted(by_point.items()):
        arr = np.asarray(caps)
        out[f"a_in={a_in:g},a_fb={a_fb:g},shots={shots}"] = {
            "mean": float(arr.mean()),
            "std_of_mean": float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0,
            "n": int(len(arr)),
        }
    return out


def run_esp_experiment(
    config: ExperimentConfig, n_runs: int | None = None, length: int | None = None
) -> dict:
    """Divergence of the first reservoir-state component across initializations.

    Runs the configured model `n_runs` times with the same fixed random
    parameters (reservoir unitary or weights) and the same uniform input
    sequence, but a different random initial internal state per run, then
    averages the absolute pairwise differences of component 0 over time.
    """
    n_runs = config.n_runs if n_runs is None else n_runs
    length = config.series_len if length is None else length
    if n_runs < 2:
        raise ConfigError("echo-state-property analysis needs n_runs >= 2")
    master = RngStream(config.master_seed)
    inputs = gen_uniform(length, master.child("esp-input"))
    mp = dict(config.model_params)

    runs = []
    for r in range(n_runs):
        run_stream = master.child("esp-run", r)
        if config.model in ("proposed", "proposed_no_reset"):
            cfg = ProposedModelConfig(
                shots=config.shots,
                haar_seed=master.child("haar", 0),
                noise=config.noise,
                reset_after_measurement=(config.model == "proposed"),
                initial_state="haar_random_pure",
                # reference point for the convergence analysis: a_fb = 1.6
                **{"a_fb": 1.6, **{k: v for k, v in mp.items() if k != "initial_state"}},
            )
            feats = run_proposed_model(cfg, inputs, run_stream)
        elif config.model == "feedback_driven":
            cfg = FeedbackDrivenConfig(
                haar_seed=master.child("haar", 0), init_seed=run_stream, **mp
            )
            feats = run_feedback_driven_baseline(cfg, inputs)
        elif config.model == "mcm_baseline":
            cfg = McmBaselineConfig(
                shots=config.shots,
                haar_seed=master.child("haar", 0),
                initial_system_state="haar_random_pure",
                **{k: v for k, v in mp.items() if k != "initial_system_state"},
            )
            feats = run_mcm_baseline(cfg, inputs, run_stream)
        else:
            cfg = EsnConfig(
                weight_seed=master.child("esn-weights", 0), init_seed=run_stream, **mp
            )
            feats = run_esn(cfg, inputs)
        runs.append(feats.values[:, 0].copy())

    curve = esp_divergence(runs)
    return {
        "model": config.model,
        "divergence": curve,
        "runs": runs,
        "initial": float(curve[0]),
        "final": float(curve[-1]),
        "config_hash": config.hash(),
    }


def run_noise_sweep(
    config: ExperimentConfig, lambda_list=None, workers: int = 1
) -> dict[float, ExperimentResult]:
    """The prediction experiment repeated per depolarization strength."""
    check_workers(workers)
    lams = config.lambda_list if lambda_list is None else list(lambda_list)
    if not lams:
        raise ConfigError("noise sweep needs a non-empty lambda_list")
    for lam in lams:
        if not 0.0 <= lam < 1.0:
            raise ConfigError(f"noise sweep value {lam} outside [0, 1)")
    return {float(lam): run_ensemble(config, workers=workers, lam=float(lam)) for lam in lams}


def chi_square_pvalue(counts: np.ndarray, probs: np.ndarray, min_expected: float = 5.0) -> float:
    """Chi-square goodness-of-fit p-value with low-expectation bins pooled."""
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    expected = probs * counts.sum()
    order = np.argsort(expected)[::-1]
    obs, exp = [], []
    pool_o = pool_e = 0.0
    for i in order:
        if expected[i] >= min_expected:
            obs.append(counts[i])
            exp.append(expected[i])
        else:
            pool_o += counts[i]
            pool_e += expected[i]
    if pool_e > 0:
        obs.append(pool_o)
        exp.append(pool_e)
    if len(obs) < 2:
        return 1.0
    from scipy import stats  # imported here: it is most of the package's import time

    obs = np.asarray(obs)
    exp = np.asarray(exp) * obs.sum() / sum(exp)
    return float(stats.chisquare(obs, exp).pvalue)


def run_oracle_check(config: ExperimentConfig) -> dict:
    """Shot simulator vs exact oracles at N=2: feature-series z-scores and
    per-cycle chi-square tests. Returns the summary statistics."""
    checks = {"n_configs": 10, "n_timesteps": 10, "n_cycles": 100, **config.checks}
    master = RngStream(config.master_seed)
    shots = config.shots

    devs = []
    for c in range(checks["n_configs"]):
        prng = master.child("oc-params", c)
        a_in, a_fb = prng.uniform(0.0, 3.0, 2)
        cfg = ProposedModelConfig(n_qubits=2, a_in=float(a_in), a_fb=float(a_fb), shots=shots)
        u = haar_random_unitary(4, master.child("oc-haar", c))
        inputs = gen_uniform(checks["n_timesteps"], master.child("oc-input", c))
        feats = run_proposed_model(cfg, inputs, master.child("oc-run", c), u_haar=u)
        exact = exact_feature_series_markov(cfg, inputs, u_haar=u)
        mu = exact.values
        sigma = np.sqrt(np.maximum(1.0 - mu**2, 0.0) / shots)
        diff = np.abs(feats.values - mu)
        z = np.where(sigma > 0, diff / np.where(sigma > 0, sigma, 1.0), np.where(diff > 0, np.inf, 0.0))
        devs.append(z.ravel())
    devs = np.concatenate(devs)

    pvals = []
    strings = all_strings(2)
    for c in range(checks["n_cycles"]):
        prng = master.child("cy-params", c)
        a_in, a_fb = prng.uniform(0.0, 3.0, 2)
        s = float(prng.random())
        m_prev = strings[int(prng.integers(0, 4))]
        cfg = ProposedModelConfig(n_qubits=2, a_in=float(a_in), a_fb=float(a_fb), shots=shots)
        u = haar_random_unitary(4, master.child("cy-haar", c))
        outcomes = sample_cycle_outcomes(cfg, s, m_prev, u, shots, master.child("cy-run", c))
        counts = np.bincount(outcomes, minlength=4)
        probs = exact_cycle_distribution(s, m_prev, cfg, u)
        pvals.append(chi_square_pvalue(counts, probs))
    pvals = np.asarray(pvals)

    return {
        "config_hash": config.hash(),
        "master_seed": config.master_seed,
        "shots": shots,
        "feature_checks": {
            "n_entries": int(devs.size),
            "max_z": float(devs.max()),
            "frac_within_4sigma": float(np.mean(devs <= 4.0)),
        },
        "cycle_checks": {
            "n_cycles": int(len(pvals)),
            "n_pass": int(np.sum(pvals > 1e-3)),
            "min_pvalue": float(pvals.min()),
        },
    }


# ---------------------------------------------------------------------------
# Result persistence
# ---------------------------------------------------------------------------

RESULT_COLUMNS = ("model", "task", "tau", "a_in", "a_fb", "shots", "unitary_index", "metric_name", "value")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_results_csv(path, records: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(RESULT_COLUMNS) + "\n")
        for row in records:
            fh.write(",".join(_fmt(row[c]) for c in RESULT_COLUMNS) + "\n")


def write_divergence_csv(path, curve: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write("t,mean_abs_diff\n")
        for t, v in enumerate(curve):
            fh.write(f"{t},{float(v):.17g}\n")


def write_summary_json(path, summary: dict) -> None:
    payload = dict(summary)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_outdir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
