"""The three benchmark workloads and the correctness gates on their outputs.

Each workload runs through the package's public experiment functions and
writes its outputs with the package's own writers, as the CLI does. One
round of a workload is one call of its experiment at one master seed.

Why these three:

- `stm_sweep`: serial STM sweep. Shot sampling in `run_proposed_model` is
  85-95 % of each member and the task layer is a negligible uniform draw,
  so a faster shot engine shows here first; it is the plain
  single-threaded baseline.
- `ising_noise_sweep`: Ising prediction at two depolarization strengths on
  two worker processes. The Ising series (eigendecomposition plus
  propagation) is rebuilt identically for every member, the noisy
  bit-flip branch of the sampler runs, and it is the only workload that
  uses the process pool.
- `esp_oracle`: the five criterion-5 echo-state runs, then the oracle
  check. Its time goes to statevector gate application, the oracle
  kernels, the ESN spectral-radius eigensolve and the no-reset engine
  branch; shot sampling does little, so a sampling-engine change should
  not move it.

Mackey-Glass is left out: its series is about 1 % of a member, and the
Ising workload already covers the task layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from fbqrc import harness
from fbqrc.harness import DEFAULT_AFB_GRID, ExperimentConfig
from fbqrc.oracle import exact_feature_series_markov
from fbqrc.qsim import RngStream
from fbqrc.reservoirs import ProposedModelConfig, run_proposed_model

# The k-th distinct input set of a run uses master seed
# `seed + k * ROUND_SEED_STRIDE`: the first runs at the workload seed
# itself, and rounds with new inputs gain nothing from caches an earlier
# round filled.
ROUND_SEED_STRIDE = 1_000_003

SWEEP = {"a_fb": list(DEFAULT_AFB_GRID)}
STM = dict(
    model="proposed", task={"name": "uniform"}, tau_list=[0, -1, -2, -3],
    l_w=25, l_tr=100, l_ts=100, n_unitaries=2, shots=5000, sweep=SWEEP,
)
ISING = dict(
    model="proposed", task={"name": "ising"}, tau_list=[1],
    l_w=25, l_tr=100, l_ts=100, n_unitaries=2, shots=5000, sweep=SWEEP,
    lambda_list=[0.0, 0.04],
)
# criterion-5 specifications, as the acceptance test runs them
ESP_SPECS = {
    "esn": dict(shots=1, series_len=100, model_params={"dim": 1000}),
    "feedback_driven": dict(shots=1, series_len=100),
    "mcm_baseline": dict(shots=10_000, series_len=10),
    "proposed": dict(shots=10_000, series_len=100, model_params={"a_in": 1.0, "a_fb": 1.6}),
    "proposed_no_reset": dict(shots=10_000, series_len=100, model_params={"a_in": 1.0, "a_fb": 1.6}),
}
ESP_RUNS = 5
# the settings of configs/oracle_check.json
ORACLE = dict(model="proposed", shots=10_000, checks={"n_configs": 10, "n_timesteps": 10, "n_cycles": 100})
# sweep members whose features are compared with the exact Markov oracle
ORACLE_SAMPLED_MEMBERS = 2


@dataclass
class Outputs:
    """Files one round wrote, plus the in-memory results the gates inspect."""

    files: list
    results: dict


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    members: int  # completed members per round
    sizes: dict
    configs: Callable  # master seed -> configs of one round
    run: Callable  # (configs, outdir, workers) -> Outputs
    check: Callable  # Outputs -> [(gate, passed)]
    sample_check: Callable | None = None  # workload seed -> [(gate, passed)]


def round_seed(seed: int, r: int) -> int:
    return seed + r * ROUND_SEED_STRIDE


def digest(files) -> str:
    """sha256 over the bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _sweep_configs(spec: dict) -> Callable:
    return lambda seed: ExperimentConfig(master_seed=seed, **spec)


def _stm_run(cfg, outdir, workers):
    result = harness.run_ensemble(cfg, workers=workers)
    path = os.path.join(outdir, "results.csv")
    harness.write_results_csv(path, result.records)
    return Outputs([path], {"results": [result]})


def _ising_run(cfg, outdir, workers):
    per_lambda = harness.run_noise_sweep(cfg, workers=workers)
    files = []
    for lam, result in per_lambda.items():
        path = os.path.join(outdir, f"results_lambda_{lam:g}.csv")
        harness.write_results_csv(path, result.records)
        files.append(path)
    return Outputs(files, {"results": list(per_lambda.values())})


def _value_ok(name: str, value: float) -> bool:
    if not math.isfinite(value):
        return False
    if name == "r2":
        return 0.0 <= value <= 1.0
    return name == "nmse" and value >= 0.0


def check_sweep_values(outputs: Outputs) -> list:
    """One gate per member: every R^2 in [0, 1] and every NMSE finite and >= 0."""
    gates = []
    for result in outputs.results["results"]:
        members: dict = {}
        for row in result.records:
            key = (row["a_in"], row["a_fb"], row["unitary_index"])
            members.setdefault(key, []).append(_value_ok(row["metric_name"], row["value"]))
        gates += [("metric_in_range", all(oks)) for oks in members.values()]
    return gates


def features_within_4sigma(cfg: ProposedModelConfig, inputs, rng: RngStream) -> float:
    """Share of shot-feature entries within 4 sigma of the exact Markov oracle.

    Sigma is the binomial shot-noise standard deviation sqrt((1 - mu^2) / shots),
    the rule `run_oracle_check` applies.
    """
    feats = run_proposed_model(cfg, inputs, rng).values
    mu = exact_feature_series_markov(cfg, inputs).values
    sigma = np.sqrt(np.maximum(1.0 - mu**2, 0.0) / cfg.shots)
    diff = np.abs(feats - mu)
    within = np.where(sigma > 0, diff <= 4.0 * sigma, diff == 0.0)
    return float(np.mean(within))


def sampled_members_gate(workload_cfg: Callable) -> Callable:
    """Gate: noiseless features of a few seeded sweep members match the oracle."""

    def gate(seed: int) -> list:
        cfg = workload_cfg(seed)
        pick = random.Random(seed)
        l_total = cfg.l_w + cfg.l_tr + cfg.l_ts
        series = harness.generate_task_series(cfg, l_total + max(0, max(cfg.tau_list)))
        inputs = series.values[:l_total]
        gates = []
        for k in range(ORACLE_SAMPLED_MEMBERS):
            a_fb = pick.choice(cfg.sweep["a_fb"])
            ui = pick.randrange(cfg.n_unitaries)
            model = ProposedModelConfig(
                a_fb=a_fb, shots=cfg.shots, haar_seed=RngStream(seed).child("haar", ui)
            )
            frac = features_within_4sigma(model, inputs, RngStream(seed).child("bench-oracle", k))
            gates.append(("features_within_4sigma", frac >= 0.99))
        return gates

    return gate


# ---------------------------------------------------------------------------
# Echo-state runs and the oracle check
# ---------------------------------------------------------------------------


def _esp_configs(seed):
    esp = {m: ExperimentConfig(model=m, master_seed=seed, n_runs=ESP_RUNS, **kw) for m, kw in ESP_SPECS.items()}
    return esp, ExperimentConfig(master_seed=seed, **ORACLE)


def _esp_run(cfgs, outdir, workers):
    esp_cfgs, oracle_cfg = cfgs
    reports, files = {}, []
    for model, cfg in esp_cfgs.items():
        reports[model] = harness.run_esp_experiment(cfg)
        path = os.path.join(outdir, f"divergence_{model}.csv")
        harness.write_divergence_csv(path, reports[model]["divergence"])
        files.append(path)
    oracle = harness.run_oracle_check(oracle_cfg)
    path = os.path.join(outdir, "oracle_check.json")
    with open(path, "w") as fh:
        json.dump(oracle, fh, sort_keys=True)
    files.append(path)
    return Outputs(files, {"esp": reports, "oracle": oracle})


def check_esp_oracle(outputs: Outputs) -> list:
    """Criterion-5 inequalities and the `fbqrc oracle-check` pass rule.

    The mid-circuit baseline is gated on decay (0 < final < initial) only:
    its "below 10 % of initial" clause holds at the acceptance seed but
    not at every seed (see NOTES.md), so it is not a property of a correct
    program.
    """
    esp, oracle = outputs.results["esp"], outputs.results["oracle"]

    def ratio_below(model, bound):
        r = esp[model]
        return 0.0 <= r["final"] < bound * r["initial"]

    no_reset = np.asarray(esp["proposed_no_reset"]["divergence"])
    feature, cycle = oracle["feature_checks"], oracle["cycle_checks"]
    return [
        ("esp_esn_below_1e-6", ratio_below("esn", 1e-6)),
        ("esp_feedback_driven_below_10pct", ratio_below("feedback_driven", 0.10)),
        ("esp_mcm_decays", 0.0 < esp["mcm_baseline"]["final"] < esp["mcm_baseline"]["initial"]),
        ("esp_proposed_decays", 0.0 < esp["proposed"]["final"] < esp["proposed"]["initial"]),
        ("esp_no_reset_curve", no_reset.shape == (ESP_SPECS["proposed_no_reset"]["series_len"],)
         and bool(np.all(np.isfinite(no_reset)))),
        ("oracle_check_pass", feature["frac_within_4sigma"] >= 0.99
         and cycle["n_pass"] >= 0.98 * cycle["n_cycles"]),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stm_sweep", workers=1,
            members=len(DEFAULT_AFB_GRID) * STM["n_unitaries"],
            sizes=STM, configs=_sweep_configs(STM), run=_stm_run, check=check_sweep_values,
            sample_check=sampled_members_gate(_sweep_configs(STM)),
        ),
        Workload(
            "ising_noise_sweep", workers=2,
            members=len(ISING["lambda_list"]) * len(DEFAULT_AFB_GRID) * ISING["n_unitaries"],
            sizes=ISING, configs=_sweep_configs(ISING), run=_ising_run, check=check_sweep_values,
            sample_check=sampled_members_gate(_sweep_configs(ISING)),
        ),
        Workload(
            "esp_oracle", workers=1,
            members=len(ESP_SPECS) * ESP_RUNS + ORACLE["checks"]["n_configs"] + ORACLE["checks"]["n_cycles"],
            sizes={"esp_specs": ESP_SPECS, "esp_runs": ESP_RUNS, "oracle": ORACLE},
            configs=_esp_configs, run=_esp_run, check=check_esp_oracle,
        ),
    )
}
