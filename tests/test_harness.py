"""Tests for experiment orchestration, persistence, and the CLI."""

import json
import os

import numpy as np
import pytest

from fbqrc import harness
from fbqrc.cli import main as cli_main
from fbqrc.errors import ConfigError
from fbqrc.harness import (
    ExperimentConfig,
    capacity_by_point,
    chi_square_pvalue,
    generate_task_series,
    load_config,
    run_ensemble,
    run_esp_experiment,
    run_noise_sweep,
    run_oracle_check,
    run_pipeline,
    write_results_csv,
)
from fbqrc.metrics import r_squared


def small_config(**overrides):
    base = dict(
        model="proposed",
        task={"name": "uniform"},
        tau_list=[0, -1],
        l_w=5,
        l_tr=30,
        l_ts=30,
        n_unitaries=3,
        shots=300,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "proposed", "bogus": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "proposed", "task": {"name": "uniform", "k": 2}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "proposed", "model_params": {"dim": 10}})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "nope"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"model": "proposed", "task": {"name": "unknown"}})
    with pytest.raises(ConfigError):
        small_config(l_tr=0)
    with pytest.raises(ConfigError):
        small_config(tau_list=[-10])  # washout too short for the delay
    with pytest.raises(ConfigError):
        small_config(sweep={"bogus": [1.0]})
    with pytest.raises(ConfigError):
        small_config(model="esn", sweep={"a_fb": [1.0]})
    with pytest.raises(ConfigError):
        small_config(lambda_list=[0.5, 1.2])


def test_config_load_and_hash_stability(tmp_path):
    raw = {
        "model": "proposed",
        "task": {"name": "ising"},
        "tau_list": [1],
        "master_seed": 5,
        "noise": {"lambda": 0.04, "enabled": True},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    assert cfg.noise.lam == 0.04 and cfg.noise.enabled
    assert cfg.hash() == load_config(path).hash()
    assert cfg.hash() != small_config().hash()


def test_config_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_task_series_generation_is_deterministic():
    cfg = small_config()
    a = generate_task_series(cfg, 40)
    b = generate_task_series(cfg, 40)
    assert np.array_equal(a.values, b.values)
    ising = generate_task_series(small_config(task={"name": "ising"}), 40)
    assert len(ising) == 40


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def test_pipeline_dead_reservoir_flags_degenerate():
    """a_in = a_fb = 0 with the identity unitary gives constant features."""
    cfg = small_config(tau_list=[-1])
    reports = run_pipeline(cfg, 0, a_in=0.0, a_fb=0.0, u_haar=np.eye(4))
    assert reports[0].value == 0.0
    assert reports[0].meta["degenerate"] is True


def test_pipeline_alignment_no_off_by_one():
    """The feature row predicting target k is the reservoir output of step k:
    the aligned tau=0 fit beats a deliberately shifted one."""
    cfg = small_config(tau_list=[0], l_tr=80, l_ts=80, shots=2000, n_unitaries=1)
    reports = run_pipeline(cfg, 0)
    aligned = reports[0].value

    from fbqrc import readout
    from fbqrc.harness import _build_model
    from fbqrc.qsim import RngStream
    from fbqrc.reservoirs import run_proposed_model
    from fbqrc.tasks import TimeSeries

    l_total = cfg.l_w + cfg.l_tr + cfg.l_ts
    series = generate_task_series(cfg, l_total)
    model_cfg = _build_model(cfg, 0, None, None, None, None)
    rng = RngStream(cfg.master_seed).child("run", 0, repr(None), repr(None), -1)
    feats = run_proposed_model(model_cfg, TimeSeries(series.values[:l_total]), rng)
    x_tr = readout.assemble_design_matrix(feats, (cfg.l_w, cfg.l_w + cfg.l_tr))
    x_ts = readout.assemble_design_matrix(feats, (cfg.l_w + cfg.l_tr, l_total))
    # shift targets by one step relative to the features
    y_tr = series.values[np.arange(cfg.l_w, cfg.l_w + cfg.l_tr) - 1]
    y_ts = series.values[np.arange(cfg.l_w + cfg.l_tr, l_total) - 1]
    w = readout.fit_readout(x_tr, y_tr)
    shifted = r_squared(y_ts, readout.predict(x_ts, w))
    assert aligned > 0.5
    assert aligned > shifted + 0.2


def test_pipeline_memory_task_reports_r2_and_prediction_reports_nmse():
    mem = run_pipeline(small_config(), 0)
    assert {r.name for r in mem} == {"r2"}
    pred = run_pipeline(small_config(task={"name": "mackey_glass"}, tau_list=[1]), 0)
    assert {r.name for r in pred} == {"nmse"}


def test_pipeline_esn_on_mackey_glass():
    """The tuned network forecasts the chaotic series well (NMSE < 1e-2)."""
    cfg = ExperimentConfig(
        model="esn",
        task={"name": "mackey_glass"},
        tau_list=[1],
        l_w=100,
        l_tr=400,
        l_ts=200,
        n_unitaries=1,
        shots=1,
        master_seed=3,
    )
    reports = run_pipeline(cfg, 0)
    assert reports[0].value < 1e-2


# ---------------------------------------------------------------------------
# Ensembles
# ---------------------------------------------------------------------------

def test_ensemble_record_count_invariant():
    cfg = small_config(sweep={"a_fb": [0.5, 1.3]})
    result = run_ensemble(cfg)
    assert len(result.records) == cfg.n_unitaries * len(cfg.tau_list) * 2
    for row in result.records:
        assert set(row) == {
            "model", "task", "tau", "a_in", "a_fb", "shots", "unitary_index",
            "metric_name", "value",
        }


def test_ensemble_single_unitary_mean_equals_run():
    cfg = small_config(n_unitaries=1)
    result = run_ensemble(cfg)
    reports = run_pipeline(cfg, 0)
    for rep in reports:
        key = f"r2,tau={rep.tau},a_in=1,a_fb=1.3,shots=300"
        assert result.summary["ensemble"][key]["mean"] == rep.value
        assert result.summary["ensemble"][key]["std_of_mean"] == 0.0


def test_ensemble_std_of_mean_shrinks_with_more_unitaries():
    """Sample std of the mean scales roughly 1/sqrt(n) from 8 to 32 members."""
    caps = []
    for n in (8, 32):
        cfg = small_config(n_unitaries=n, shots=200, tau_list=[0, -1])
        result = run_ensemble(cfg)
        key = "r2,tau=0,a_in=1,a_fb=1.3,shots=200"
        caps.append(result.summary["ensemble"][key]["std_of_mean"])
    ratio = caps[1] / caps[0]
    assert 0.2 < ratio < 1.0  # noisy estimate of the ideal 0.5


def test_ensemble_worker_counts_agree(tmp_path):
    cfg = small_config(n_unitaries=4)
    outs = []
    for workers in (1, 2, 3):
        result = run_ensemble(cfg, workers=workers)
        path = tmp_path / f"w{workers}.csv"
        write_results_csv(path, result.records)
        outs.append(path.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_count_must_be_positive(workers, tmp_path, monkeypatch):
    """A worker count below 1 is refused before any job or process starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started despite an invalid worker count")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(harness, "_point_task", refuse)
    cfg = small_config(task={"name": "ising"}, tau_list=[1], n_unitaries=2)
    with pytest.raises(ConfigError):
        run_ensemble(cfg, workers=workers)
    with pytest.raises(ConfigError):
        run_noise_sweep(cfg, lambda_list=[0.0], workers=workers)
    path = write_cfg(tmp_path, "esp.json", {"model": "esn", "model_params": {"dim": 20}})
    for command in ("stm", "esp"):
        out = str(tmp_path / command)
        assert cli_main([command, "--config", path, "--out", out, "--workers", str(workers)]) == 2


def test_capacity_by_point_matches_manual_sum():
    cfg = small_config()
    result = run_ensemble(cfg)
    caps = capacity_by_point(result)
    key = "a_in=1,a_fb=1.3,shots=300"
    manual = {}
    for row in result.records:
        manual.setdefault(row["unitary_index"], 0.0)
        manual[row["unitary_index"]] += row["value"]
    assert caps[key]["mean"] == pytest.approx(np.mean(list(manual.values())), abs=1e-12)


# ---------------------------------------------------------------------------
# Noise sweep
# ---------------------------------------------------------------------------

def test_noise_sweep_lambda_zero_bit_identical_to_noiseless():
    cfg = small_config(task={"name": "ising"}, tau_list=[1], n_unitaries=2)
    clean = run_ensemble(cfg)
    swept = run_noise_sweep(cfg, lambda_list=[0.0])
    assert [r["value"] for r in swept[0.0].records] == [r["value"] for r in clean.records]


def test_noise_sweep_runs_each_lambda():
    cfg = small_config(task={"name": "ising"}, tau_list=[1], n_unitaries=2)
    swept = run_noise_sweep(cfg, lambda_list=[0.0, 0.04])
    assert set(swept) == {0.0, 0.04}
    with pytest.raises(ConfigError):
        run_noise_sweep(cfg, lambda_list=[])


# ---------------------------------------------------------------------------
# ESP experiments
# ---------------------------------------------------------------------------

def test_esp_identical_initializations_give_zero_divergence():
    """All runs share every random draw when the run streams coincide."""
    cfg = small_config(model="esn", model_params={"dim": 40}, n_runs=2, series_len=30)
    report = run_esp_experiment(cfg)
    assert report["divergence"].shape == (30,)
    assert report["initial"] > 0.0  # different init draws actually differ
    runs = report["runs"]
    assert not np.array_equal(runs[0], runs[1])


def test_esp_curve_is_produced_for_every_model():
    for model, shots, length in (
        ("proposed", 400, 12),
        ("proposed_no_reset", 400, 12),
        ("feedback_driven", 1, 12),
        ("mcm_baseline", 400, 6),
        ("esn", 1, 12),
    ):
        cfg = small_config(
            model=model, shots=shots, series_len=length, n_runs=3,
            model_params={"dim": 30} if model == "esn" else {},
        )
        report = run_esp_experiment(cfg)
        assert report["divergence"].shape == (length,)
        assert np.all(report["divergence"] >= 0)


# ---------------------------------------------------------------------------
# Verification helpers
# ---------------------------------------------------------------------------

def test_chi_square_pvalue_pools_small_bins():
    counts = np.array([9900.0, 100.0, 0.0, 0.0])
    probs = np.array([0.99, 0.01, 1e-9, 1e-9])
    p = chi_square_pvalue(counts, probs)
    assert 0.0 <= p <= 1.0
    uniform = chi_square_pvalue(np.array([2500, 2500, 2500, 2500]), np.full(4, 0.25))
    assert uniform > 0.9


def test_oracle_check_smoke():
    cfg = small_config(shots=2000, checks={"n_configs": 2, "n_timesteps": 4, "n_cycles": 5})
    report = run_oracle_check(cfg)
    assert report["feature_checks"]["frac_within_4sigma"] >= 0.95
    assert report["cycle_checks"]["n_pass"] >= 4


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_stm_writes_outputs(tmp_path):
    cfg = write_cfg(
        tmp_path, "stm.json",
        {"model": "proposed", "task": {"name": "uniform"}, "tau_list": [0, -1],
         "l_w": 5, "l_tr": 20, "l_ts": 20, "n_unitaries": 2, "shots": 200, "master_seed": 1},
    )
    out = str(tmp_path / "out")
    assert cli_main(["stm", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "results.csv")).read().splitlines()
    assert rows[0] == "model,task,tau,a_in,a_fb,shots,unitary_index,metric_name,value"
    assert len(rows) == 1 + 2 * 2
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert "memory_capacity" in summary and "ensemble" in summary


def test_cli_predict_and_esp_and_noise(tmp_path):
    pred_cfg = write_cfg(
        tmp_path, "pred.json",
        {"model": "proposed", "task": {"name": "ising"}, "tau_list": [1],
         "l_w": 5, "l_tr": 20, "l_ts": 20, "n_unitaries": 2, "shots": 200, "master_seed": 1},
    )
    out1 = str(tmp_path / "pred_out")
    assert cli_main(["predict", "--config", pred_cfg, "--out", out1]) == 0
    assert os.path.exists(os.path.join(out1, "results.csv"))

    esp_cfg = write_cfg(
        tmp_path, "esp.json",
        {"model": "esn", "model_params": {"dim": 30}, "n_runs": 3, "series_len": 20,
         "master_seed": 2},
    )
    out2 = str(tmp_path / "esp_out")
    assert cli_main(["esp", "--config", esp_cfg, "--out", out2]) == 0
    lines = open(os.path.join(out2, "divergence.csv")).read().splitlines()
    assert lines[0] == "t,mean_abs_diff"
    assert len(lines) == 21

    noise_cfg = write_cfg(
        tmp_path, "noise.json",
        {"model": "proposed", "task": {"name": "ising"}, "tau_list": [1],
         "l_w": 5, "l_tr": 15, "l_ts": 15, "n_unitaries": 2, "shots": 150,
         "master_seed": 3, "lambda_list": [0.0, 0.04]},
    )
    out3 = str(tmp_path / "noise_out")
    assert cli_main(["noise", "--config", noise_cfg, "--out", out3]) == 0
    assert os.path.exists(os.path.join(out3, "lambda_0", "results.csv"))
    assert os.path.exists(os.path.join(out3, "lambda_0.04", "results.csv"))


def test_cli_oracle_check(tmp_path):
    cfg = write_cfg(
        tmp_path, "oc.json",
        {"model": "proposed", "shots": 2000, "master_seed": 4,
         "checks": {"n_configs": 2, "n_timesteps": 3, "n_cycles": 4}},
    )
    out = str(tmp_path / "oc_out")
    assert cli_main(["oracle-check", "--config", cfg, "--out", out]) == 0
    summary = json.loads(open(os.path.join(out, "summary.json")).read())
    assert summary["pass"] is True


def test_cli_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, "bad.json", {"model": "proposed", "bogus": True})
    assert cli_main(["stm", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    mismatch = write_cfg(tmp_path, "mm.json", {"model": "proposed", "task": {"name": "ising"}})
    assert cli_main(["stm", "--config", mismatch, "--out", str(tmp_path / "y")]) == 2


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path, "det.json",
        {"model": "proposed", "task": {"name": "uniform"}, "tau_list": [0],
         "l_w": 5, "l_tr": 15, "l_ts": 15, "n_unitaries": 2, "shots": 100, "master_seed": 9},
    )
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert cli_main(["stm", "--config", cfg, "--out", out]) == 0
        outs.append(open(os.path.join(out, "results.csv"), "rb").read())
    assert outs[0] == outs[1]
