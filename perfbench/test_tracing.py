"""Span arithmetic and layer wrapping of the benchmark tracer.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fbqrc  # noqa: E402
from fbqrc.harness import ExperimentConfig, run_ensemble  # noqa: E402
from tracing import Tracer, layer_metrics, layer_self_times, layer_wrappers, patched, self_times  # noqa: E402


def nested_fixture() -> Tracer:
    """A pipeline span [0, 10] holding a proposed-model span [1, 8], which
    holds gate spans [2, 3] and [4, 7]; then a root series span [11, 15]."""
    t = Tracer()
    pipe = t.open("harness.run_pipeline", start=0.0)
    prop = t.open("reservoirs.proposed", start=1.0)
    g1 = t.open("qsim.apply_gate", start=2.0)
    t.close(g1, end=3.0)
    g2 = t.open("qsim.apply_gate", start=4.0)
    t.close(g2, end=7.0)
    t.close(prop, end=8.0)
    t.close(pipe, end=10.0)
    series = t.open("tasks.series", start=11.0)
    t.close(series, end=15.0)
    return t


def test_self_time_is_span_minus_children():
    spans = nested_fixture().spans
    assert self_times(spans) == pytest.approx([10.0 - 7.0, 7.0 - 4.0, 1.0, 3.0, 4.0])


def test_layer_self_times_and_remainder_sum_to_wall():
    layers, rest = layer_self_times(nested_fixture().spans, wall=20.0)
    assert layers == pytest.approx({"harness": 3.0, "reservoirs": 3.0, "qsim": 4.0, "tasks": 4.0})
    assert rest == pytest.approx(20.0 - 10.0 - 4.0)
    assert sum(layers.values()) + rest == pytest.approx(20.0)


def test_spans_carry_parent_and_member():
    spans = nested_fixture().spans
    assert [s.parent for s in spans] == [-1, 0, 1, 1, -1]
    # the outermost member span owns everything nested in it
    assert [s.member for s in spans] == [0, 0, 0, 0, -1]


def test_out_of_order_close_is_rejected():
    t = Tracer()
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)


def test_patched_wraps_at_caller_name_and_restores():
    callee = types.SimpleNamespace(work=lambda x: x + 1)
    original = callee.work
    t = Tracer()
    with patched([(callee, "work", t.wrap(callee.work, "layer.work"))]):
        assert callee.work(1) == 2
    assert callee.work is original
    assert [s.name for s in t.spans] == ["layer.work"]
    assert t.spans[0].duration >= 0.0


def test_patched_restores_after_exception():
    callee = types.SimpleNamespace(work=lambda: None)
    original = callee.work
    with pytest.raises(ValueError):
        with patched([(callee, "work", None)]):
            raise ValueError
    assert callee.work is original


def test_layer_wrappers_leave_results_unchanged_and_restore():
    cfg = ExperimentConfig(l_w=5, l_tr=20, l_ts=20, n_unitaries=1, shots=50, master_seed=3,
                           sweep={"a_fb": [0.0, 1.3]})
    plain = run_ensemble(cfg).records
    t = Tracer()
    wrappers = layer_wrappers(t, fbqrc)
    originals = [getattr(mod, attr) for mod, attr, _ in wrappers]
    with patched(wrappers):
        traced = run_ensemble(cfg).records
    assert traced == plain
    assert [getattr(mod, attr) for mod, attr, _ in wrappers] == originals
    m = layer_metrics(t.spans)
    assert m["harness.pipeline_calls"] == 2
    assert m["readout.fits_per_member"] == len(cfg.tau_list)
    assert m["reservoirs.shot_steps"] == 2 * 50 * 45
    assert m["tasks.unique_series_frac"] == 0.5
