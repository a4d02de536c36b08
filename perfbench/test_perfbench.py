"""Tests of the benchmark itself: span arithmetic, transparency, declarations."""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

from perfbench import layers, workloads
from perfbench.tracing import Span, Tracer, percentile, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_self_time_on_hand_built_tree():
    spans = [
        Span("root", 0, 100),
        Span("a", 10, 40, parent=0, root=0),
        Span("a.child", 15, 25, parent=1, root=0),
        Span("c", 35, 60, parent=0, root=0),   # overlaps a and b
        Span("b", 50, 90, parent=0, root=0),
        Span("late", 95, 120, parent=0, root=0),  # runs past its parent
    ]
    # root: children cover 10..90 and 95..100 -> 85 of 100
    assert self_times(spans) == [15, 20, 10, 25, 40, 25]


def test_percentile_interpolates():
    assert percentile([], 50) == 0.0
    assert percentile([4.0], 90) == 4.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(range(11), 90) == pytest.approx(9.0)


def test_wrap_records_nesting_and_restores():
    mod = types.ModuleType("pkg.fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", observe=lambda a, k, r: {"arg": a[0]})
    tracer.wrap(mod, "outer", name=lambda a, k: f"outer.{a[0]}")
    with tracer.span("cli.run"):
        assert mod.outer(3) == 8
    tracer.restore()
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.root) for s in tracer.spans]
    assert names == [("cli.run", -1, 0), ("outer.3", 0, 0), ("fake.inner", 1, 0)]
    assert tracer.spans[2].attrs == {"arg": 3}
    assert all(s.end >= s.start for s in tracer.spans)


def test_ini_is_a_function_of_the_seed():
    plan = workloads.FULL
    one = workloads.make_ini("game", 1, "out", plan)
    assert one == workloads.make_ini("game", 1, "out", plan)
    assert one != workloads.make_ini("game", 2, "out", plan)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_is_transparent(workload, tmp_path):
    runner = workloads.Runner(workload, 5, workloads.SMALL, str(tmp_path))
    runner.set_up()
    runner.op()
    untraced = runner.snapshot()
    tracer = Tracer()
    layers.instrument(tracer)
    runner.tracer = tracer
    try:
        runner.op()
    finally:
        tracer.restore()
    assert runner.failed == {}
    assert len(untraced) == len(runner.artifacts())
    assert runner.snapshot() == untraced
    assert any(s.name.startswith("nn.conv1d.") for s in tracer.spans)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_printed_metrics_are_declared(workload, trace, tmp_path):
    spec = load_spec()
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    result = workloads.run(workload, 3, 0.2, trace, str(tmp_path / "w"),
                           workloads.SMALL)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(declared)
    unit = layers.unit_of if trace else workloads.E2E_UNITS.get
    for name, value in result["metrics"].items():
        assert declared[name]["unit"] == unit(name), name
        assert declared[name]["better"] in ("lower", "higher")
        assert isinstance(value, (int, float))
        if not trace:
            assert value > 0, name


def test_benchmark_json_shape():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in spec["per_layer"])


def test_tree_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
