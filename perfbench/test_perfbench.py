"""Tests of the benchmark's own code: ``python3 -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("n", [11, 12, 50, 199, 200, 201, 1000])
def test_tail_has_ten_samples_beyond(n):
    xs = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, percentile = harness.tail_latency(xs)
    beyond = sum(x > value for x in xs)
    assert beyond >= 10
    assert percentile <= 95.0
    # the highest rank that qualifies: one rank higher would leave too few
    assert beyond == 10 or percentile == 95.0


def test_tail_is_p95_when_samples_allow():
    xs = [float(i) for i in range(1, 1001)]
    assert harness.tail_latency(xs) == (950.0, 95.0)


def test_tail_needs_eleven_samples():
    assert harness.tail_latency([1.0] * 10) is None


def test_self_time_is_span_minus_child_coverage():
    # root [0, 10]; a [1, 4] and b [3, 6] overlap; c [8, 12] overruns the
    # root; d [2, 3] sits inside a.
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = harness.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 3; a: 3 - 1; b, c, d have no children
    np.testing.assert_allclose(got, [3.0, 2.0, 3.0, 4.0, 1.0])


def test_host_slowdown_brackets_each_op():
    speed = harness.HostSpeed(harness.PausableClock())
    ref = harness.HostSpeed.REFERENCE_S
    # probes at boundaries 0, 2 and 3 of five; ops run between boundaries
    speed.samples = [(0, 1.0 * ref), (2, 3.0 * ref), (3, 2.0 * ref)]
    np.testing.assert_allclose(speed.slowdown(5), [2.0, 2.0, 2.5, 2.0])


def test_host_speed_probes_at_most_every_interval():
    clock = harness.PausableClock()
    speed = harness.HostSpeed(clock, every=3600.0)
    for index in range(5):
        speed.at_boundary(index)
    assert [i for i, _ in speed.samples] == [0]
    assert speed.samples[0][1] > 0.0


def test_tracer_counts_nests_and_restores():
    from flowstage import flow_policy, numerics
    from flowstage.numerics import RandomSource

    original = flow_policy.mlp_forward
    policy = flow_policy.init_flow_policy(flow_policy.PolicyDims(), rng=RandomSource(0))
    x = np.zeros(policy.dims.state_size)
    with harness.Tracer("flowstage", ["flow_policy", "numerics", "kernels"]) as tracer:
        for _ in range(3):
            flow_policy.velocity(policy, x, 0.5, 1)
    assert flow_policy.mlp_forward is original is numerics.mlp_forward
    s = tracer.summary()
    assert s["flow_policy.velocity"]["calls"] == 3
    assert s["numerics.mlp_forward"]["calls"] == 3
    assert s["kernels.forward"]["calls"] == 3
    v = s["flow_policy.velocity"]
    inner = s["numerics.mlp_forward"]["ms"]
    assert v["self_ms"] == pytest.approx(v["ms"] - inner, abs=1e-9)
    total_self = sum(e["self_ms"] for e in s.values())
    assert total_self == pytest.approx(v["ms"], rel=1e-9)


def test_missing_hook_target_names_it():
    with pytest.raises(harness.HookError, match="flowstage.grpo.no_such_step"):
        harness.OpClock("flowstage.grpo", "no_such_step")


def test_per_layer_names_parse():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specials = {"trace_overhead_frac", "trace_self_coverage", "rewards.flagged_frac"}
    for entry in spec["per_layer"]:
        name = entry["name"]
        assert name in specials or name.rsplit(".", 1)[1] in ("calls", "ms", "self_ms", "rows")


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["grpo_default", "sample_wide", "audit_csv"])
def test_tiny_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--tiny"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "grpo_default", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
