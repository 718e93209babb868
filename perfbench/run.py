"""Benchmark of the flowstage CLI: three workloads, run in-process through
``cli.main``, one workload per process.

    python3 perfbench/run.py --workload grpo_default --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` it reports the
per-layer metrics from a traced run (half the time untraced, half
traced).  Scratch files go to ``.bench_work/`` in the checkout.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from harness import HookError, HostSpeed, OpClock, PausableClock, Tracer, tail_latency

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
LAYERS = ("cli", "config", "grpo", "flow_policy", "numerics", "kernels", "rewards",
          "curriculum", "bias_audit")

# Claims tuned on some seeds are re-checked on this one, which no change
# may be tuned on.
HELD_OUT_SEED = 9001

FULL = {
    "pretrain_steps": 1000,   # the set-up checkpoint
    "train_steps": 50,        # grpo_default steps per invocation
    "checkpoint_interval": 10,
    "eval_groups": 32,        # sample_wide groups per invocation
    "wide_group": 64,
    "audit_items": 2000,
    "audit_features": 32,
    "audit_k": 16,
    "setup_probes": 5,
}
TINY = dict(FULL, pretrain_steps=40, train_steps=4, checkpoint_interval=2, eval_groups=2,
            wide_group=8, audit_items=200, audit_k=4, setup_probes=1)


class CheckFailed(Exception):
    """A program output failed a correctness check."""


def import_program():
    """Import ``flowstage`` from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "flowstage"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no program source at {pkg}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import flowstage
    if Path(flowstage.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported flowstage from {flowstage.__file__}, not {pkg}")
    from flowstage import cli
    return cli


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _need(outdir: Path, *names) -> None:
    for name in ("resolved_config.json",) + names:
        if not (outdir / name).is_file():
            raise CheckFailed(f"missing output {name}")


def _unit_interval(values, what) -> None:
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all() or values.min() < 0.0 or values.max() > 1.0:
        raise CheckFailed(f"{what} not finite or outside [0, 1]")


def last_tenth_loss(path: Path, steps: int) -> float:
    with open(path, newline="") as fp:
        losses = [float(row["loss"]) for row in csv.DictReader(fp)]
    if len(losses) != steps or not np.isfinite(losses).all():
        raise CheckFailed(f"pretrain_loss.csv: want {steps} finite losses, got {len(losses)} rows")
    return float(np.mean(losses[-max(1, steps // 10):]))


def check_train(outdir: Path, size: dict, ctx: dict) -> float:
    steps, every = size["train_steps"], size["checkpoint_interval"]
    _need(outdir, "policy_final.ckpt", "trainlog.csv", "trainlog.jsonl",
          *(f"policy_step{s:05d}.ckpt" for s in range(every, steps + 1, every)))
    with open(outdir / "trainlog.jsonl") as fp:
        terms = [json.loads(line)["term_means"] for line in fp]
    if len(terms) != steps:
        raise CheckFailed(f"trainlog has {len(terms)} steps, want {steps}")
    _unit_interval(terms, "training reward")
    return float(np.mean(terms))


def check_eval(outdir: Path, size: dict, ctx: dict) -> float:
    _need(outdir, "eval_stats.json", "eval_groups.csv")
    with open(outdir / "eval_stats.json") as fp:
        stats = json.load(fp)
    with open(outdir / "eval_groups.csv", newline="") as fp:
        rows = list(csv.DictReader(fp))
    if stats["group_size"] != size["wide_group"] or len(rows) != size["eval_groups"]:
        raise CheckFailed("eval outputs do not match the configured group count and size")
    terms = stats["terms"]
    _unit_interval([t[k] for t in terms for k in ("min", "max", "mean")], "eval reward")
    return float(np.mean([t["mean"] for t in terms]))


def check_audit(outdir: Path, size: dict, ctx: dict) -> float:
    _need(outdir, "audit_report.json", "audit_clusters.csv")
    with open(outdir / "audit_report.json") as fp:
        report = json.load(fp)
    sizes = np.array([c["size"] for c in report["clusters"]])
    means = np.array([c["mean"] for c in report["clusters"]])
    if report["k"] != size["audit_k"] or len(sizes) != size["audit_k"]:
        raise CheckFailed(f"audit reports {len(sizes)} clusters, want {size['audit_k']}")
    if int(sizes.sum()) != size["audit_items"] or (sizes < 1).any():
        raise CheckFailed(f"cluster sizes sum to {int(sizes.sum())}, want {size['audit_items']}")
    if not math.isfinite(report["inter_cluster_cov"]):
        raise CheckFailed("inter_cluster_cov is not finite")
    mean = float(sizes @ means) / float(sizes.sum())
    if not math.isclose(mean, ctx["score_mean"], rel_tol=1e-9):
        raise CheckFailed(f"cluster means average to {mean}, items to {ctx['score_mean']}")
    return mean


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``boundary`` is the public function called exactly once per op;
    ``first_op`` is the first function an op calls (where set-up ends);
    ``units`` is the work one op completes; ``check``
    validates an invocation's outputs and returns its behaviour value,
    which must repeat bit for bit across invocations at one seed.
    """

    mode: str
    boundary: tuple
    first_op: tuple
    ops: Callable
    units: Callable
    config: Callable
    check: Callable


WORKLOADS = {
    # The paper's loop: GRPO at the default config from a pretrained
    # checkpoint, with checkpoints written mid-run.
    "grpo_default": Workload(
        mode="train",
        boundary=("flowstage.grpo", "train_step"),
        first_op=("flowstage.grpo", "train_step"),
        ops=lambda s: s["train_steps"],
        units=lambda s: 16,  # the default group of 16 rollouts
        config=lambda s, ctx: {
            "policy": {"init_checkpoint": ctx["checkpoint"]},
            "train": {"num_steps": s["train_steps"],
                      "checkpoint_interval": s["checkpoint_interval"]}},
        check=check_train,
    ),
    # Sampling only, with a group four times the default width.
    "sample_wide": Workload(
        mode="eval",
        boundary=("flowstage.cli", "eval_group"),
        first_op=("flowstage.cli", "sde_sample"),
        ops=lambda s: s["eval_groups"],
        units=lambda s: s["wide_group"],
        config=lambda s, ctx: {
            "policy": {"init_checkpoint": ctx["checkpoint"]},
            "train": {"group_size": s["wide_group"]},
            "eval": {"num_groups": s["eval_groups"]}},
        check=check_eval,
    ),
    # The only workload that touches bias_audit; no training code runs.
    "audit_csv": Workload(
        mode="audit",
        boundary=("flowstage.cli", "read_items_csv"),
        first_op=("flowstage.cli", "read_items_csv"),
        ops=lambda s: 1,
        units=lambda s: s["audit_items"],
        config=lambda s, ctx: {"audit": {"input": ctx["items_csv"], "k": s["audit_k"]}},
        check=check_audit,
    ),
}


# ---------------------------------------------------------------------------
# Set-up: inputs from the seed (not part of setup_s)
# ---------------------------------------------------------------------------


def write_config(path: Path, seed: int, mode: str, outdir: Path, extra: dict) -> Path:
    with open(path, "w") as fp:
        json.dump({"mode": mode, "seed": seed, "outdir": str(outdir), **extra}, fp, indent=2)
    return path


def write_items_csv(path: Path, seed: int, size: dict) -> float:
    """Scored items in planted clusters; each cluster has its own mean
    score, as a scorer biased towards some content would give.  Returns
    the mean score as written."""
    rng = np.random.default_rng([seed, 7])
    n, d, k = size["audit_items"], size["audit_features"], size["audit_k"]
    centers = rng.normal(0.0, 4.0, (k, d))
    labels = rng.integers(0, k, n)
    features = centers[labels] + rng.normal(0.0, 1.0, (n, d))
    scores = np.clip(0.3 + 0.4 * labels / max(k - 1, 1) + 0.05 * rng.normal(size=n), 0.0, 1.0)
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["id", "score"] + [f"f{j}" for j in range(d)])
        for i in range(n):
            writer.writerow([f"item{i}", repr(float(scores[i]))]
                            + [repr(float(v)) for v in features[i]])
    return float(np.mean(scores))


def set_up(cli, name: str, seed: int, size: dict, work: Path) -> dict:
    """Make the workload's inputs from the seed.

    Every workload starts by pretraining a checkpoint with ``pretrain``
    mode; its final-tenth loss is the ``pretrain_loss`` guard.
    """
    pre_out = work / "setup_pretrain"
    cfg = write_config(work / "setup_pretrain.json", seed, "pretrain", pre_out,
                       {"pretrain": {"steps": size["pretrain_steps"]}})
    shutil.rmtree(pre_out, ignore_errors=True)
    if cli.main([str(cfg)]) != 0:
        raise CheckFailed("set-up pretrain run failed")
    ctx = {
        "checkpoint": str(pre_out / "policy.ckpt"),
        "pretrain_loss": last_tenth_loss(pre_out / "pretrain_loss.csv", size["pretrain_steps"]),
    }
    if name == "audit_csv":
        ctx["items_csv"] = str(work / "items.csv")
        ctx["score_mean"] = write_items_csv(work / "items.csv", seed, size)
    return ctx


def probe_setup(config: Path, first_op: tuple, outdir: Path, count: int) -> tuple:
    """Seconds from process start to the first op, in fresh processes:
    at reference speed (each divided by the host slowdown the process
    measured right after) and as measured."""
    scaled, raw = [], []
    for _ in range(count):
        shutil.rmtree(outdir, ignore_errors=True)
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(PROBE), str(SRC), *first_op, str(config)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise CheckFailed(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(probe["first_op"] - t0)
        scaled.append(raw[-1] / probe["slowdown"])
    return scaled, raw


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------


def measure(cli, wl: Workload, size: dict, ctx: dict, config: Path, outdir: Path,
            seconds: float, clock: PausableClock | None = None) -> dict:
    """Run CLI invocations back to back (a closed loop) until their summed
    wall time reaches ``seconds``.  Each invocation's outputs are checked
    with the clock paused, so op latencies run across invocations.

    ``latencies`` are at reference speed (see :class:`HostSpeed`);
    ``raw_latencies`` are as measured."""
    walls, values, failures = [], [], []
    failed = 0
    clock = clock or PausableClock()
    speed = HostSpeed(clock)
    shutil.rmtree(outdir, ignore_errors=True)
    with OpClock(*wl.boundary, clock=clock, on_call=speed.at_boundary) as ops:
        while sum(walls) < seconds:
            before = len(ops.stamps)
            t0 = time.perf_counter()
            rc = cli.main([str(config)])
            walls.append(time.perf_counter() - t0)
            with clock.paused():
                count = len(ops.stamps) - before
                try:
                    if rc != 0:
                        raise CheckFailed(f"exit code {rc}")
                    if count != wl.ops(size):
                        raise CheckFailed(f"{count} op boundaries, want {wl.ops(size)}")
                    value = wl.check(outdir, size, ctx)
                    if values and value != values[0]:
                        raise CheckFailed(f"behaviour value {value!r} differs from {values[0]!r}")
                    values.append(value)
                except CheckFailed as exc:
                    failed += max(count, 1)
                    failures.append(str(exc))
                shutil.rmtree(outdir, ignore_errors=True)
    raw = np.diff(ops.stamps)
    slowdown = speed.slowdown(len(ops.stamps))
    scaled = raw / slowdown
    return {"wall": sum(walls), "latencies": scaled.tolist(), "raw_latencies": raw.tolist(),
            "slowdown": slowdown.tolist(), "values": values,
            "attempted": max(len(ops.stamps), 1), "failed": failed, "failures": failures,
            "rate": wl.units(size) / float(scaled.mean()) if len(scaled) else None,
            "raw_rate": wl.units(size) / float(raw.mean()) if len(raw) else None}


def end_to_end(phase: dict, setup_times: list, ctx: dict) -> tuple:
    """The end-to-end metrics, run-level check failures and the tail's
    percentile."""
    failures = []
    metrics = {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": phase["rate"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = tail_latency(phase["latencies"])
    if tail is None:
        failures.append(f"{len(phase['latencies'])} op latencies; the tail needs at least 11")
    else:
        metrics["step_ms_p50"] = 1e3 * statistics.median(phase["latencies"])
        metrics["step_ms_p95"] = 1e3 * tail[0]
    if phase["values"]:
        metrics["reward_mean"] = phase["values"][0]
    metrics["pretrain_loss"] = ctx["pretrain_loss"]
    return {k: v for k, v in metrics.items() if v is not None}, failures, \
        tail[1] if tail else None


def per_layer(names, summary: dict, ops: int, extras: dict) -> tuple:
    """Per-op values of the named per-layer metrics; names whose span
    target no longer exists in the program are returned as absent."""
    values, absent = {}, []
    for name in names:
        if name in extras:
            value = extras[name]
        else:
            span, stat = name.rsplit(".", 1)
            value = summary[span].get(stat, 0) / ops if span in summary else None
        if value is None:
            absent.append(name)
        else:
            values[name] = value
    return values, absent


def traced(cli, wl, size, ctx, config, outdir, seconds) -> tuple:
    observers = {
        "numerics.mlp_forward_batch": lambda args, out: {"rows": len(args[1])},
        "rewards.eval_group": lambda args, out: {"flagged": int(out.flags.sum()),
                                                  "scored": int(out.flags.size)},
    }
    clock = PausableClock()
    with Tracer("flowstage", LAYERS, observers, clock=clock) as tracer:
        phase = measure(cli, wl, size, ctx, config, outdir, seconds, clock)
    return phase, tracer.summary()


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fp:
            libs = sorted({line.split()[-1] for line in fp if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def environment(seed: int, load_at_start) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "flowstage").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "loadavg_start": list(load_at_start),
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input (for the bench's own smoke tests)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    with open(ROOT / "BENCHMARK.json") as fp:
        spec = json.load(fp)
    cli = import_program()
    wl, size = WORKLOADS[args.workload], TINY if args.tiny else FULL

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = set_up(cli, args.workload, args.seed, size, work)
    outdir = work / "run"
    config = write_config(work / "run.json", args.seed, wl.mode, outdir, wl.config(size, ctx))

    if args.trace == 0:
        setup_times, setup_raw = probe_setup(config, wl.first_op, outdir, size["setup_probes"])
        phase = measure(cli, wl, size, ctx, config, outdir, args.seconds)
        metrics, run_failures, percentile = end_to_end(phase, setup_times, ctx)
        phases, wanted, absent = [phase], spec["end_to_end"], []
        raw_tail = tail_latency(phase["raw_latencies"])
        info = {
            "tail_percentile": percentile,
            "as_measured": {
                "setup_s": statistics.median(setup_raw),
                "samples_per_s": phase["raw_rate"],
                "step_ms_p50": 1e3 * statistics.median(phase["raw_latencies"] or [math.nan]),
                "step_ms_p95": 1e3 * raw_tail[0] if raw_tail else None,
            },
            "host_slowdown_median": statistics.median(phase["slowdown"] or [math.nan]),
            "setup_s_samples": setup_times, "setup_s_raw_samples": setup_raw,
            "op_ms_raw": [1e3 * x for x in phase["raw_latencies"]],
            "op_slowdown": phase["slowdown"],
        }
    else:
        plain = measure(cli, wl, size, ctx, config, outdir, args.seconds / 2)
        phase, summary = traced(cli, wl, size, ctx, config, outdir, args.seconds / 2)
        phases, wanted, run_failures = [plain, phase], spec["per_layer"], []
        ops = max(phase["attempted"], 1)
        slowdown = statistics.median(phase["slowdown"] or [1.0])
        for counts in summary.values():  # times at reference speed
            counts["ms"] /= slowdown
            counts["self_ms"] /= slowdown
        scored = summary.get("rewards.eval_group")
        extras = {
            "trace_overhead_frac": plain["rate"] / phase["rate"] - 1.0
            if plain["rate"] and phase["rate"] else None,
            "trace_self_coverage": sum(s["self_ms"] for s in summary.values()) * slowdown
            / (1e3 * phase["wall"]),
            "rewards.flagged_frac": None if scored is None
                else scored.get("flagged", 0) / max(scored.get("scored", 0), 1),
        }
        metrics, absent = per_layer([m["name"] for m in wanted], summary, ops, extras)
        info = {"ops_traced": ops, "host_slowdown_median": slowdown, "spans": summary}

    units = {m["name"]: m["unit"] for m in wanted}
    missing = [m for m in units if m not in metrics and m not in absent]
    if missing:
        run_failures.append(f"metrics not measured: {missing}")
    failures = [f for p in phases for f in p["failures"]] + run_failures
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases) + len(run_failures)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    env = environment(args.seed, load_at_start)
    WORK.mkdir(exist_ok=True)
    record = WORK / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(record, "w") as fp:
        json.dump({"workload": args.workload, "trace": args.trace, "env": env, "info": info,
                   "failures": failures, "absent": absent, **result}, fp, indent=2)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  -> {record}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"  {name:44s} {entry['value']!r} {entry['unit']}")
    for name, value in info.get("as_measured", {}).items():
        print(f"  {name + ' (as measured)':44s} {value!r} {units[name]}")
    for name in absent:
        print(f"  {name:44s} absent (target no longer in the program)")
    print(f"ops attempted {attempted}, failed {failed}")
    for line in failures:
        print(f"check failed: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (HookError, CheckFailed) as exc:
        sys.exit(f"error: {exc}")
