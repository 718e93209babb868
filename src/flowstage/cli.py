"""Command-line entry point.

One invocation runs one mode (pretrain, calibrate, train, eval, audit)
from one config file; dotted-path overrides adjust individual fields:

    flowstage run.yaml --set mode=train --set train.num_steps=50

Every run writes a resolved-config snapshot into its output directory
first, so outputs are always reproducible from what sits next to them.
Exit codes: 0 success, 1 config error, 2 runtime failure.

A mode reads the objects its :class:`RunConfig` built at load, and this
module writes every output file: each JSON file through
:func:`_write_json`, each CSV file through :func:`_write_csv`, the
checkpoints through ``save_policy`` and ``trainlog.jsonl`` as one JSON
line per step; every text file is written as UTF-8, whatever the
locale.  The training loops yield ``(step, policy, record)`` after each
update and write nothing; a GRPO step's record is the dict written as
its ``trainlog.jsonl`` line, and the audit's report is the dict written
as ``audit_report.json``.  This module writes what a run keeps:
checkpoints as the steps arrive, and the step log (``trainlog.*``,
``pretrain_loss.csv``) when the loop ends, finished or failed.  A run
that fails at step k exits 2 with ``failure.json`` and its k completed
steps logged; a run removes an earlier run's ``failure.json`` before it
starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from .bias_audit import audit, read_items_csv
from .config import RunConfig
from .curriculum import calibrate_thresholds
from .errors import ConfigError, RolloutError
from .flow_policy import (
    init_flow_policy,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
)
from .grpo import group_draws, train
from .numerics import RandomSource
from .rewards import eval_group


def _write_csv(path, header, rows) -> None:
    """``csv`` writes a float as its ``repr`` and None as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")


def run_pretrain(cfg: RunConfig) -> None:
    rng = RandomSource(cfg.seed)
    policy = init_flow_policy(
        cfg.dims, hidden=tuple(cfg.resolved["policy"]["hidden"]),
        rng=rng.stream(100),
    )
    p = cfg.resolved["pretrain"]
    losses = []
    try:
        for _, policy, loss in pretrain_flow_matching(
                policy, cfg.dataset(), p["steps"], rng.stream(101),
                batch_size=p["batch_size"], learning_rate=p["learning_rate"]):
            losses.append(loss)
    finally:
        _write_csv(cfg.outdir / "pretrain_loss.csv", ["step", "loss"], enumerate(losses))
    save_policy(cfg.outdir / "policy.ckpt", policy,
                {"stage": "pretrained", "pretrain_steps": p["steps"], "seed": cfg.seed})


def run_calibrate(cfg: RunConfig) -> None:
    """Single-stage probe runs; thresholds at 70% of each observed gain."""
    base = cfg.init_policy
    steps = cfg.resolved["calibrate"]["steps"]
    window = cfg.train.smooth_window
    curves = []
    for stage in range(1, len(cfg.suite.terms) + 1):
        tc = replace(cfg.train, static_stage=stage, num_steps=steps)
        curve = [rec["term_means"][stage - 1] for _, _, rec in train(base, tc)]
        curves.append(curve)
        _write_csv(cfg.outdir / f"calibrate_stage{stage}.csv", ["step", "term_mean"],
                   enumerate(curve))
    taus, warnings = calibrate_thresholds(curves, smooth_window=window)
    _write_json(cfg.outdir / "tau.json", {
        "thresholds": [float(t) for t in taus],
        "warnings": warnings,
        "probe_steps": steps,
        "smooth_window": window,
    })
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)


def _write_trainlog(outdir: Path, num_terms: int, records: list) -> None:
    """``trainlog.jsonl``, one line per step, and ``trainlog.csv``, a header
    and then one row per step, both from the records as ``train`` yields
    them."""
    with open(outdir / "trainlog.jsonl", "w", encoding="utf-8") as fp:
        fp.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)
    header = (["step", "refresh", "condition", "objective", "grad_norm", "clip_fraction",
               "ratio_max_dev", "mixed_mean"]
              + [f"{column}_{j}" for column in ("weight", "term_mean", "sparsity", "gate")
                 for j in range(1, num_terms + 1)])
    _write_csv(outdir / "trainlog.csv", header, [
        [rec["step"], int(rec["refresh"]), rec["condition"], rec["objective"],
         rec["grad_norm"], rec["clip_fraction"], rec["ratio_max_dev"], rec["mixed_mean"],
         *rec["weights"], *rec["term_means"], *rec["sparsities"], *rec["transitions"]]
        for rec in records])


def run_train(cfg: RunConfig) -> None:
    policy = cfg.init_policy
    interval = cfg.resolved["train"]["checkpoint_interval"]
    records = []
    try:
        for step, policy, rec in train(policy, cfg.train):
            records.append(rec)
            if interval and (step + 1) % interval == 0:
                save_policy(cfg.outdir / f"policy_step{step + 1:05d}.ckpt", policy,
                            {"stage": "train", "step": step + 1, "seed": cfg.seed})
    finally:
        _write_trainlog(cfg.outdir, len(cfg.suite.terms), records)
    save_policy(cfg.outdir / "policy_final.ckpt", policy,
                {"stage": "trained", "steps": cfg.train.num_steps, "seed": cfg.seed})


def run_eval(cfg: RunConfig) -> None:
    """Per-term reward statistics over freshly sampled groups.  Group g
    is ``group_draws``' group g, what GRPO step g samples from, so at a
    fixed policy and seed eval group g is train step g's group."""
    policy = cfg.init_policy
    suite, sde, group_size = cfg.suite, cfg.sde, cfg.train.group_size
    num_groups = cfg.resolved["eval"]["num_groups"]
    rng = RandomSource(cfg.seed)

    dims = policy.dims
    all_values = []
    rows = []
    for g in range(num_groups):
        cond, noise = group_draws(rng, g, dims, group_size, sde.num_steps)
        try:
            rollout = sde_sample(policy, cond, sde, noise)
        except RolloutError as exc:
            raise RolloutError(f"group {g}, condition {cond}: {exc}") from exc
        matrix = eval_group(
            suite, rollout.final_states().reshape(group_size, dims.frames, dims.frame_dim), cond)
        all_values.append(matrix.values)
        rows.append([g, cond, *matrix.values.mean(axis=0).tolist()])

    stacked = np.concatenate(all_values)
    stats = {
        "num_groups": num_groups,
        "group_size": group_size,
        "seed": cfg.seed,
        "terms": [
            {
                "id": term.id,
                "stage": term.stage,
                "mean": float(stacked[:, j].mean()),
                "std": float(np.sqrt(np.mean((stacked[:, j] - stacked[:, j].mean()) ** 2))),
                "min": float(stacked[:, j].min()),
                "max": float(stacked[:, j].max()),
            }
            for j, term in enumerate(suite.terms)
        ],
    }
    _write_json(cfg.outdir / "eval_stats.json", stats)
    _write_csv(
        cfg.outdir / "eval_groups.csv",
        ["group", "condition"] + [f"mean_{t.id}" for t in suite.terms],
        rows,
    )


def run_audit(cfg: RunConfig) -> None:
    a = cfg.resolved["audit"]
    scores, features, labels = read_items_csv(a["input"])
    report = audit(scores, features, labels, k=a["k"], seed=cfg.seed,
                   max_iters=a["max_iters"])
    _write_json(cfg.outdir / "audit_report.json", report)
    _write_csv(cfg.outdir / "audit_clusters.csv", ["cluster", "size", "mean", "std", "kappa"],
               [[c["index"], c["size"], c["mean"], c["std"], c["kappa"]]
                for c in report["clusters"]])


MODE_RUNNERS = {
    "pretrain": run_pretrain,
    "calibrate": run_calibrate,
    "train": run_train,
    "eval": run_eval,
    "audit": run_audit,
}


def _config_error(lines) -> int:
    """Report each line as a config error; the exit code for one."""
    for line in lines:
        print(f"config error: {line}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowstage",
        description="Curriculum-weighted group-relative policy optimization "
        "of a toy flow-matching generator, plus reward-bias auditing.",
    )
    parser.add_argument("config", help="run config file (YAML or JSON)")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a config field by dotted path (repeatable)",
    )
    args = parser.parse_args(argv)

    try:
        cfg = RunConfig.from_file(args.config, args.overrides)
    except ConfigError as exc:
        return _config_error(exc.details)
    try:
        cfg.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _config_error([f"outdir: cannot create {cfg.outdir}: {exc}"])
    try:  # an earlier run's marker would say this one failed
        (cfg.outdir / "failure.json").unlink(missing_ok=True)
    except OSError as exc:
        return _config_error([f"outdir: cannot remove {cfg.outdir / 'failure.json'}: {exc}"])
    _write_json(cfg.outdir / "resolved_config.json", cfg.resolved)
    try:
        MODE_RUNNERS[cfg.mode](cfg)
    except Exception as exc:  # runtime failure: keep partial artifacts
        _write_json(cfg.outdir / "failure.json", {
            "mode": cfg.mode,
            "error": type(exc).__name__,
            "message": str(exc),
        })
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
