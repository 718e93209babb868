"""Command-line entry point.

One invocation runs one mode (pretrain, calibrate, train, eval, audit)
from one config file; dotted-path overrides adjust individual fields:

    flowstage run.yaml --set mode=train --set train.num_steps=50

Every run writes a resolved-config snapshot into its output directory
first, so outputs are always reproducible from what sits next to them.
Exit codes: 0 success, 1 config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from .bias_audit import audit, read_items_csv
from .config import RunConfig
from .curriculum import calibrate_thresholds
from .errors import ConfigError
from .flow_policy import (
    init_flow_policy,
    load_policy,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
)
from .grpo import train
from .numerics import RandomSource
from .rewards import RewardSuite, eval_group


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload) -> None:
    with open(path, "w") as fp:
        json.dump(payload, fp, sort_keys=True, indent=2)
        fp.write("\n")


def _load_init_policy(cfg: RunConfig):
    path = Path(cfg.resolved["policy"]["init_checkpoint"])
    policy, _ = load_policy(path)
    if policy.dims != cfg.policy_dims():
        raise ConfigError([
            f"policy.init_checkpoint: checkpoint dims {policy.dims} do not match "
            f"the configured dims {cfg.policy_dims()}"
        ])
    return policy


def run_pretrain(cfg: RunConfig) -> None:
    rng = RandomSource(cfg.seed)
    policy = init_flow_policy(
        cfg.policy_dims(), hidden=tuple(cfg.resolved["policy"]["hidden"]),
        rng=rng.stream(100),
    )
    p = cfg.resolved["pretrain"]
    trained, losses = pretrain_flow_matching(
        policy, cfg.dataset(), p["steps"], rng.stream(101),
        batch_size=p["batch_size"], learning_rate=p["learning_rate"],
    )
    save_policy(cfg.outdir / "policy.ckpt", trained,
                {"stage": "pretrained", "pretrain_steps": p["steps"], "seed": cfg.seed})
    _write_csv(cfg.outdir / "pretrain_loss.csv", ["step", "loss"],
               [(i, repr(loss)) for i, loss in enumerate(losses)])


def run_calibrate(cfg: RunConfig) -> None:
    """Single-stage probe runs; thresholds at 70% of each observed gain."""
    base = _load_init_policy(cfg)
    suite = cfg.reward_suite()
    steps = cfg.resolved["calibrate"]["steps"]
    window = cfg.resolved["train"]["smooth_window"]
    curves = []
    for stage in range(1, len(suite) + 1):
        tc = cfg.train_config(static_stage=stage, num_steps=steps)
        _, log = train(base.copy(), tc)
        curve = log.term_means_matrix()[:, stage - 1]
        curves.append(curve)
        _write_csv(cfg.outdir / f"calibrate_stage{stage}.csv", ["step", "term_mean"],
                   [(i, repr(float(v))) for i, v in enumerate(curve)])
    taus, warnings = calibrate_thresholds(curves, smooth_window=window)
    _write_json(cfg.outdir / "tau.json", {
        "thresholds": [float(t) for t in taus],
        "warnings": warnings,
        "probe_steps": steps,
        "smooth_window": window,
    })
    for line in warnings:
        print(f"warning: {line}", file=sys.stderr)


def run_train(cfg: RunConfig) -> None:
    policy = _load_init_policy(cfg)
    tc = cfg.train_config(thresholds=cfg.thresholds_from_file())
    interval = cfg.resolved["train"]["checkpoint_interval"]

    def checkpoint(step, current, _rec):
        if interval and (step + 1) % interval == 0:
            save_policy(cfg.outdir / f"policy_step{step + 1:05d}.ckpt", current,
                        {"stage": "train", "step": step + 1, "seed": cfg.seed})

    trained, log = train(policy, tc, step_callback=checkpoint)
    save_policy(cfg.outdir / "policy_final.ckpt", trained,
                {"stage": "trained", "steps": tc.num_steps, "seed": cfg.seed})
    with open(cfg.outdir / "trainlog.jsonl", "w") as fp:
        log.write_jsonl(fp)
    with open(cfg.outdir / "trainlog.csv", "w", newline="") as fp:
        log.write_csv(fp)


def run_eval(cfg: RunConfig) -> None:
    """Per-term reward statistics over freshly sampled groups."""
    policy = _load_init_policy(cfg)
    suite = RewardSuite.of(cfg.reward_suite())
    sde = cfg.sde_config()
    group_size = cfg.resolved["train"]["group_size"]
    num_groups = cfg.resolved["eval"]["num_groups"]
    rng = RandomSource(cfg.seed)

    dims = policy.dims
    all_values = []
    rows = []
    for g in range(num_groups):
        cond = int(rng.at_stream(0, g).integers(0, dims.num_classes))
        noise = rng.gaussian_streams((1, g), group_size, (sde.num_steps + 1) * dims.state_size)
        rollout = sde_sample(policy, cond, sde, noise.reshape(group_size, sde.num_steps + 1, -1))
        matrix = eval_group(
            suite, rollout.final_states().reshape(group_size, dims.frames, dims.frame_dim), cond)
        all_values.append(matrix.values)
        rows.append([g, cond] + [repr(float(v)) for v in matrix.values.mean(axis=0)])

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
    with open(cfg.outdir / "audit_report.json", "w") as fp:
        report.write_json(fp)
    with open(cfg.outdir / "audit_clusters.csv", "w", newline="") as fp:
        report.write_csv(fp)


MODE_RUNNERS = {
    "pretrain": run_pretrain,
    "calibrate": run_calibrate,
    "train": run_train,
    "eval": run_eval,
    "audit": run_audit,
}


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
        for line in exc.details:
            print(f"config error: {line}", file=sys.stderr)
        return 1

    cfg.outdir.mkdir(parents=True, exist_ok=True)
    cfg.write_resolved(cfg.outdir)
    try:
        MODE_RUNNERS[cfg.mode](cfg)
    except ConfigError as exc:
        for line in exc.details:
            print(f"config error: {line}", file=sys.stderr)
        return 1
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
