"""Repeat the benchmark over seeds and report each metric's median and
spread (interquartile range over median).

    python3 perfbench/spread.py --seeds 1-10 [--workloads grpo_default,audit_csv]
                                [--trace 0|1] [--seconds N] [--out BENCH_label.json]

Run from the root of a checkout.  With ``--trace 0`` each end-to-end
spread, ``setup_s`` excepted, is checked against a third of the bound in
``BENCHMARK.json``; the exit code is 1 if any run fails its checks or any
spread is too wide.  ``--out`` writes every run's values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "attempted": result["attempted"], **values})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
                  flush=True)
        summary[workload] = {}
        names = [k for k in runs[workload][0] if k not in ("seed", "attempted")] \
            if runs[workload] else []
        for name in names:
            vals = [r[name] for r in runs[workload]]
            entry = {"median": statistics.median(vals)}
            if len(vals) >= 2:
                entry["spread"] = spread(vals)
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is not None and "spread" in entry:
                entry["bound"] = bound
                entry["steady"] = name == "setup_s" or entry["spread"] < bound / 3
                ok &= entry["steady"]
            summary[workload][name] = entry
    for workload, metrics in summary.items():
        print(f"\n{workload}")
        for name, e in metrics.items():
            flag = "" if e.get("steady", True) else "  <-- spread above a third of the bound"
            print(f"  {name:44s} median {e['median']:.6g}  spread {e.get('spread', 0):.4f}"
                  f"{'  bound %.2f' % e['bound'] if 'bound' in e else ''}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "seconds": args.seconds,
                                              "summary": summary, "runs": runs}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
