"""Golden behaviour: a tiny pretrain -> train -> eval chain through the CLI
at seed 0 must reproduce pinned reward statistics.

The values were recorded before the group rollout and reward scoring were
vectorised; a later speed-up that moves behaviour fails here.
"""

import json

import numpy as np

from flowstage import cli

# per-step reward term means (fidelity, smoothness, alignment) of trainlog.jsonl
TRAIN_TERM_MEANS = [
    [0.011885067567308623, 1.2043863763419124e-47, 0.4291301358945855],
    [0.019467687116326914, 2.065565778541612e-28, 0.2808714748319784],
    [0.0102100543015477, 4.5905359407964484e-64, 0.0943857659423841],
    [0.014803649160524261, 3.0342659044957164e-29, 0.10780407539020409],
]
# per-term means of eval_stats.json
EVAL_MEANS = [0.00997113574249944, 3.692202994881434e-45, 0.39469347250907016]


def test_pretrain_train_eval_chain_is_pinned(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 0,
        "pretrain": {"steps": 40},
        "train": {"num_steps": 4},
        "eval": {"num_groups": 2},
    }))
    ckpt = tmp_path / "pre" / "policy.ckpt"
    assert cli.main([str(config), "--set=mode=pretrain", f"--set=outdir={tmp_path / 'pre'}"]) == 0
    assert cli.main([str(config), "--set=mode=train", f"--set=outdir={tmp_path / 'train'}",
                     f"--set=policy.init_checkpoint={ckpt}"]) == 0
    assert cli.main([str(config), "--set=mode=eval", f"--set=outdir={tmp_path / 'eval'}",
                     f"--set=policy.init_checkpoint={ckpt}", "--set=train.group_size=8"]) == 0

    lines = (tmp_path / "train" / "trainlog.jsonl").read_text().splitlines()
    term_means = [json.loads(line)["term_means"] for line in lines]
    np.testing.assert_allclose(term_means, TRAIN_TERM_MEANS, rtol=1e-12, atol=0)

    stats = json.loads((tmp_path / "eval" / "eval_stats.json").read_text())
    assert stats["group_size"] == 8 and stats["num_groups"] == 2
    np.testing.assert_allclose([t["mean"] for t in stats["terms"]], EVAL_MEANS,
                               rtol=1e-12, atol=0)
