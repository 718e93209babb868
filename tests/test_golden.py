"""Golden behaviour: a tiny pretrain -> train -> eval chain through the CLI
at seed 0 must reproduce its pretrain and train runs' files exactly and
pinned reward statistics, an eval at the wide group of the
``sample_wide`` benchmark must reproduce its output files exactly, and
audit mode on a small seeded CSV must reproduce a pinned report.

Until the random draws were re-laid, the chain's eval values had been
recorded before the group rollout and reward scoring were vectorised,
its train files (at the default group of 16, against a fresh and
against a stale reference) before the sampler's per-call plan and the
one gradient buffer, the wide eval's before sampling stopped forming the
log-densities that eval never reads, and its pretrain files before the
random source stopped keeping a generator of its own; each of those
changes kept every pin.  The train, stale-reference, wide-eval and
pretrain pins (the chain's eval means with them) were then re-recorded
once, when each loop moved to one Philox key and iteration k to that
stream jumped k times: a group draws its condition, noise and subset
from one stream, a pretrain step its batch and noise, where each had
come from streams of their own.  That moves every sampled bit and
nothing else; the audit pins did not move.  A later speed-up that moves
behaviour, down to the last bit of a gradient, fails here.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from flowstage import cli

# trainlog.jsonl of the chain's 4-step train run at the default group of 16
TRAIN_LOG = (
    '{"clip_fraction": 0.0, "condition": 1, "grad_norm": 1.4492426469717847, '
    '"mixed_mean": 0.02032685146571097, "objective": -2.2204460492503132e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.8349324593750307, 0.9999972958937952, 0.6887575006073235], "step": 0, '
    '"term_means": [0.020410400110132357, 7.3944514204856e-40, 0.09402692161525807], '
    '"transitions": [1.160217252732045, 0.48588613734337144, 0.030404987633799785], '
    '"weights": [0.9953620474902222, 0.004519754212906511, 0.00011819829687126395]}\n'
    '{"clip_fraction": 0.0, "condition": 3, "grad_norm": 1.591354643906116, '
    '"mixed_mean": 0.013699280639467359, "objective": 0.0, "ratio_max_dev": 0.0, '
    '"refresh": true, "sparsities": [0.7373708719899251, 1.0, 0.5036135550135183], '
    '"step": 1, '
    '"term_means": [0.013985435892766103, 1.0302005845119153e-33, 0.20052274308158125], '
    '"transitions": [1.06124713489303, 0.5834504288346818, -0.13040074710508553], '
    '"weights": [0.9785231560468185, 0.021405990289556722, 7.0853663624766e-05]}\n'
    '{"clip_fraction": 0.0, "condition": 7, "grad_norm": 1.4486782848640831, '
    '"mixed_mean": 0.020404476215591574, "objective": -4.4408920985006264e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.8690892884524825, 0.9973804830056748, 0.727951811110129], "step": 2, '
    '"term_means": [0.020432186367618264, 2.3811733262572025e-34, 0.18648337985170144], '
    '"transitions": [1.1943788633577694, 0.44911249537779935, 0.09330550087169487], '
    '"weights": [0.9972835348185051, 0.002567426855157916, 0.0001490383263369813]}\n'
    '{"clip_fraction": 0.0, "condition": 4, "grad_norm": 1.496395741637017, '
    '"mixed_mean": 0.0363162656744536, "objective": 2.2204460492503132e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.7006277052532527, 1.0, 0.4721536727118017], "step": 3, '
    '"term_means": [0.03766559736048917, 5.887472516308228e-38, 0.29569820751140213], '
    '"transitions": [1.029710933132708, 0.6201935955713542, -0.1395078628073621], '
    '"weights": [0.9635206537235215, 0.03639586696493346, 8.347931154494668e-05]}\n'
)
# pretrain_loss.csv and the SHA-256 of policy.ckpt of the chain's 40-step
# pretrain run
PRETRAIN_LOSS_CSV = """\
step,loss
0,1.7345824571898731
1,1.615112801693306
2,1.8280050540783166
3,1.578723500425351
4,1.612323102717795
5,1.3914878657116136
6,1.5314404236290993
7,1.4998134674063142
8,1.4272244906300575
9,1.3998939541319468
10,1.4538814038760886
11,1.424868960329896
12,1.486037827386172
13,1.3448919200561793
14,1.304404927762279
15,1.259478941420639
16,1.2829176020425406
17,1.303446937174618
18,1.2925925546051
19,1.2666903883163823
20,1.2706727785291223
21,1.2369526624132237
22,1.188331603463209
23,1.1794594746831009
24,1.170862001339116
25,1.1916374098319917
26,1.1018693610392076
27,1.0804762101238647
28,1.193030315165948
29,1.047690797668446
30,1.1157831898790425
31,1.15179657822743
32,1.2472872236412966
33,1.05186541852779
34,1.0349897802977879
35,1.0432471257392466
36,1.0995055458347505
37,1.028148786114604
38,1.0080488258434035
39,0.9101997574628333
"""
PRETRAIN_CKPT_SHA256 = "4d5d85acd9d376c28d09ada568de1b24e18e3de30fb83ed5f7d4ab667ebb84a2"
# SHA-256 of the chain's policy_final.ckpt, and of the trainlog.jsonl and
# policy_final.ckpt of the same run against a reference refreshed every 2 steps
TRAIN_CKPT_SHA256 = "4b5d2218b47efe85bc5896b58496102e060f42be5a0176242f8a1715a65c68ba"
STALE_REF_SHA256 = ("917a56fe29c9838d9d858560f471b92ab93ba6a283bea5ad784e867befd33c83",
                    "6ebc7b20ac8791618c486a4ed814e2dd69acb656cce537eb1d3be0dc1053ed83")
# per-term means of eval_stats.json
EVAL_MEANS = [0.013987271084126588, 2.780142515090185e-34, 0.18786223359004167]


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """The chain's config file and the checkpoint its pretrain run wrote."""
    tmp_path = tmp_path_factory.mktemp("chain")
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "seed": 0,
        "pretrain": {"steps": 40},
        "train": {"num_steps": 4},
        "eval": {"num_groups": 2},
    }))
    assert cli.main([str(config), "--set=mode=pretrain", f"--set=outdir={tmp_path / 'pre'}"]) == 0
    return config, tmp_path / "pre" / "policy.ckpt"


def test_pretrain_is_pinned(pretrained):
    """The policy's initial draws and every step's batch and noise
    streams reach the pretrain run's files."""
    _, ckpt = pretrained
    assert (ckpt.parent / "pretrain_loss.csv").read_text() == PRETRAIN_LOSS_CSV
    assert sha256(ckpt) == PRETRAIN_CKPT_SHA256


def test_pretrain_train_eval_chain_is_pinned(tmp_path, pretrained):
    config, ckpt = pretrained
    assert cli.main([str(config), "--set=mode=train", f"--set=outdir={tmp_path / 'train'}",
                     f"--set=policy.init_checkpoint={ckpt}"]) == 0
    assert cli.main([str(config), "--set=mode=eval", f"--set=outdir={tmp_path / 'eval'}",
                     f"--set=policy.init_checkpoint={ckpt}", "--set=train.group_size=8"]) == 0

    assert (tmp_path / "train" / "trainlog.jsonl").read_text() == TRAIN_LOG
    assert sha256(tmp_path / "train" / "policy_final.ckpt") == TRAIN_CKPT_SHA256

    stats = json.loads((tmp_path / "eval" / "eval_stats.json").read_text())
    assert stats["group_size"] == 8 and stats["num_groups"] == 2
    np.testing.assert_allclose([t["mean"] for t in stats["terms"]], EVAL_MEANS,
                               rtol=1e-12, atol=0)


def test_stale_reference_train_is_pinned(tmp_path, pretrained):
    """Steps 1 and 3 re-evaluate the kept transitions under the policy
    being optimised instead of reading the rollout's record."""
    config, ckpt = pretrained
    assert cli.main([str(config), "--set=mode=train", f"--set=outdir={tmp_path}",
                     f"--set=policy.init_checkpoint={ckpt}",
                     "--set=train.ref_refresh_interval=2"]) == 0
    refresh = [json.loads(line)["refresh"]
               for line in (tmp_path / "trainlog.jsonl").read_text().splitlines()]
    assert refresh == [True, False, True, False]
    assert (sha256(tmp_path / "trainlog.jsonl"),
            sha256(tmp_path / "policy_final.ckpt")) == STALE_REF_SHA256


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# eval_stats.json and eval_groups.csv of the chain's eval at 2 groups of 64
WIDE_EVAL_STATS = {
    "group_size": 64,
    "num_groups": 2,
    "seed": 0,
    "terms": [
        {"id": "fidelity", "stage": 1, "max": 0.6081863355058434,
         "mean": 0.027314148248508544, "min": 7.163745475672614e-11,
         "std": 0.07450994805483398},
        {"id": "smoothness", "stage": 2, "max": 1.6918758802427762e-18,
         "mean": 1.4677391534133097e-20, "min": 0.0,
         "std": 1.4973348783445288e-19},
        {"id": "alignment", "stage": 3, "max": 0.9993735263606266,
         "mean": 0.24840736879185657, "min": 2.6936061410847576e-09,
         "std": 0.34712673410061745},
    ],
}
WIDE_EVAL_GROUPS = """\
group,condition,mean_fidelity,mean_smoothness,mean_alignment
0,1,0.0320077298546922,6.312755849859018e-29,0.2556947152562001
1,3,0.022620566642324876,2.9354783005138634e-20,0.24112002232751298
"""


def test_wide_eval_is_pinned_exactly(tmp_path, pretrained):
    config, ckpt = pretrained
    assert cli.main([str(config), "--set=mode=eval", f"--set=outdir={tmp_path}",
                     f"--set=policy.init_checkpoint={ckpt}", "--set=train.group_size=64"]) == 0
    assert json.loads((tmp_path / "eval_stats.json").read_text()) == WIDE_EVAL_STATS
    assert (tmp_path / "eval_groups.csv").read_text() == WIDE_EVAL_GROUPS


# audit_report.json of the two audit runs below: (sizes, means, kappas,
# inter_cluster_cov)
AUDIT_KMEANS = (
    [10, 8, 6],
    [0.7897170865677922, 0.6068612956890037, 0.4017444242956534],
    [4.765246477341669, 5.517370627690571, 7.477562375821776],
    26.4373104745257,
)
AUDIT_LABELS = (
    [8, 10, 6],
    [0.6068612956890037, 0.7897170865677922, 0.4017444242956534],
    [5.517370627690571, 4.765246477341669, 7.477562375821776],
    26.4373104745257,
)


def write_audit_items(path, blank_labels):
    """24 items in three planted blobs of 6, 8 and 10, labelled 5, 1 and 3,
    with ids that need CSV quoting; every fifth label is left blank when
    ``blank_labels``."""
    rng = np.random.default_rng(20)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    blob = np.repeat(np.arange(3), [6, 8, 10])
    feats = centers[blob] + 0.5 * rng.normal(size=(24, 2))
    scores = 0.4 + 0.2 * blob + 0.03 * rng.normal(size=24)
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(["id", "score", "label", "f0", "f1"])
        for i in range(24):
            label = "" if blank_labels and i % 5 == 0 else (5, 1, 3)[blob[i]]
            writer.writerow([f'item {i}, "c{blob[i]}"', repr(float(scores[i])), label,
                             repr(float(feats[i, 0])), repr(float(feats[i, 1]))])


@pytest.mark.parametrize("k, expected", [(3, AUDIT_KMEANS), (None, AUDIT_LABELS)],
                         ids=["kmeans", "labels"])
def test_audit_report_is_pinned(tmp_path, k, expected):
    """Clustered with ``k`` and grouped by labels.  The pinned values were
    recorded while items were still read into one object per row, before
    the reader and ``audit`` moved to arrays."""
    items = tmp_path / "items.csv"
    write_audit_items(items, blank_labels=k is not None)
    assert '"item 0, ""c0"""' in items.read_text()
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"mode": "audit", "seed": 4, "outdir": str(tmp_path / "out"),
                                  "audit": {"input": str(items), "k": k}}))
    assert cli.main([str(config)]) == 0

    report = json.loads((tmp_path / "out" / "audit_report.json").read_text())
    clusters = report["clusters"]
    sizes, means, kappas, inter = expected
    assert report["used_labels"] is (k is None)
    assert [c["size"] for c in clusters] == sizes
    np.testing.assert_allclose([c["mean"] for c in clusters], means, rtol=1e-12, atol=0)
    np.testing.assert_allclose([c["kappa"] for c in clusters], kappas, rtol=1e-12, atol=0)
    np.testing.assert_allclose(report["inter_cluster_cov"], inter, rtol=1e-12, atol=0)

    # every cell of audit_clusters.csv equals its audit_report.json value
    with open(tmp_path / "out" / "audit_clusters.csv", newline="") as fp:
        header, *rows = csv.reader(fp)
    assert header == ["cluster", "size", "mean", "std", "kappa"]
    assert len(rows) == len(clusters)
    for row, c in zip(rows, clusters):
        assert [int(row[0]), int(row[1])] == [c["index"], c["size"]]
        assert [float(cell) if cell else None for cell in row[2:]] == [
            c["mean"], c["std"], c["kappa"]]
