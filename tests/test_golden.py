"""Golden behaviour: a tiny pretrain -> train -> eval chain through the CLI
at seed 0 must reproduce its pretrain and train runs' files exactly and
pinned reward statistics, an eval at the wide group of the
``sample_wide`` benchmark must reproduce its output files exactly, and
audit mode on a small seeded CSV must reproduce a pinned report.

The chain's eval values were recorded before the group rollout and
reward scoring were vectorised, its train files (at the default group of
16, against a fresh and against a stale reference) before the sampler's
per-call plan and the one gradient buffer, the wide eval's before
sampling stopped forming the log-densities that eval never reads, and
its pretrain files before the random source stopped keeping a generator
of its own; a later speed-up that moves behaviour, down to the last bit
of a gradient, fails here.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from flowstage import cli

# trainlog.jsonl of the chain's 4-step train run at the default group of 16
TRAIN_LOG = (
    '{"clip_fraction": 0.0, "condition": 2, "grad_norm": 1.2361983681159383, '
    '"mixed_mean": 0.01059766694813408, "objective": -6.661338147750939e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.6287284176132317, 1.0, 0.3616170275871755], "step": 0, '
    '"term_means": [0.011885067567308623, 1.2043863763419124e-47, 0.4291301358945855], '
    '"transitions": [0.9521449112079412, 0.6920928832113753, -0.21791920246972868], '
    '"weights": [0.8889171129807175, 0.11100639041399758, 7.649660528479754e-05]}\n'
    '{"clip_fraction": 0.0, "condition": 0, "grad_norm": 1.8349531084947657, '
    '"mixed_mean": 0.01593171111177371, "objective": 8.881784197001253e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.5901077205506998, 0.9995065418619614, 0.5337535697854543], '
    '"step": 1, '
    '"term_means": [0.019467687116326914, 2.065565778541612e-28, 0.2808714748319784], '
    '"transitions": [0.9151856464414141, 0.7302201221358686, -0.08093044133256816], '
    '"weights": [0.8143013927679336, 0.18541681863453907, 0.00028178859752736775]}\n'
    '{"clip_fraction": 0.0, "condition": 1, "grad_norm": 1.504026180860725, '
    '"mixed_mean": 0.009695980347943771, "objective": 2.2204460492503132e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.6192925362928207, 0.9368886778388873, 0.8471662267279633], '
    '"step": 2, '
    '"term_means": [0.0102100543015477, 4.5905359407964484e-64, 0.0943857659423841], '
    '"transitions": [0.9423426148542238, 0.6384174423706737, 0.2520030489621712], '
    '"weights": [0.9158276316978795, 0.0805136545755043, 0.0036587137266162898]}\n'
    '{"clip_fraction": 0.0, "condition": 4, "grad_norm": 1.146586540395392, '
    '"mixed_mean": 0.003959559472265296, "objective": 3.3306690738754695e-17, '
    '"ratio_max_dev": 0.0, "refresh": true, '
    '"sparsities": [0.4296441586863969, 0.9969417357683703, 0.7914710307172838], '
    '"step": 3, '
    '"term_means": [0.014803649160524261, 3.0342659044957164e-29, 0.10780407539020409], '
    '"transitions": [0.7536996200957999, 0.8881188779065805, 0.1392796114132901], '
    '"weights": [0.25391256655553135, 0.7442254730426713, 0.0018619604017974234]}\n'
)
# pretrain_loss.csv and the SHA-256 of policy.ckpt of the chain's 40-step
# pretrain run
PRETRAIN_LOSS_CSV = """\
step,loss
0,1.7811650667754213
1,1.7575803330179087
2,1.7278962466942547
3,1.556196575444646
4,1.5470540515145892
5,1.731056038319942
6,1.4926857822291084
7,1.53845013518887
8,1.4748873630559176
9,1.3934758772442595
10,1.405298272938801
11,1.4559445721887878
12,1.4137436102055863
13,1.4094628291134899
14,1.3413768501118488
15,1.3723636625040858
16,1.304315450676286
17,1.3008086442235773
18,1.2032458680303253
19,1.119085290173174
20,1.2977195995250959
21,1.1270083970807718
22,1.2237898192606005
23,1.275632539082916
24,1.1555297921315488
25,1.1803552592295152
26,1.25189319317689
27,1.1177803528907837
28,1.0834229619210132
29,0.9778446610972045
30,1.1291997695852531
31,1.081399231268434
32,1.0522526350318517
33,1.0430999650377957
34,0.983558665973401
35,1.057770322330721
36,1.0500121914306164
37,1.0321590049632627
38,1.0379549040838767
39,1.0612339391424659
"""
PRETRAIN_CKPT_SHA256 = "4a1065b7cdcba8d4a085c1a8dad66136157dbf94aad99cb2d6cc62ecc1a38e87"
# SHA-256 of the chain's policy_final.ckpt, and of the trainlog.jsonl and
# policy_final.ckpt of the same run against a reference refreshed every 2 steps
TRAIN_CKPT_SHA256 = "981d4fa0af74cc8e052572a861b746520201a39435cdfa2612d3d42b3beac205"
STALE_REF_SHA256 = ("f6a9c5763fab71a7583ff8521d3e3b5ce240711d54691f2dfacded58dbfa29b0",
                    "85a67de590389dad96bced795da8ed0ccf5fe59d21c4dd4c86a1726162ee84a7")
# per-term means of eval_stats.json
EVAL_MEANS = [0.00997113574249944, 3.692202994881434e-45, 0.39469347250907016]


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
        {"id": "fidelity", "stage": 1, "max": 0.258640904001549,
         "mean": 0.01859424864965251, "min": 3.519214289850379e-20,
         "std": 0.036533904868219697},
        {"id": "smoothness", "stage": 2, "max": 6.693509989309549e-13,
         "mean": 5.534725019216066e-15, "min": 0.0, "std": 5.900463686986176e-14},
        {"id": "alignment", "stage": 3, "max": 0.9996200885394421,
         "mean": 0.25704164772930227, "min": 3.489076597247935e-09,
         "std": 0.3613759971270413},
    ],
}
WIDE_EVAL_GROUPS = """\
group,condition,mean_fidelity,mean_smoothness,mean_alignment
0,2,0.015745612285330734,1.902879685165432e-24,0.301641944518499
1,0,0.02144288501397428,1.1069450036529253e-14,0.21244135094010552
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
