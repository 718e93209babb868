"""Run-config contracts: every value a run depends on can be set and is
recorded, and configs that cannot run are rejected at load time."""

import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import edit_header, kept_by_step, late_overflow, reshape_in_header

from flowstage import cli, flow_policy, grpo
from flowstage.config import DEFAULTS, RunConfig
from flowstage.curriculum import CurriculumConfig, calibrate_thresholds
from flowstage.errors import ConfigError
from flowstage.flow_policy import (
    DEFAULT_HIDDEN,
    PolicyDims,
    SdeConfig,
    ToyDataset,
    init_flow_policy,
    load_policy,
    save_policy,
)
from flowstage.grpo import TrainConfig
from flowstage.numerics import CHECKPOINT_MAGIC, RandomSource
from flowstage.rewards import default_suite


@pytest.fixture(autouse=True)
def in_tmp_dir(tmp_path, monkeypatch):
    """Run each test in its own directory, where ``init.ckpt`` (the
    checkpoint ``TRAIN`` names) holds a small policy of the default dims:
    a config that starts from it reads it at load."""
    monkeypatch.chdir(tmp_path)
    save_policy(tmp_path / "init.ckpt",
                init_flow_policy(PolicyDims(), hidden=(8,), rng=RandomSource(0)))


@pytest.fixture
def checkpoint(tmp_path):
    return str(tmp_path / "init.ckpt")


@pytest.fixture
def items(tmp_path):
    path = tmp_path / "items.csv"
    rows = [f"item{i},{0.1 * (i % 5)},{i % 2},{float(i % 3)}" for i in range(12)]
    path.write_text("id,score,label,f0\n" + "\n".join(rows) + "\n")
    return str(path)


def run_cli(tmp_path, checkpoint, *overrides):
    """The exit code and the output directory of a run from a small config
    in ``tmp_path``: ``tmp_path / "out"`` unless an override sets
    ``outdir``."""
    outdir = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "outdir": str(outdir),
        "policy": {"init_checkpoint": checkpoint},
        "train": {"num_steps": 2, "group_size": 4},
        "eval": {"num_groups": 2},
    }))
    for text in overrides:
        if text.startswith("--set=outdir="):
            outdir = Path(text.removeprefix("--set=outdir="))
    return cli.main([str(config), *overrides]), outdir


def load_errors(user, *overrides):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(user, overrides)
    return exc.value.details


TRAIN = {"mode": "train", "policy": {"init_checkpoint": "init.ckpt"}}

# in-place edits of a checkpoint's header that leave it unloadable
META_EDITS = {
    "float dims": lambda header: header["meta"]["dims"].update(frames=8.0),
    "float layer size": lambda header: header["meta"].update(
        layer_sizes=[25.5, *header["meta"]["layer_sizes"][1:]]),
    "dims without embed_dim": lambda header: header["meta"]["dims"].pop("embed_dim"),
    "meta list": lambda header: header.update(meta=[header["meta"]]),
}


class TestMaxGradNorm:
    def test_override_reaches_train_config_and_resolved_file(self, tmp_path, checkpoint):
        cfg = RunConfig.from_dict(TRAIN, ["train.max_grad_norm=0.5"])
        assert cfg.train.max_grad_norm == 0.5
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=train.max_grad_norm=0.5")
        assert rc == 0
        with open(outdir / "resolved_config.json") as fp:
            assert json.load(fp)["train"]["max_grad_norm"] == 0.5

    def test_negative_rejected(self):
        errors = load_errors(TRAIN, "train.max_grad_norm=-1")
        assert any("max_grad_norm" in e for e in errors)


def test_defaults_are_the_dataclass_defaults():
    cfg = RunConfig.from_dict(TRAIN)
    assert cfg.dims == PolicyDims()
    assert cfg.dataset() == ToyDataset()
    assert cfg.resolved["policy"]["hidden"] == list(DEFAULT_HIDDEN)
    assert inspect.signature(init_flow_policy).parameters["hidden"].default is DEFAULT_HIDDEN
    assert cfg.sde == SdeConfig()
    assert cfg.train.curriculum == CurriculumConfig()
    assert cfg.suite == default_suite(cfg.dims.num_classes)
    assert cfg.train == TrainConfig(suite=cfg.suite)


def test_calibrate_smooths_with_the_train_window(tmp_path, checkpoint):
    rc, outdir = run_cli(tmp_path, checkpoint, "--set=mode=calibrate", "--set=calibrate.steps=9")
    assert rc == 0
    tau = json.loads((outdir / "tau.json").read_text())
    assert tau["smooth_window"] == TrainConfig().smooth_window
    curves = [[float(line.split(",")[1]) for line in
               (outdir / f"calibrate_stage{stage}.csv").read_text().splitlines()[1:]]
              for stage in (1, 2, 3)]
    taus, _ = calibrate_thresholds(curves, TrainConfig().smooth_window)
    assert tau["thresholds"] == taus.tolist()


def test_zero_step_train_writes_the_log_header(tmp_path, checkpoint):
    rc, outdir = run_cli(tmp_path, checkpoint, "--set=train.num_steps=0")
    assert rc == 0
    assert (outdir / "trainlog.jsonl").read_text() == ""
    header = (outdir / "trainlog.csv").read_text()
    (tmp_path / "one").mkdir()
    rc, one_step = run_cli(tmp_path / "one", checkpoint, "--set=train.num_steps=1")
    assert rc == 0
    assert header == (one_step / "trainlog.csv").read_text().splitlines(keepends=True)[0]


def test_yaml_is_imported_only_for_yaml_files_and_overrides(tmp_path):
    # a JSON run without overrides never pays for importing yaml; a YAML
    # file and a --set override still parse, YAML scalars included
    (tmp_path / "run.json").write_text('{"mode": "pretrain", "seed": 3}')
    (tmp_path / "run.yaml").write_text("mode: pretrain\nseed: 4\nsde:\n  eta: 0.25\n")
    script = (
        "import json, sys\n"
        "import flowstage.cli\n"
        "from flowstage.config import RunConfig\n"
        "seen = ['yaml' in sys.modules]\n"
        "a = RunConfig.from_file(sys.argv[1])\n"
        "seen.append('yaml' in sys.modules)\n"
        "b = RunConfig.from_file(sys.argv[2])\n"
        "c = RunConfig.from_file(sys.argv[1], ['sde.eta=0.75', 'train.static_stage=null'])\n"
        "print(json.dumps([seen, a.seed, b.seed, b.sde.eta, c.sde.eta,\n"
        "                  c.resolved['train']['static_stage']]))\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run.json"),
                          str(tmp_path / "run.yaml")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[False, False], 3, 4, 0.25, 0.75, None]


def test_overrides_do_not_leak_into_later_loads():
    RunConfig.from_dict(TRAIN, ["train.max_grad_norm=0.25", "sde.eta=0.3"])
    cfg = RunConfig.from_dict(TRAIN)
    assert cfg.train.max_grad_norm == 1.0
    assert cfg.sde.eta == 0.5


def test_mapping_override_merges_into_its_section():
    # pretrain mode: a train config would reject init.ckpt, of 8 frames
    cfg = RunConfig.from_dict({"mode": "pretrain"}, ["dataset={frames: 3, jitter: 0.5}"])
    assert cfg.resolved["dataset"] == {**DEFAULTS["dataset"], "frames": 3, "jitter": 0.5}
    assert load_errors(TRAIN, "dataset={frames: 3, depth: 2}") == ["dataset.depth: unknown key"]


class TestRejectedAtLoad:
    @pytest.mark.parametrize("mode", ["train", "calibrate"])
    def test_eta_zero_exits_1_without_failure_file(self, tmp_path, checkpoint, capsys, mode):
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=mode={mode}", "--set=sde.eta=0")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "sde.eta" in capsys.readouterr().err

    def test_eval_accepts_eta_zero(self, tmp_path, checkpoint):
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=mode=eval", "--set=sde.eta=0")
        assert rc == 0
        assert (outdir / "eval_stats.json").is_file()

    @pytest.mark.parametrize("value", ["-3", "2.5"])
    def test_bad_checkpoint_interval(self, value):
        errors = load_errors(TRAIN, f"train.checkpoint_interval={value}")
        assert any("train.checkpoint_interval" in e for e in errors)

    @pytest.mark.parametrize("mode, override, message", [
        ("train", "train.group_size=4.5", "train: group_size"),
        ("eval", "train.group_size=4.5", "train: group_size"),
        ("train", "train.num_steps=2.5", "train: num_steps"),
        ("train", "sde.num_steps=2.5", "sde: num_steps"),
        ("calibrate", "train.smooth_window=2.5", "train: smooth_window"),
        ("train", "train.ref_refresh_interval=1.5", "train: ref_refresh_interval"),
        ("train", "seed=true", "seed: must be an integer"),
        ("pretrain", "pretrain.learning_rate=-1", "pretrain.learning_rate"),
        ("pretrain", "seed=-1", "seed: must be an integer >= 0"),
        ("pretrain", "dataset.num_classes=true", "dataset.num_classes"),
        ("pretrain", "policy.embed_dim=true", "policy.embed_dim"),
        ("pretrain", "policy.hidden=[true]", "policy.hidden[0]"),
        ("pretrain", "pretrain.steps=true", "pretrain.steps"),
        ("pretrain", "pretrain.batch_size=true", "pretrain.batch_size"),
        ("eval", "eval.num_groups=true", "eval.num_groups"),
        ("audit", "audit.k=true", "audit.k"),
        ("audit", "audit.k=abc", "audit.k"),
        ("audit", "audit.k=2.5", "audit.k"),
        ("audit", "audit.k=0", "audit.k"),
        ("audit", "audit.max_iters=abc", "audit.max_iters"),
        ("audit", "audit.max_iters=-1", "audit.max_iters"),
        ("pretrain", "dataset.jitter=abc", "dataset.jitter"),
        ("pretrain", "dataset.jitter=-1", "dataset.jitter"),
        ("pretrain", "dataset.omega=abc", "dataset.omega"),
        ("pretrain", "dataset.frame_dim=3", "dataset: circle dataset requires frame_dim = 2"),
        ("train", "train.clip_eps=true", "train: clip_eps"),
        ("train", "train.learning_rate=true", "train: learning_rate"),
        ("train", "sde.eta=true", "sde: eta"),
        ("train", "curriculum.alpha=true", "curriculum: alpha"),
        ("train", "curriculum.thresholds=[true, 0.7, 0.7]", "curriculum: thresholds"),
        ("train", "train.clip_eps=.inf", "train: clip_eps"),
        ("pretrain", "dataset.omega=.nan", "dataset.omega"),
        ("eval", 'rewards=[{"id": "f", "stage": 1, "kind": "fidelity", "scale": true}]',
         "rewards[0]: scale"),
        ("eval", 'rewards=[{"id": "f", "stage": true, "kind": "fidelity", "scale": 0.05}]',
         "rewards[0]: stage"),
    ])
    def test_bad_number_exits_1_without_failure_file(self, tmp_path, checkpoint, items, capsys,
                                                     mode, override, message):
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=mode={mode}",
                             "--set=pretrain.steps=1", "--set=calibrate.steps=2",
                             f"--set=audit.input={items}", f"--set={override}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("given", ["set", "file"])
    @pytest.mark.parametrize("value", [5, None])
    @pytest.mark.parametrize("section", [key for key, default in DEFAULTS.items()
                                         if isinstance(default, (dict, list))])
    def test_section_given_as_a_scalar_exits_1(self, tmp_path, checkpoint, capsys,
                                               section, value, given):
        if given == "set":
            rc, outdir = run_cli(tmp_path, checkpoint, f"--set={section}={json.dumps(value)}")
        else:
            config = tmp_path / "scalar.json"
            config.write_text(json.dumps({"outdir": str(tmp_path / "out"), section: value}))
            rc, outdir = cli.main([str(config)]), tmp_path / "out"
        assert rc == 1
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert f"config error: {section}: must be a " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("overrides, lines", [
        (["sde.num_steps=0"], ["sde: num_steps must be >= 1"]),
        (["sde.eta=-1"], ["sde: eta must be >= 0"]),
        (["curriculum.alpha=0"], ["curriculum: alpha must be > 0"]),
        (["curriculum.weight_mode=x"], ["curriculum: unknown weight_mode 'x'"]),
        (["rewards=[{id: f, stage: 1, kind: fidelity, scale: -1}]"],
         ["rewards[0]: scale must be positive"]),
        (["rewards=[5]"],
         ["rewards[0]: must be a mapping, got 5; an entry holds exactly id, stage, kind "
          "and scale"]),
        (["rewards=[{id: f, stage: 1, kind: fidelity, scale: 1}, {id: s, stage: 2}]"],
         ["rewards[1]: missing keys ['kind', 'scale']; an entry holds exactly id, stage, "
          "kind and scale"]),
        (["rewards=[{id: f, stage: 1, kind: fidelity, scale: 1, extra: 0}]"],
         ["rewards[0]: unknown keys ['extra']; an entry holds exactly id, stage, kind "
          "and scale"]),
        (["rewards=[{stage: 1, kind: fidelity, scale: 1, extra: 0}]"],
         ["rewards[0]: missing keys ['id'], unknown keys ['extra']; an entry holds exactly "
          "id, stage, kind and scale"]),
        (["sde.num_steps=0", "train.group_size=1", "train.static_stage=4"],
         ["sde: num_steps must be >= 1", "train: group_size must be >= 2",
          "train.static_stage: must lie in [1, 3] for 3 reward terms, got 4"]),
        (["sde.num_steps=0", "curriculum.thresholds=[0.7, 0.7]", "train.group_size=1"],
         ["sde: num_steps must be >= 1", "curriculum.thresholds: 2 thresholds for 3 reward "
          "terms; give one per term or set train.static_stage",
          "train: group_size must be >= 2"]),
        (["curriculum.thresholds_file=5"],
         ["curriculum.thresholds_file: must be a path, got 5"]),
    ])
    def test_each_error_reported_once_under_its_own_section(self, tmp_path, checkpoint, capsys,
                                                            overrides, lines):
        rc, _ = run_cli(tmp_path, checkpoint, *(f"--set={o}" for o in overrides))
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}" for line in lines]

    @pytest.mark.parametrize("window, shortest", [(15, 9), (14, 8), (1, 2), (3, 3)])
    def test_calibrate_steps_must_outlast_the_smoothing_window(self, window, shortest):
        # a probe curve of at most (window + 1) // 2 steps is smoothed to
        # its mean at both ends, so no stage could show an improvement
        calibrate = {"mode": "calibrate", "policy": {"init_checkpoint": "init.ckpt"},
                     "train": {"smooth_window": window}}
        RunConfig.from_dict(calibrate, [f"calibrate.steps={shortest}"])
        if shortest > 2:
            errors = load_errors(calibrate, f"calibrate.steps={shortest - 1}")
            assert len(errors) == 1
            assert "calibrate.steps" in errors[0] and "train.smooth_window" in errors[0]

    def test_short_calibrate_run_exits_1_without_failure_file(self, tmp_path, checkpoint,
                                                              capsys):
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=mode=calibrate",
                             "--set=calibrate.steps=6")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        err = capsys.readouterr().err
        assert "calibrate.steps" in err and "train.smooth_window" in err

    @pytest.mark.parametrize("mode", ["eval", "train", "calibrate"])
    def test_alignment_on_one_dimensional_frames_exits_1(self, tmp_path, capsys, mode):
        path = tmp_path / "line.ckpt"
        save_policy(path, init_flow_policy(PolicyDims(frame_dim=1), hidden=(8,),
                                           rng=RandomSource(0)))
        rc, outdir = run_cli(tmp_path, str(path), f"--set=mode={mode}",
                             "--set=dataset.frame_dim=1", "--set=calibrate.steps=2")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "dataset.frame_dim" in capsys.readouterr().err

    def test_one_dimensional_frames_run_without_alignment(self, tmp_path):
        path = tmp_path / "line.ckpt"
        save_policy(path, init_flow_policy(PolicyDims(frame_dim=1), hidden=(8,),
                                           rng=RandomSource(0)))
        rc, outdir = run_cli(tmp_path, str(path), "--set=mode=eval", "--set=dataset.frame_dim=1",
                             '--set=rewards=[{"id": "f", "stage": 1, "kind": "fidelity", '
                             '"scale": 0.05}]')
        assert rc == 0
        assert (outdir / "eval_stats.json").is_file()

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_custom_reward_kind_exits_1(self, tmp_path, checkpoint, capsys, mode):
        # there is no custom reward kind: a config file cannot give a scoring callable
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=mode={mode}",
                             "--set=rewards=[{id: c, stage: 1, kind: custom, scale: 1.0}]")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "config error: rewards[0]: unknown reward kind" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [0, 5])
    def test_static_stage_outside_the_suite_exits_1(self, tmp_path, checkpoint, capsys, stage):
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=train.static_stage={stage}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "train.static_stage: must lie in [1, 3]" in capsys.readouterr().err

    def test_too_few_thresholds_for_train(self):
        errors = load_errors(TRAIN, "curriculum.thresholds=[0.7, 0.7]")
        assert any("curriculum.thresholds" in e for e in errors)

    def test_too_few_thresholds_allowed_with_static_stage_or_outside_train(self):
        RunConfig.from_dict(TRAIN, ["curriculum.thresholds=[0.7, 0.7]", "train.static_stage=1"])
        RunConfig.from_dict(dict(TRAIN, mode="eval"), ["curriculum.thresholds=[0.7, 0.7]"])

    def test_too_few_thresholds_exit_1_before_the_first_step(self, tmp_path, checkpoint):
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=curriculum.thresholds=[0.7, 0.7]")
        assert rc == 1
        assert not (outdir / "failure.json").exists()

    @pytest.mark.parametrize("count", [2, 4])
    def test_thresholds_file_of_wrong_length(self, tmp_path, checkpoint, capsys, count):
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"thresholds": [0.7] * count}))
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=curriculum.thresholds_file={tau}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "curriculum.thresholds_file" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["calibrate", "train", "eval"])
    def test_missing_init_checkpoint(self, tmp_path, capsys, mode):
        rc, outdir = run_cli(tmp_path, str(tmp_path / "absent.ckpt"), f"--set=mode={mode}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "config error: policy.init_checkpoint: no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["calibrate", "train", "eval"])
    def test_init_checkpoint_of_other_dims(self, tmp_path, checkpoint, capsys, mode):
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=mode={mode}",
                             "--set=dataset.num_classes=3")
        assert rc == 1
        assert not outdir.exists()
        assert capsys.readouterr().err == (
            f"config error: policy.init_checkpoint: checkpoint dims {PolicyDims()} do not "
            f"match the configured dims {PolicyDims(num_classes=3)}\n")

    @pytest.mark.parametrize("mode", ["calibrate", "train", "eval"])
    @pytest.mark.parametrize("content", ["json", "truncated", "bad header", "oversized",
                                         "negative dims", *META_EDITS])
    def test_init_checkpoint_that_does_not_load(self, tmp_path, checkpoint, capsys, mode,
                                                content):
        path = tmp_path / "bad.ckpt"
        if content == "json":
            path = tmp_path / "other.json"
            path.write_text(json.dumps({"mode": "eval"}))
        elif content == "truncated":
            path.write_bytes(Path(checkpoint).read_bytes()[:-8])
        elif content in ("oversized", "negative dims"):
            # a header naming 80 TB of weights, or dims of no array
            path.write_bytes(Path(checkpoint).read_bytes())
            shape = [10**7, 10**6] if content == "oversized" else [-(10**7), -(10**6)]
            reshape_in_header(path, "w0", shape)
        elif content in META_EDITS:
            path.write_bytes(Path(checkpoint).read_bytes())
            edit_header(path, META_EDITS[content])
        else:
            path.write_bytes(CHECKPOINT_MAGIC + b"{not json\n")
        rc, outdir = run_cli(tmp_path, str(path), f"--set=mode={mode}")
        assert rc == 1
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: policy.init_checkpoint: cannot read {path}: ")
        assert len(err.splitlines()) == 1
        if content == "json":
            assert err.endswith(f"DomainError('{path}: not a flowstage checkpoint')\n")

    @pytest.mark.parametrize("name", ["absent.csv", "."])
    def test_missing_audit_input(self, tmp_path, checkpoint, capsys, name):
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=mode=audit",
                             f"--set=audit.input={tmp_path / name}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert "config error: audit.input: no such file" in capsys.readouterr().err

    def test_missing_thresholds_file(self, tmp_path, checkpoint):
        missing = tmp_path / "absent.json"
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=curriculum.thresholds_file={missing}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()

    @pytest.mark.parametrize("text", ["not json", '{"thresholds": 0.7}'])
    def test_unreadable_thresholds_file_with_static_stage(self, tmp_path, checkpoint, capsys,
                                                          text):
        # a static-stage run does not gate on the thresholds, but a file it
        # names is still read, and checked, at load
        tau = tmp_path / "tau.json"
        tau.write_text(text)
        rc, outdir = run_cli(tmp_path, checkpoint, "--set=train.static_stage=1",
                             f"--set=curriculum.thresholds_file={tau}")
        assert rc == 1
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert err.startswith(f"config error: curriculum.thresholds_file: cannot read {tau}: ")
        assert len(err.splitlines()) == 1

    def test_thresholds_file_overrides_inline_thresholds(self, tmp_path, checkpoint):
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"thresholds": [0.6, 0.65, 0.7]}))
        cfg = RunConfig.from_dict(TRAIN, [f"curriculum.thresholds_file={tau}",
                                          "curriculum.thresholds=[0.7]"])
        assert cfg.train.curriculum.thresholds == (0.6, 0.65, 0.7)
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=curriculum.thresholds_file={tau}")
        assert rc == 0
        assert (outdir / "trainlog.jsonl").is_file()


def test_init_checkpoint_is_read_once_at_load(tmp_path, checkpoint):
    cfg = RunConfig.from_dict({"mode": "eval", "outdir": "out",
                               "policy": {"init_checkpoint": checkpoint},
                               "train": {"group_size": 4}, "eval": {"num_groups": 2}})
    expected, _ = load_policy(checkpoint)
    np.testing.assert_array_equal(cfg.init_policy.vector, expected.vector)
    Path(checkpoint).unlink()
    cfg.outdir.mkdir()
    cli.run_eval(cfg)
    assert (cfg.outdir / "eval_stats.json").is_file()


def test_thresholds_file_is_read_once_at_load(tmp_path, checkpoint, monkeypatch):
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps({"thresholds": [0.6, 0.65, 0.7]}))
    cfg = RunConfig.from_dict({**TRAIN, "outdir": "out", "policy": {"init_checkpoint": checkpoint},
                               "train": {"num_steps": 2, "group_size": 4}},
                              [f"curriculum.thresholds_file={tau}"])
    tau.unlink()
    trained = []

    def spy(policy, config):
        trained.append(config)
        return grpo.train(policy, config)

    monkeypatch.setattr(cli, "train", spy)
    cfg.outdir.mkdir()
    cli.run_train(cfg)
    assert trained == [cfg.train]
    assert cfg.train.curriculum.thresholds == (0.6, 0.65, 0.7)
    assert len((cfg.outdir / "trainlog.jsonl").read_text().splitlines()) == 2


@pytest.mark.parametrize("what", ["directory", "not UTF-8"])
def test_unreadable_config_file_exits_1(tmp_path, capsys, what):
    path = tmp_path
    if what == "not UTF-8":
        path = tmp_path / "run.yaml"
        path.write_bytes(b"mode: \xff\n")
    assert cli.main([str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: cannot read: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("under", [False, True], ids=["a file", "under a file"])
def test_outdir_that_cannot_be_created_exits_1(tmp_path, checkpoint, capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    outdir = blocker / "out" if under else blocker
    rc, _ = run_cli(tmp_path, checkpoint, f"--set=outdir={outdir}")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: outdir: cannot create {outdir}: ")
    assert len(err.splitlines()) == 1
    assert blocker.read_text() == "kept"


def test_run_cli_returns_the_outdir_an_override_sets(tmp_path, checkpoint):
    rc, outdir = run_cli(tmp_path, checkpoint, "--set=mode=eval", "--set=outdir=elsewhere")
    assert rc == 0
    assert outdir == Path("elsewhere") and (tmp_path / "elsewhere" / "eval_stats.json").is_file()
    assert not (tmp_path / "out").exists()


def test_eval_keeps_no_activations(tmp_path, checkpoint, monkeypatch):
    rollouts = []
    sample = cli.sde_sample

    def spy(*args, **kwargs):
        rollouts.append(sample(*args, **kwargs))
        return rollouts[-1]

    monkeypatch.setattr(cli, "sde_sample", spy)
    rc, _ = run_cli(tmp_path, checkpoint, "--set=mode=eval")
    assert rc == 0
    assert len(rollouts) == 2
    assert all(kept_by_step(r) == {} and len(r) == 4 for r in rollouts)


def fail_at(calls: int, fn):
    """``fn``, raising instead on its ``calls + 1``-th call."""
    done = []

    def failing(*args, **kwargs):
        done.append(None)
        if len(done) > calls:
            raise RuntimeError(f"call {calls} failed")
        return fn(*args, **kwargs)

    return failing


@pytest.mark.parametrize("k", [0, 3])
def test_failed_train_run_keeps_its_completed_steps(tmp_path, checkpoint, monkeypatch, capsys, k):
    settings = ("--set=train.num_steps=5", "--set=train.checkpoint_interval=2")
    (tmp_path / "full").mkdir()
    rc, full = run_cli(tmp_path / "full", checkpoint, *settings)
    assert rc == 0
    monkeypatch.setattr(grpo, "train_step", fail_at(k, grpo.train_step))
    rc, outdir = run_cli(tmp_path, checkpoint, *settings)
    assert rc == 2
    assert json.loads((outdir / "failure.json").read_text())["message"] == f"call {k} failed"
    assert "error: RuntimeError" in capsys.readouterr().err
    jsonl = (full / "trainlog.jsonl").read_text().splitlines(keepends=True)
    assert len(jsonl) == 5
    assert (outdir / "trainlog.jsonl").read_text() == "".join(jsonl[:k])
    rows = (full / "trainlog.csv").read_text().splitlines(keepends=True)
    assert (outdir / "trainlog.csv").read_text() == "".join(rows[:k + 1])
    kept = sorted(path.name for path in outdir.glob("*.ckpt"))
    assert kept == [f"policy_step{s:05d}.ckpt" for s in range(2, k + 1, 2)]
    for name in kept:
        assert (outdir / name).read_bytes() == (full / name).read_bytes()


@pytest.mark.parametrize("k", [0, 4])
def test_failed_pretrain_run_keeps_its_completed_losses(tmp_path, checkpoint, monkeypatch, k):
    settings = ("--set=mode=pretrain", "--set=pretrain.steps=6", "--set=pretrain.batch_size=8")
    (tmp_path / "full").mkdir()
    rc, full = run_cli(tmp_path / "full", checkpoint, *settings)
    assert rc == 0
    monkeypatch.setattr(flow_policy, "adam_step_arrays", fail_at(k, flow_policy.adam_step_arrays))
    rc, outdir = run_cli(tmp_path, checkpoint, *settings)
    assert rc == 2
    assert (outdir / "failure.json").is_file()
    assert not (outdir / "policy.ckpt").exists()
    rows = (full / "pretrain_loss.csv").read_text().splitlines(keepends=True)
    assert len(rows) == 7
    assert (outdir / "pretrain_loss.csv").read_text() == "".join(rows[:k + 1])


def test_eval_rollout_failure_names_group_and_condition(tmp_path):
    path = tmp_path / "overflow.ckpt"
    save_policy(path, late_overflow(init_flow_policy(PolicyDims(), hidden=(8,),
                                                     rng=RandomSource(0))))
    # the output product overflows on purpose, in every group
    with pytest.warns(RuntimeWarning):
        rc, outdir = run_cli(tmp_path, str(path), "--set=mode=eval", "--set=sde.num_steps=4")
    assert rc == 2
    cond = int(RandomSource(0).at_stream(0, 0).integers(0, PolicyDims().num_classes))
    assert json.loads((outdir / "failure.json").read_text())["message"] == (
        f"group 0, condition {cond}: step 3 (t=0.2800): "
        "forward pass produced a non-finite output")


@pytest.mark.parametrize("name", ["run.json", "run.yaml"])
def test_byte_order_marked_files_read_like_plain_ones(tmp_path, checkpoint, name):
    """A config file and a thresholds file saved with a UTF-8 byte-order
    mark, as some editors and spreadsheet programs save them, resolve as
    the same files without one."""
    path, tau = tmp_path / name, tmp_path / "tau.json"
    user = {**TRAIN, "outdir": "out", "curriculum": {"thresholds_file": str(tau)}}
    loaded = []
    for encoding in ("utf-8", "utf-8-sig"):
        tau.write_text(json.dumps({"thresholds": [0.6, 0.65, 0.7]}), encoding=encoding)
        path.write_text(json.dumps(user), encoding=encoding)
        cfg = RunConfig.from_file(path)
        loaded.append((cfg.resolved, cfg.train))
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert loaded[0] == loaded[1]
    assert loaded[1][1].curriculum.thresholds == (0.6, 0.65, 0.7)


def test_outputs_are_utf8_under_an_ascii_locale(tmp_path, checkpoint):
    """A run whose config names a reward term in non-ASCII text writes its
    outputs as UTF-8 under the C locale, where Python's default text
    encoding is ASCII."""
    rewards = [{**term, "id": "fidélité" if term["id"] == "fidelity" else term["id"]}
               for term in DEFAULTS["rewards"]]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "mode": "eval", "outdir": "out", "rewards": rewards,
        "policy": {"init_checkpoint": checkpoint},
        "train": {"group_size": 4}, "eval": {"num_groups": 2}}), encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(
               [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-m", "flowstage.cli", str(config)], cwd=tmp_path,
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    header = (tmp_path / "out" / "eval_groups.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "group,condition,mean_fidélité,mean_smoothness,mean_alignment"
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text(encoding="utf-8"))
    assert resolved["rewards"] == rewards


def test_eval_group_g_is_train_step_gs_group(tmp_path, checkpoint):
    """At learning rate 0 every GRPO step samples under the starting
    policy, so train step g and eval group g, at one seed, draw the same
    condition and noise and score the same group, bit for bit."""
    size = ("--set=train.group_size=16", "--set=seed=5")
    (tmp_path / "train").mkdir()
    rc, train_out = run_cli(tmp_path / "train", checkpoint, *size,
                            "--set=train.num_steps=6", "--set=train.learning_rate=0")
    assert rc == 0
    rc, eval_out = run_cli(tmp_path, checkpoint, *size, "--set=mode=eval",
                           "--set=eval.num_groups=6")
    assert rc == 0
    steps = [json.loads(line) for line in (train_out / "trainlog.jsonl").read_text().splitlines()]
    with open(eval_out / "eval_groups.csv", newline="") as fp:
        groups = list(csv.reader(fp))[1:]
    assert len(steps) == len(groups) == 6
    assert len({rec["condition"] for rec in steps}) > 1
    for g, (rec, row) in enumerate(zip(steps, groups)):
        assert [int(row[0]), int(row[1])] == [g, rec["condition"]]
        assert [float(cell) for cell in row[2:]] == rec["term_means"]


class TestNoStaleFailureMarker:
    """A run removes an earlier run's ``failure.json`` from its outdir, so
    the marker always speaks of the last run there."""

    @staticmethod
    def audit(tmp_path, rows, k):
        items = tmp_path / "items.csv"
        items.write_text("id,score,f0\n" + "".join(f"item{i},{row}\n"
                                                   for i, row in enumerate(rows)))
        return run_cli(tmp_path, None, "--set=mode=audit", f"--set=audit.input={items}",
                       f"--set=audit.k={k}")

    GOOD = ["0.1,0.0", "0.2,0.1", "0.3,5.0", "0.4,5.1", "0.5,9.0", "0.6,9.1"]

    def test_fail_then_succeed_leaves_no_marker(self, tmp_path):
        rc, outdir = self.audit(tmp_path, self.GOOD[:2], 3)
        assert rc == 2 and (outdir / "failure.json").is_file()
        rc, outdir = self.audit(tmp_path, self.GOOD, 3)
        assert rc == 0
        assert (outdir / "audit_report.json").is_file()
        assert not (outdir / "failure.json").exists()

    def test_succeed_then_fail_writes_one(self, tmp_path):
        rc, outdir = self.audit(tmp_path, self.GOOD, 3)
        assert rc == 0 and not (outdir / "failure.json").exists()
        rc, outdir = self.audit(tmp_path, self.GOOD[:2], 3)
        assert rc == 2
        assert json.loads((outdir / "failure.json").read_text())["error"] == "DomainError"

    def test_marker_that_cannot_be_removed_exits_1(self, tmp_path, capsys):
        (tmp_path / "out" / "failure.json").mkdir(parents=True)
        rc, outdir = self.audit(tmp_path, self.GOOD, 3)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: outdir: cannot remove {outdir / 'failure.json'}: ")
        assert len(err.splitlines()) == 1
        assert not (outdir / "resolved_config.json").exists()
