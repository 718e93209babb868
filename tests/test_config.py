"""Run-config contracts: every value a run depends on can be set and is
recorded, and configs that cannot run are rejected at load time."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from flowstage import cli
from flowstage.config import RunConfig
from flowstage.curriculum import CurriculumConfig
from flowstage.errors import ConfigError
from flowstage.flow_policy import PolicyDims, SdeConfig, init_flow_policy, save_policy
from flowstage.grpo import TrainConfig
from flowstage.numerics import RandomSource
from flowstage.rewards import default_suite


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "init.ckpt"
    save_policy(path, init_flow_policy(PolicyDims(), hidden=(8,), rng=RandomSource(0)))
    return str(path)


@pytest.fixture
def items(tmp_path):
    path = tmp_path / "items.csv"
    rows = [f"item{i},{0.1 * (i % 5)},{i % 2},{float(i % 3)}" for i in range(12)]
    path.write_text("id,score,label,f0\n" + "\n".join(rows) + "\n")
    return str(path)


def run_cli(tmp_path, checkpoint, *overrides):
    outdir = tmp_path / "out"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "outdir": str(outdir),
        "policy": {"init_checkpoint": checkpoint},
        "train": {"num_steps": 2, "group_size": 4},
        "eval": {"num_groups": 2},
    }))
    return cli.main([str(config), *overrides]), outdir


def load_errors(user, *overrides):
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(user, overrides)
    return exc.value.details


TRAIN = {"mode": "train", "policy": {"init_checkpoint": "init.ckpt"}}


class TestMaxGradNorm:
    def test_override_reaches_train_config_and_resolved_file(self, tmp_path):
        cfg = RunConfig.from_dict(TRAIN, ["train.max_grad_norm=0.5"])
        assert cfg.train_config().max_grad_norm == 0.5
        with open(cfg.write_resolved(tmp_path)) as fp:
            assert json.load(fp)["train"]["max_grad_norm"] == 0.5

    def test_negative_rejected(self):
        errors = load_errors(TRAIN, "train.max_grad_norm=-1")
        assert any("max_grad_norm" in e for e in errors)


def test_defaults_are_the_dataclass_defaults():
    cfg = RunConfig.from_dict(TRAIN)
    assert cfg.sde_config() == SdeConfig()
    assert cfg.curriculum_config() == CurriculumConfig()
    assert cfg.reward_suite() == default_suite(cfg.policy_dims().num_classes)
    assert cfg.train_config() == TrainConfig(suite=tuple(cfg.reward_suite()))


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
        "print(json.dumps([seen, a.seed, b.seed, b.sde_config().eta, c.sde_config().eta,\n"
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
    assert cfg.train_config().max_grad_norm == 1.0
    assert cfg.sde_config().eta == 0.5


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
         "rewards: scale"),
        ("eval", 'rewards=[{"id": "f", "stage": true, "kind": "fidelity", "scale": 0.05}]',
         "rewards: stage"),
    ])
    def test_bad_number_exits_1_without_failure_file(self, tmp_path, checkpoint, items, capsys,
                                                     mode, override, message):
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=mode={mode}",
                             "--set=pretrain.steps=1", "--set=calibrate.steps=2",
                             f"--set=audit.input={items}", f"--set={override}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()
        assert message in capsys.readouterr().err

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
        assert "config error: rewards:" in capsys.readouterr().err

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

    def test_missing_thresholds_file(self, tmp_path, checkpoint):
        missing = tmp_path / "absent.json"
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=curriculum.thresholds_file={missing}")
        assert rc == 1
        assert not (outdir / "failure.json").exists()

    def test_thresholds_file_overrides_inline_thresholds(self, tmp_path, checkpoint):
        tau = tmp_path / "tau.json"
        tau.write_text(json.dumps({"thresholds": [0.6, 0.65, 0.7]}))
        cfg = RunConfig.from_dict(TRAIN, [f"curriculum.thresholds_file={tau}",
                                          "curriculum.thresholds=[0.7]"])
        tc = cfg.train_config(thresholds=cfg.thresholds_from_file())
        assert tc.curriculum.thresholds == (0.6, 0.65, 0.7)
        rc, outdir = run_cli(tmp_path, checkpoint, f"--set=curriculum.thresholds_file={tau}")
        assert rc == 0
        assert (outdir / "trainlog.jsonl").is_file()


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
    assert all(r.kept == {} and len(r) == 4 for r in rollouts)
