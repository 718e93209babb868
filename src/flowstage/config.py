"""Run configuration: one declarative file per run.

A config file (YAML or JSON) is deep-merged over the defaults below,
then dotted-path overrides are applied.  Every default is materialized
into the resolved config that gets written next to the run's outputs, so
an output directory is always self-describing and re-runnable.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import yaml

from .curriculum import CurriculumConfig
from .errors import ConfigError
from .flow_policy import PolicyDims, SdeConfig, ToyDataset
from .grpo import TrainConfig
from .rewards import RewardTerm, validate_suite

MODES = ("pretrain", "calibrate", "train", "eval", "audit")

DEFAULTS = {
    "mode": "train",
    "seed": 0,
    "outdir": "runs/default",
    "dataset": {
        "frames": 8,
        "frame_dim": 2,
        "num_classes": 8,
        "omega": 0.2,
        "jitter": 0.01,
    },
    "policy": {
        "embed_dim": 8,
        "hidden": [64, 64],
        "init_checkpoint": None,
    },
    "pretrain": {
        "steps": 2000,
        "batch_size": 64,
        "learning_rate": 1e-3,
    },
    "sde": {
        "num_steps": 16,
        "eta": 0.5,
        "t_min": 0.04,
    },
    "rewards": [
        {"id": "fidelity", "kind": "fidelity", "stage": 1, "scale": 0.05},
        {"id": "smoothness", "kind": "smoothness", "stage": 2, "scale": 0.02},
        {"id": "alignment", "kind": "alignment", "stage": 3, "scale": 0.5},
    ],
    "curriculum": {
        "alpha": 8.0,
        "beta": 1.0,
        "thresholds": [0.75, 0.75, 0.75],
        "weight_mode": "per_group",
        "ema_decay": 0.9,
        "thresholds_file": None,
    },
    "train": {
        "group_size": 16,
        "clip_eps": 0.1,
        "learning_rate": 3e-4,
        "num_steps": 200,
        "timestep_fraction": 0.6,
        "ratio_clamp_max": 5.0,
        "ref_refresh_interval": 1,
        "static_stage": None,
        "smooth_window": 15,
        "max_grad_norm": 1.0,
        "checkpoint_interval": 0,
    },
    "calibrate": {
        "steps": 50,
    },
    "eval": {
        "num_groups": 8,
    },
    "audit": {
        "input": None,
        "k": None,
        "max_iters": 100,
    },
}


def _deep_merge(base, override, path, errors):
    """Merge override into a copy of base, flagging unknown keys."""
    merged = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            errors.append(f"{here}: unknown key")
            continue
        if isinstance(base[key], dict) and isinstance(value, dict):
            merged[key] = _deep_merge(base[key], value, here, errors)
        else:
            merged[key] = value
    return merged


def _set_dotted(tree, dotted, value, errors):
    parts = dotted.split(".")
    node = tree
    for i, part in enumerate(parts[:-1]):
        if not isinstance(node, dict) or part not in node:
            errors.append(f"{'.'.join(parts[: i + 1])}: unknown key")
            return
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        errors.append(f"{dotted}: unknown key")
        return
    node[leaf] = value


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    text = path.read_text()
    try:
        if path.suffix == ".json":
            data = json.loads(text)
        else:
            data = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ConfigError([f"{path}: parse error: {exc}"])
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: config must be a mapping"])
    return data


def parse_override(text: str):
    """``key.path=value`` with the value parsed as a YAML scalar."""
    if "=" not in text:
        raise ConfigError([f"override {text!r} must look like key.path=value"])
    key, raw = text.split("=", 1)
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError([f"override {key}: bad value {raw!r}: {exc}"])
    return key.strip(), value


class RunConfig:
    """Validated, fully materialized run configuration."""

    def __init__(self, resolved: dict):
        self.resolved = resolved
        self._validate()

    @classmethod
    def from_file(cls, path, overrides=()) -> "RunConfig":
        user = load_config_file(path)
        return cls.from_dict(user, overrides)

    @classmethod
    def from_dict(cls, user: dict, overrides=()) -> "RunConfig":
        errors: list = []
        # a copy: overrides write into the sections the user left out
        resolved = _deep_merge(copy.deepcopy(DEFAULTS), user, "", errors)
        for text in overrides:
            key, value = parse_override(text)
            _set_dotted(resolved, key, value, errors)
        if errors:
            raise ConfigError(errors)
        return cls(resolved)

    # -- validation ---------------------------------------------------------

    def _validate(self) -> None:
        cfg = self.resolved
        errors = []

        if cfg["mode"] not in MODES:
            errors.append(f"mode: must be one of {MODES}, got {cfg['mode']!r}")
        if not isinstance(cfg["seed"], int):
            errors.append("seed: must be an integer")
        if not isinstance(cfg["outdir"], str) or not cfg["outdir"]:
            errors.append("outdir: must be a non-empty path")

        for field in ("frames", "frame_dim", "num_classes"):
            v = cfg["dataset"][field]
            if not isinstance(v, int) or v < 1:
                errors.append(f"dataset.{field}: must be a positive integer")
        if isinstance(cfg["dataset"]["frames"], int) and cfg["dataset"]["frames"] < 2:
            errors.append("dataset.frames: must be >= 2")

        hidden = cfg["policy"]["hidden"]
        if not isinstance(hidden, list) or not hidden or not all(
            isinstance(h, int) and h >= 1 for h in hidden
        ):
            errors.append("policy.hidden: must be a non-empty list of positive ints")
        if not isinstance(cfg["policy"]["embed_dim"], int) or cfg["policy"]["embed_dim"] < 1:
            errors.append("policy.embed_dim: must be a positive integer")

        for field, low in (("steps", 0), ("batch_size", 1)):
            v = cfg["pretrain"][field]
            if not isinstance(v, int) or v < low:
                errors.append(f"pretrain.{field}: must be an integer >= {low}")

        if not errors:
            # constructors carry the numeric range checks; translate their
            # complaints into field-level diagnostics
            for section, builder in (
                ("sde", self.sde_config),
                ("curriculum", self.curriculum_config),
                ("rewards", self.reward_suite),
            ):
                try:
                    builder()
                except (ValueError, TypeError) as exc:
                    errors.append(f"{section}: {exc}")
            try:
                self.train_config()
            except (ValueError, TypeError) as exc:
                errors.append(f"train: {exc}")
            if (not errors and cfg["mode"] == "train"
                    and cfg["train"]["static_stage"] is None):
                errors.extend(self._threshold_errors())

        interval = cfg["train"]["checkpoint_interval"]
        if not isinstance(interval, int) or isinstance(interval, bool) or interval < 0:
            errors.append("train.checkpoint_interval: must be an integer >= 0")

        mode = cfg["mode"]
        if mode in ("calibrate", "train") and cfg["sde"]["eta"] == 0:
            errors.append(f"sde.eta: must be > 0 for mode {mode!r}; GRPO needs "
                          "the transition densities an eta = 0 rollout does not have")
        if mode in ("calibrate", "train", "eval") and not cfg["policy"]["init_checkpoint"]:
            errors.append(f"policy.init_checkpoint: required for mode {mode!r}")
        if mode == "audit" and not cfg["audit"]["input"]:
            errors.append("audit.input: required for mode 'audit'")
        if mode == "calibrate":
            v = cfg["calibrate"]["steps"]
            if not isinstance(v, int) or v < 2:
                errors.append("calibrate.steps: must be an integer >= 2")
        if not isinstance(cfg["eval"]["num_groups"], int) or cfg["eval"]["num_groups"] < 1:
            errors.append("eval.num_groups: must be a positive integer")

        if errors:
            raise ConfigError(errors)

    def _threshold_errors(self) -> list:
        """A curriculum run gates every reward term on its own threshold.

        Inline thresholds may outnumber the terms (the defaults carry
        three); a calibrated file must hold exactly one per term, or it
        was calibrated for another suite.
        """
        terms = len(self.resolved["rewards"])
        try:
            taus = self.thresholds_from_file()
        except ConfigError as exc:
            return exc.details
        if taus is None:
            count = len(self.resolved["curriculum"]["thresholds"])
            if count < terms:
                return [f"curriculum.thresholds: {count} thresholds for {terms} reward "
                        "terms; give one per term or set train.static_stage"]
        elif len(taus) != terms:
            return [f"curriculum.thresholds_file: {len(taus)} thresholds for {terms} "
                    "reward terms; calibrate against this reward suite"]
        return []

    # -- typed accessors ----------------------------------------------------

    @property
    def mode(self) -> str:
        return self.resolved["mode"]

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def outdir(self) -> Path:
        return Path(self.resolved["outdir"])

    def policy_dims(self) -> PolicyDims:
        d = self.resolved["dataset"]
        return PolicyDims(
            frames=d["frames"],
            frame_dim=d["frame_dim"],
            num_classes=d["num_classes"],
            embed_dim=self.resolved["policy"]["embed_dim"],
        )

    def dataset(self) -> ToyDataset:
        d = self.resolved["dataset"]
        return ToyDataset(self.policy_dims(), omega=d["omega"], jitter=d["jitter"])

    def sde_config(self) -> SdeConfig:
        s = self.resolved["sde"]
        return SdeConfig(num_steps=s["num_steps"], eta=s["eta"], t_min=s["t_min"])

    def curriculum_config(self, thresholds=None) -> CurriculumConfig:
        c = self.resolved["curriculum"]
        return CurriculumConfig(
            alpha=c["alpha"],
            beta=c["beta"],
            thresholds=tuple(thresholds if thresholds is not None else c["thresholds"]),
            weight_mode=c["weight_mode"],
            ema_decay=c["ema_decay"],
        )

    def thresholds_from_file(self) -> list | None:
        """The thresholds in ``curriculum.thresholds_file`` (as calibrate
        mode writes them), or None when no file is set."""
        path = self.resolved["curriculum"]["thresholds_file"]
        if not path:
            return None
        try:
            with open(path) as fp:
                return [float(t) for t in json.load(fp)["thresholds"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError([f"curriculum.thresholds_file: cannot read {path}: {exc!r}"])

    def reward_suite(self) -> list:
        num_classes = self.resolved["dataset"]["num_classes"]
        suite = []
        for entry in self.resolved["rewards"]:
            extra = set(entry) - {"id", "kind", "stage", "scale"}
            if extra:
                raise ConfigError([f"rewards: unknown keys {sorted(extra)}"])
            kwargs = dict(entry)
            if kwargs.get("kind") == "alignment":
                kwargs["num_classes"] = num_classes
            suite.append(RewardTerm(**kwargs))
        validate_suite(suite)
        return suite

    def train_config(self, thresholds=None, static_stage=None,
                     num_steps=None) -> TrainConfig:
        t = self.resolved["train"]
        return TrainConfig(
            group_size=t["group_size"],
            clip_eps=t["clip_eps"],
            learning_rate=t["learning_rate"],
            num_steps=num_steps if num_steps is not None else t["num_steps"],
            timestep_fraction=t["timestep_fraction"],
            ratio_clamp_max=t["ratio_clamp_max"],
            ref_refresh_interval=t["ref_refresh_interval"],
            seed=self.seed,
            sde=self.sde_config(),
            curriculum=self.curriculum_config(thresholds),
            suite=tuple(self.reward_suite()),
            static_stage=static_stage if static_stage is not None else t["static_stage"],
            smooth_window=t["smooth_window"],
            max_grad_norm=t["max_grad_norm"],
        )

    def write_resolved(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "resolved_config.json"
        with open(path, "w") as fp:
            json.dump(self.resolved, fp, sort_keys=True, indent=2)
            fp.write("\n")
        return path
