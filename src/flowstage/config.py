"""Run configuration: one declarative file per run.

A config file (YAML or JSON) is deep-merged over the defaults below,
then dotted-path overrides are applied.  Every default is materialized
into the resolved config that gets written next to the run's outputs, so
an output directory is always self-describing and re-runnable.  ``yaml``
is imported only to read a non-JSON file or an override, so a run from a
JSON file without overrides never loads it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields
from pathlib import Path

from .curriculum import CurriculumConfig
from .errors import ConfigError, DomainError, require_int, require_number
from .flow_policy import PolicyDims, SdeConfig, ToyDataset
from .grpo import TrainConfig
from .rewards import RewardTerm, default_suite, validate_suite

MODES = ("pretrain", "calibrate", "train", "eval", "audit")

# TrainConfig fields that a run config sets from other sections
_TRAIN_FROM_ELSEWHERE = ("seed", "sde", "curriculum", "suite")


def _field_names(cls, skip=()) -> list:
    return [f.name for f in fields(cls) if f.name not in skip]


def _field_defaults(cls, skip=()) -> dict:
    """A config section's defaults: the dataclass's own, tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls) if f.name not in skip}


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
    "sde": _field_defaults(SdeConfig),
    # an alignment term's num_classes comes from dataset.num_classes per run
    "rewards": [{"id": t.id, "kind": t.kind, "stage": t.stage, "scale": t.scale}
                for t in default_suite(num_classes=1)],
    "curriculum": {**_field_defaults(CurriculumConfig), "thresholds_file": None},
    "train": {**_field_defaults(TrainConfig, _TRAIN_FROM_ELSEWHERE),
              "checkpoint_interval": 0},
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


def _check(errors, name, value, low=None, require=require_int) -> None:
    """Record an error for ``name`` unless ``require`` accepts ``value``
    and it is at least ``low``."""
    try:
        require(name, value)
        ok = low is None or value >= low
    except DomainError:
        ok = False
    if not ok:
        kind = "an integer" if require is require_int else "a finite number"
        bound = "" if low is None else f" >= {low}"
        errors.append(f"{name}: must be {kind}{bound}, got {value!r}")


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
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: parse error: {exc}"])
    else:
        import yaml

        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
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
    import yaml

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

        mode = cfg["mode"]
        if mode not in MODES:
            errors.append(f"mode: must be one of {MODES}, got {mode!r}")
        _check(errors, "seed", cfg["seed"], 0)
        if not isinstance(cfg["outdir"], str) or not cfg["outdir"]:
            errors.append("outdir: must be a non-empty path")

        dataset = cfg["dataset"]
        for field, low in (("frames", 2), ("frame_dim", 1), ("num_classes", 1)):
            _check(errors, f"dataset.{field}", dataset[field], low)
        _check(errors, "dataset.omega", dataset["omega"], require=require_number)
        _check(errors, "dataset.jitter", dataset["jitter"], 0, require_number)

        hidden = cfg["policy"]["hidden"]
        if not isinstance(hidden, list) or not hidden:
            errors.append("policy.hidden: must be a non-empty list of positive ints")
        else:
            for i, h in enumerate(hidden):
                _check(errors, f"policy.hidden[{i}]", h, 1)
        _check(errors, "policy.embed_dim", cfg["policy"]["embed_dim"], 1)

        pretrain = cfg["pretrain"]
        _check(errors, "pretrain.steps", pretrain["steps"], 0)
        _check(errors, "pretrain.batch_size", pretrain["batch_size"], 1)
        _check(errors, "pretrain.learning_rate", pretrain["learning_rate"], 0, require_number)

        if not errors:
            # constructors carry the numeric range checks; translate their
            # complaints into field-level diagnostics
            builders = [
                ("sde", self.sde_config),
                ("curriculum", self.curriculum_config),
                ("rewards", self.reward_suite),
            ]
            if mode == "pretrain":  # the only mode that draws from the dataset
                builders.append(("dataset", self.dataset))
            for section, builder in builders:
                try:
                    builder()
                except (ValueError, TypeError) as exc:
                    errors.append(f"{section}: {exc}")
            try:
                self.train_config()
            except (ValueError, TypeError) as exc:
                errors.append(f"train: {exc}")
            stage, terms = cfg["train"]["static_stage"], len(cfg["rewards"])
            if not errors and stage is not None and not 1 <= stage <= terms:
                errors.append(f"train.static_stage: must lie in [1, {terms}] for "
                              f"{terms} reward terms, got {stage!r}")
            if not errors and mode == "train" and stage is None:
                errors.extend(self._threshold_errors())

        _check(errors, "train.checkpoint_interval", cfg["train"]["checkpoint_interval"], 0)

        if mode in ("calibrate", "train") and cfg["sde"]["eta"] == 0:
            errors.append(f"sde.eta: must be > 0 for mode {mode!r}; GRPO needs "
                          "the transition densities an eta = 0 rollout does not have")
        if mode in ("calibrate", "train", "eval") and not cfg["policy"]["init_checkpoint"]:
            errors.append(f"policy.init_checkpoint: required for mode {mode!r}")
        if mode == "audit" and not cfg["audit"]["input"]:
            errors.append("audit.input: required for mode 'audit'")
        if mode == "calibrate":
            _check(errors, "calibrate.steps", cfg["calibrate"]["steps"], 2)
        _check(errors, "eval.num_groups", cfg["eval"]["num_groups"], 1)
        if cfg["audit"]["k"] is not None:
            _check(errors, "audit.k", cfg["audit"]["k"], 1)
        _check(errors, "audit.max_iters", cfg["audit"]["max_iters"], 1)

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

    def _section(self, name: str, cls, skip=()) -> dict:
        """The fields of ``cls`` that section ``name`` sets, by name."""
        section = self.resolved[name]
        return {field: section[field] for field in _field_names(cls, skip)}

    def sde_config(self) -> SdeConfig:
        return SdeConfig(**self._section("sde", SdeConfig))

    def curriculum_config(self, thresholds=None) -> CurriculumConfig:
        kwargs = self._section("curriculum", CurriculumConfig)
        if thresholds is not None:
            kwargs["thresholds"] = thresholds
        return CurriculumConfig(**kwargs)

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
        frame_dim = self.resolved["dataset"]["frame_dim"]
        suite = []
        for entry in self.resolved["rewards"]:
            extra = set(entry) - {"id", "kind", "stage", "scale"}
            if extra:
                raise ConfigError([f"rewards: unknown keys {sorted(extra)}"])
            kwargs = dict(entry)
            if kwargs.get("kind") == "alignment":
                if frame_dim < 2:  # the final frame's angle needs two coordinates
                    raise DomainError(f"alignment term {kwargs.get('id')!r} needs "
                                      f"dataset.frame_dim >= 2, got {frame_dim}")
                kwargs["num_classes"] = num_classes
            suite.append(RewardTerm(**kwargs))
        validate_suite(suite)
        return suite

    def train_config(self, thresholds=None, static_stage=None,
                     num_steps=None) -> TrainConfig:
        kwargs = self._section("train", TrainConfig, _TRAIN_FROM_ELSEWHERE)
        if num_steps is not None:
            kwargs["num_steps"] = num_steps
        if static_stage is not None:
            kwargs["static_stage"] = static_stage
        return TrainConfig(
            **kwargs,
            seed=self.seed,
            sde=self.sde_config(),
            curriculum=self.curriculum_config(thresholds),
            suite=tuple(self.reward_suite()),
        )

    def write_resolved(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "resolved_config.json"
        with open(path, "w") as fp:
            json.dump(self.resolved, fp, sort_keys=True, indent=2)
            fp.write("\n")
        return path
