"""Run configuration: one declarative file per run.

A config file (YAML or JSON, UTF-8 with or without a byte-order mark)
is deep-merged over the defaults below, then dotted-path overrides are
applied.  Every default is materialized into the resolved config that
gets written next to the run's outputs, so an output directory is
always self-describing and re-runnable.  Each section is built into its
typed object once, at load, while it is validated, and
:class:`RunConfig` keeps what it built; a run reads those objects, so
the thresholds file and the initial checkpoint are read once, at load,
and a bad one exits before the run starts.  ``yaml`` is imported only
to read a non-JSON file or an override, so a run from a JSON file
without overrides never loads it.
"""

from __future__ import annotations

import copy
import json
from dataclasses import fields, replace
from pathlib import Path

from .curriculum import CurriculumConfig
from .errors import ConfigError, DomainError, require_int, require_number
from .flow_policy import (
    DEFAULT_HIDDEN,
    FlowPolicy,
    PolicyDims,
    SdeConfig,
    ToyDataset,
    load_policy,
)
from .grpo import TrainConfig
from .rewards import RewardSuite, RewardTerm, default_suite

MODES = ("pretrain", "calibrate", "train", "eval", "audit")
# the modes that start from policy.init_checkpoint
_POLICY_MODES = ("calibrate", "train", "eval")

# TrainConfig fields that a run config sets from other sections
_TRAIN_FROM_ELSEWHERE = ("seed", "sde", "curriculum", "suite")
# PolicyDims fields that the dataset section sets; the policy section sets the rest
_DATASET_DIMS = ("frames", "frame_dim", "num_classes")
# the keys of each entry of the rewards section
_REWARD_KEYS = ("id", "stage", "kind", "scale")


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
    "dataset": {**_field_defaults(PolicyDims, ("embed_dim",)),
                **_field_defaults(ToyDataset, ("dims",))},
    "policy": {**_field_defaults(PolicyDims, _DATASET_DIMS),
               "hidden": list(DEFAULT_HIDDEN),
               "init_checkpoint": None},
    "pretrain": {
        "steps": 2000,
        "batch_size": 64,
        "learning_rate": 1e-3,
    },
    "sde": _field_defaults(SdeConfig),
    # an alignment term's num_classes comes from dataset.num_classes per run
    "rewards": [{"id": t.id, "kind": t.kind, "stage": t.stage, "scale": t.scale}
                for t in default_suite(num_classes=1).terms],
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


def _input_file_errors(name, path, mode) -> list:
    """Errors for input file setting ``name`` in ``mode``: it must name an
    existing file.  One stat; the run reads the file."""
    if not path:
        return [f"{name}: required for mode {mode!r}"]
    if not isinstance(path, str) or not Path(path).is_file():
        return [f"{name}: no such file: {path!r}"]
    return []


def _read_thresholds(path) -> list:
    """The thresholds in ``curriculum.thresholds_file``, as calibrate mode
    writes them."""
    if not isinstance(path, str):  # open() takes an int as a file descriptor
        raise ConfigError([f"curriculum.thresholds_file: must be a path, got {path!r}"])
    try:
        with open(path, encoding="utf-8-sig") as fp:
            return [float(t) for t in json.load(fp)["thresholds"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError([f"curriculum.thresholds_file: cannot read {path}: {exc!r}"])


def _merged(base, value, here, errors):
    """``value`` given for key ``here``, whose current value is ``base``.
    A mapping is merged into a mapping key by key; where ``base`` is a
    mapping or a list, anything else is an error and ``base`` stays."""
    if isinstance(base, dict):
        if isinstance(value, dict):
            return _deep_merge(base, value, here, errors)
        errors.append(f"{here}: must be a mapping, got {value!r}")
        return base
    if isinstance(base, list) and not isinstance(value, list):
        errors.append(f"{here}: must be a list, got {value!r}")
        return base
    return value


def _deep_merge(base, override, path, errors):
    """Merge override into a copy of base, flagging unknown keys."""
    merged = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            errors.append(f"{here}: unknown key")
            continue
        merged[key] = _merged(base[key], value, here, errors)
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
    node[leaf] = _merged(node[leaf], value, dotted, errors)


def load_config_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: cannot read: {exc}"])
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
    """Validated, fully materialized run configuration.

    Loading builds each section once and keeps it: ``dims`` (a
    :class:`PolicyDims`), ``sde``, ``suite`` and ``train``, the
    :class:`TrainConfig` a train run trains with, holding the seed, the
    sde settings, the curriculum and the suite.  In train mode the
    curriculum's thresholds come from ``curriculum.thresholds_file`` when
    one is set, read at load and only then.  In the modes that start from
    ``policy.init_checkpoint`` (calibrate, train, eval), ``init_policy``
    is the policy read from it at load, checked against ``dims``; it is
    None in the others.
    """

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

        policy_errors = []
        if mode in _POLICY_MODES:
            policy_errors = _input_file_errors("policy.init_checkpoint",
                                               cfg["policy"]["init_checkpoint"], mode)
        built = {}
        if not errors:
            self.dims = PolicyDims(**{field: dataset[field] for field in _DATASET_DIMS},
                                   embed_dim=cfg["policy"]["embed_dim"])
            # constructors carry the numeric range checks; translate their
            # complaints into field-level diagnostics, each section built
            # on its own so that each error is reported once, under it
            builders = [
                ("sde", lambda: SdeConfig(**self._section("sde", SdeConfig))),
                ("curriculum", self._curriculum),
                ("rewards", self._reward_suite),
                ("train", lambda: TrainConfig(**self._section(
                    "train", TrainConfig, _TRAIN_FROM_ELSEWHERE))),
            ]
            if mode == "pretrain":  # the only mode that draws from the dataset
                builders.append(("dataset", self.dataset))
            if mode in _POLICY_MODES and not policy_errors:
                builders.append(("policy", self._init_policy))
            for section, builder in builders:
                try:
                    built[section] = builder()
                except ConfigError as exc:  # already names its field
                    errors.extend(exc.details)
                except (ValueError, TypeError) as exc:
                    errors.append(f"{section}: {exc}")
            stage, terms = cfg["train"]["static_stage"], len(cfg["rewards"])
            if type(stage) is int and not 1 <= stage <= terms:
                # the one check across sections: TrainConfig makes it
                # against its suite; this names the key and the range
                errors.append(f"train.static_stage: must lie in [1, {terms}] for "
                              f"{terms} reward terms, got {stage!r}")

        _check(errors, "train.checkpoint_interval", cfg["train"]["checkpoint_interval"], 0)

        if mode in ("calibrate", "train") and cfg["sde"]["eta"] == 0:
            errors.append(f"sde.eta: must be > 0 for mode {mode!r}; GRPO needs "
                          "the transition densities an eta = 0 rollout does not have")
        errors.extend(policy_errors)
        if mode == "audit":
            errors.extend(_input_file_errors("audit.input", cfg["audit"]["input"], mode))
        if mode == "calibrate":
            errors.extend(self._calibrate_errors())
        _check(errors, "eval.num_groups", cfg["eval"]["num_groups"], 1)
        if cfg["audit"]["k"] is not None:
            _check(errors, "audit.k", cfg["audit"]["k"], 1)
        _check(errors, "audit.max_iters", cfg["audit"]["max_iters"], 1)

        if errors:
            raise ConfigError(errors)
        # every section built without an error, so composing them cannot fail
        self.sde, self.suite = built["sde"], built["rewards"]
        self.init_policy = built.get("policy")
        self.train = replace(built["train"], seed=self.seed, sde=self.sde,
                             curriculum=built["curriculum"], suite=self.suite)

    def _calibrate_errors(self) -> list:
        """Each probe curve is smoothed with a centred window of
        ``train.smooth_window`` steps.  A curve of at most half the window,
        rounded up, is averaged whole at both ends, so its start equals its
        end and no stage can show an improvement."""
        errors = []
        steps, window = self.resolved["calibrate"]["steps"], self.resolved["train"]["smooth_window"]
        _check(errors, "calibrate.steps", steps, 2)
        if not errors and isinstance(window, int) and window >= 1 and steps <= (window + 1) // 2:
            errors.append(
                f"calibrate.steps: must be > (train.smooth_window + 1) // 2 = {(window + 1) // 2}"
                f" for train.smooth_window {window}, got {steps}; a shorter probe curve is "
                "smoothed to its mean at both ends and no stage can improve")
        return errors

    # -- typed accessors and section builders -------------------------------

    @property
    def mode(self) -> str:
        return self.resolved["mode"]

    @property
    def seed(self) -> int:
        return self.resolved["seed"]

    @property
    def outdir(self) -> Path:
        return Path(self.resolved["outdir"])

    def dataset(self) -> ToyDataset:
        d = self.resolved["dataset"]
        return ToyDataset(self.dims, omega=d["omega"], jitter=d["jitter"])

    def _section(self, name: str, cls, skip=()) -> dict:
        """The fields of ``cls`` that section ``name`` sets, by name."""
        section = self.resolved[name]
        return {field: section[field] for field in _field_names(cls, skip)}

    def _curriculum(self) -> CurriculumConfig:
        """The curriculum section, its thresholds read from
        ``thresholds_file`` in train mode when one is set.

        A run that gates on the thresholds needs one per reward term.
        Inline thresholds may outnumber the terms (the defaults carry
        three); a calibrated file must hold exactly one per term, or it
        was calibrated for another suite.
        """
        kwargs = self._section("curriculum", CurriculumConfig)
        path = self.resolved["curriculum"]["thresholds_file"]
        train = self.mode == "train"
        if train and path:
            kwargs["thresholds"] = _read_thresholds(path)
        curriculum = CurriculumConfig(**kwargs)
        if train and self.resolved["train"]["static_stage"] is None:
            count, terms = len(curriculum.thresholds), len(self.resolved["rewards"])
            if path and count != terms:
                raise ConfigError([f"curriculum.thresholds_file: {count} thresholds for "
                                   f"{terms} reward terms; calibrate against this reward suite"])
            if not path and count < terms:
                raise ConfigError([f"curriculum.thresholds: {count} thresholds for {terms} "
                                   "reward terms; give one per term or set train.static_stage"])
        return curriculum

    def _init_policy(self) -> FlowPolicy:
        """The policy in ``policy.init_checkpoint``; a file that is not a
        policy checkpoint, or one of other dims, is a config error."""
        path = self.resolved["policy"]["init_checkpoint"]
        try:
            policy, _ = load_policy(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ConfigError([f"policy.init_checkpoint: cannot read {path}: {exc!r}"])
        if policy.dims != self.dims:
            raise ConfigError([f"policy.init_checkpoint: checkpoint dims {policy.dims} do not "
                               f"match the configured dims {self.dims}"])
        return policy

    def _reward_suite(self) -> RewardSuite:
        """The run's suite; a malformed entry is reported once, under
        ``rewards[i]``."""
        terms = []
        for i, entry in enumerate(self.resolved["rewards"]):
            try:
                terms.append(self._reward_term(entry))
            except (ValueError, TypeError) as exc:
                raise ConfigError([f"rewards[{i}]: {exc}"]) from exc
        return RewardSuite(terms)

    def _reward_term(self, entry) -> RewardTerm:
        holds = "an entry holds exactly id, stage, kind and scale"
        if not isinstance(entry, dict):
            raise DomainError(f"must be a mapping, got {entry!r}; {holds}")
        missing = [key for key in _REWARD_KEYS if key not in entry]
        unknown = sorted(set(entry) - set(_REWARD_KEYS))
        found = [f"{what} keys {keys}" for what, keys in
                 (("missing", missing), ("unknown", unknown)) if keys]
        if found:
            raise DomainError(f"{', '.join(found)}; {holds}")
        kwargs = dict(entry)
        if kwargs["kind"] == "alignment":
            frame_dim = self.resolved["dataset"]["frame_dim"]
            if frame_dim < 2:  # the final frame's angle needs two coordinates
                raise DomainError(f"alignment term {kwargs['id']!r} needs "
                                  f"dataset.frame_dim >= 2, got {frame_dim}")
            kwargs["num_classes"] = self.resolved["dataset"]["num_classes"]
        return RewardTerm(**kwargs)
