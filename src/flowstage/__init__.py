"""flowstage: group-relative policy optimization of a toy flow-matching
generator under a staged, competence-gated reward curriculum, plus a
reward-bias auditing toolkit.

The names below are what a caller needs to do what each CLI mode does,
with samples, rollouts and scored items held as arrays, and a run's
records as the dicts the CLI writes: :func:`train` yields each step's
``trainlog.jsonl`` line and :func:`audit` returns ``audit_report.json``.
Everything else is reached through its module."""

from .bias_audit import audit, read_items_csv
from .curriculum import CurriculumConfig, CurriculumState, calibrate_thresholds, curriculum_step
from .errors import ConfigError, DomainError, RolloutError, ShapeError
from .flow_policy import (
    FlowPolicy,
    PolicyDims,
    Rollout,
    SdeConfig,
    ToyDataset,
    init_flow_policy,
    load_policy,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
)
from .grpo import TrainConfig, train, train_step
from .numerics import RandomSource
from .rewards import RewardMatrix, RewardSuite, RewardTerm, default_suite, eval_group

__version__ = "0.1.0"
