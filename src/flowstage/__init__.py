"""flowstage: group-relative policy optimization of a toy flow-matching
generator under a staged, competence-gated reward curriculum, plus a
reward-bias auditing toolkit.

The names below are what a caller needs to do what each CLI mode
does; everything else is reached through its module."""

from .bias_audit import (
    ClusterReport,
    ScoredItem,
    audit,
    cluster_kappa,
    kmeans,
    read_items_csv,
)
from .curriculum import CurriculumConfig, CurriculumState, calibrate_thresholds, curriculum_step
from .errors import ConfigError, DomainError, RolloutError, ShapeError
from .flow_policy import (
    FlowPolicy,
    PolicyDims,
    Rollout,
    SdeConfig,
    ToyDataset,
    ToySample,
    decode_state,
    init_flow_policy,
    load_policy,
    log_prob_under,
    ode_sample,
    pretrain_flow_matching,
    save_policy,
    sde_sample,
    velocity,
)
from .grpo import TrainConfig, TrainLog, train, train_step
from .numerics import RandomSource
from .rewards import RewardMatrix, RewardTerm, default_suite, eval_group, eval_reward_term

__version__ = "0.1.0"
