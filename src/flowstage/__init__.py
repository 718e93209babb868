"""flowstage: group-relative policy optimization of a toy flow-matching
generator under a staged, competence-gated reward curriculum, plus a
reward-bias auditing toolkit."""

from .bias_audit import ClusterReport, ScoredItem, audit, cluster_kappa, kmeans
from .curriculum import (
    CurriculumConfig,
    CurriculumState,
    calibrate_thresholds,
    curriculum_step,
    group_means,
    hoyer,
    mixed_reward,
    normalize_advantages,
    stage_weights,
    transition,
)
from .errors import ConfigError, DomainError, RolloutError, ShapeError
from .flow_policy import (
    FlowPolicy,
    PolicyDims,
    Rollout,
    SdeConfig,
    ToyDataset,
    ToySample,
    Trajectory,
    init_flow_policy,
    load_policy,
    log_prob_under,
    ode_sample,
    pretrain_flow_matching,
    save_policy,
    score_from_velocity,
    sde_sample,
    velocity,
)
from .grpo import (
    TrainConfig,
    TrainLog,
    smooth_curve,
    surrogate_objective,
    train,
    train_step,
)
from .kernels import BACKEND
from .numerics import (
    AdamState,
    MlpParams,
    RandomSource,
    adam_init,
    init_mlp,
    mlp_backward,
    mlp_forward,
)
from .rewards import RewardMatrix, RewardTerm, default_suite, eval_group, eval_reward_term

__version__ = "0.1.0"
