"""Battery home-energy controllers: DQN teachers distilled into crisp decision trees."""

__version__ = "0.1.0"

from .dataio import DayProfile, NormalizationStats, RunConfig, load_config, load_profiles
from .ddt import CrispTree, TreeParams, crisp_predict, crispify, export_rules
from .distill import DistillationDataset, build_dataset, train_students
from .envsim import BatteryParams, HomeEnv, StepOutcome, TariffParams
from .evalkit import (
    EpisodeReport,
    Rollout,
    compare_policies,
    dp_optimal_cost,
    policy_heatmap,
    rollout,
    run_episode,
)
from .teacher import ReplayBuffer, TeacherAgent, train_teacher

__all__ = [
    "BatteryParams", "CrispTree", "DayProfile", "DistillationDataset", "EpisodeReport",
    "HomeEnv", "NormalizationStats", "ReplayBuffer", "Rollout", "RunConfig", "StepOutcome",
    "TariffParams", "TeacherAgent", "TreeParams", "build_dataset", "compare_policies",
    "crisp_predict", "crispify", "dp_optimal_cost", "export_rules", "load_config",
    "load_profiles", "policy_heatmap", "rollout", "run_episode", "train_students",
    "train_teacher",
]
