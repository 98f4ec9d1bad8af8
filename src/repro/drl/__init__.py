"""Recurrent deep-reinforcement-learning components (GRU-based A2C).

Implements the paper's DRL setup (Sections 3.1 and 4.2): a GRU with 128
hidden nodes feeding a 7-way policy head and a scalar value head,
trained with the Advantage Actor-Critic loss, Adam (lr 3e-4), gradient
norm clipping at 2.0 and epsilon-greedy exploration (epsilon = 0.1), plus
the curriculum-learning procedure of Section 3.2.2 (pre-train on
standard traces, fine-tune on scarce real traces).
"""

from repro.drl.policy import (
    BatchedPolicyStepOutput,
    PolicyConfig,
    RecurrentPolicyValueNet,
)
from repro.drl.agent import DRLPolicyAgent
from repro.drl.rollout import (
    BatchedRolloutCollector,
    Trajectory,
    TrajectoryBatch,
)
from repro.drl.a2c import A2CConfig, A2CTrainer, EpochRecord, TrainingHistory
from repro.drl.curriculum import CurriculumConfig, CurriculumTrainer
from repro.drl.checkpoints import save_policy, load_policy

__all__ = [
    "PolicyConfig",
    "RecurrentPolicyValueNet",
    "BatchedPolicyStepOutput",
    "DRLPolicyAgent",
    "Trajectory",
    "TrajectoryBatch",
    "BatchedRolloutCollector",
    "A2CConfig",
    "A2CTrainer",
    "EpochRecord",
    "TrainingHistory",
    "CurriculumConfig",
    "CurriculumTrainer",
    "save_policy",
    "load_policy",
]
