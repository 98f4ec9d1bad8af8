"""Supervised training of the observation and hidden-state QBNs.

Each code-book learns to reconstruct its rows *and* to keep the policy's
decision: every minibatch's loss is the reconstruction's mean squared
error plus ``ACTION_WEIGHT`` times the cross-entropy of the action a
head reads from the reconstruction.  This one loop is the repository's
form of Koul et al.'s "insert the QBNs into the policy and retrain"
step (ICLR 2019, arXiv:1811.12530).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, no_grad
from repro.drl.policy import RecurrentPolicyValueNet
from repro.errors import ConfigurationError, TrainingError
from repro.nn import Linear, Module
from repro.optim import Adam, clip_grad_norm
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.utils.rng import SeedLike, new_rng

# The action term's weight.  Scorecard design_small-curriculum, median FSM/default
# makespan over seeds 0-7: 2.262 at 0.3, 1.821 at 1, 1.893 at 3.
ACTION_WEIGHT = 1.0


@dataclass(frozen=True)
class QBNTrainingConfig:
    """Hyper-parameters for QBN training."""

    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 1e-3
    grad_clip_norm: float = 5.0
    observation_latent_dim: int = 16
    hidden_latent_dim: int = 16
    autoencoder_hidden_dim: int = 64
    quantization_levels: int = 3

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_size <= 0:
            raise ConfigurationError("epochs and batch_size must be positive")
        if not (0 < self.learning_rate < np.inf and 0 < self.grad_clip_norm < np.inf):
            raise ConfigurationError("learning_rate and grad_clip_norm must be positive and finite")
        if self.observation_latent_dim <= 0 or self.hidden_latent_dim <= 0:
            raise ConfigurationError("latent dims must be positive")
        if self.autoencoder_hidden_dim <= 0:
            raise ConfigurationError("autoencoder_hidden_dim must be positive")
        if self.quantization_levels < 2:
            raise ConfigurationError("quantization_levels must be at least 2")


@dataclass
class QBNTrainingResult:
    """Trained QBNs plus their loss curves and fidelity statistics."""

    observation_qbn: QuantizedBottleneckNetwork
    hidden_qbn: QuantizedBottleneckNetwork
    observation_losses: List[float]
    hidden_losses: List[float]
    action_agreement: float

    def as_summary(self) -> Dict[str, float]:
        return {
            "observation_final_loss": self.observation_losses[-1],
            "hidden_final_loss": self.hidden_losses[-1],
            "action_agreement": self.action_agreement,
        }


class QBNTrainer:
    """Trains the OX (observation) and HX (hidden state) auto-encoders."""

    def __init__(self, config: Optional[QBNTrainingConfig] = None, rng: SeedLike = None) -> None:
        self.config = config or QBNTrainingConfig()
        self._rng = new_rng(rng)

    def _train_autoencoder(
        self,
        qbn: QuantizedBottleneckNetwork,
        data: np.ndarray,
        head: Module,
        labels: np.ndarray,
    ) -> List[float]:
        """Train ``qbn`` on ``data``; ``head`` reads each row's action from its reconstruction.

        The head's parameters learn beside the QBN's unless they are
        frozen (``requires_grad`` off) when the loop starts.
        """
        if data.ndim != 2 or data.shape[0] == 0:
            raise TrainingError(f"QBN training data must be (N, D), got shape {data.shape}")
        parameters = qbn.parameters() + [p for p in head.parameters() if p.requires_grad]
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        losses: List[float] = []
        indices = np.arange(data.shape[0])
        for _ in range(self.config.epochs):
            self._rng.shuffle(indices)
            epoch_losses: List[float] = []
            for start in range(0, data.shape[0], self.config.batch_size):
                rows = indices[start : start + self.config.batch_size]
                batch = data[rows]
                reconstruction = qbn(Tensor(batch))
                loss = F.mse_loss(reconstruction, batch) + F.cross_entropy(
                    head(reconstruction), labels[rows]
                ) * ACTION_WEIGHT
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(parameters, self.config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def train(
        self, dataset: TransitionDataset, policy: RecurrentPolicyValueNet
    ) -> QBNTrainingResult:
        """Train both QBNs on ``dataset``, each on reconstruction plus ``policy``'s action.

        * The observation book's head is a fresh linear layer that learns
          beside it and is then discarded; its labels are
          ``dataset.actions``, the policy's greedy action at each step.
        * The hidden book's rows are ``hidden_before`` and
          ``hidden_after``; its head is ``policy.policy_head``, frozen,
          and each row's label is the head's action on the original row.
        """
        observation_qbn = QuantizedBottleneckNetwork(
            QBNConfig(
                input_dim=dataset.observation_dim,
                latent_dim=self.config.observation_latent_dim,
                hidden_dim=self.config.autoencoder_hidden_dim,
                quantization_levels=self.config.quantization_levels,
            ),
            rng=self._rng,
        )
        hidden_qbn = QuantizedBottleneckNetwork(
            QBNConfig(
                input_dim=dataset.hidden_dim,
                latent_dim=self.config.hidden_latent_dim,
                hidden_dim=self.config.autoencoder_hidden_dim,
                quantization_levels=self.config.quantization_levels,
            ),
            rng=self._rng,
        )
        observation_head = Linear(
            dataset.observation_dim, policy.config.num_actions, rng=self._rng
        )

        observation_losses = self._train_autoencoder(
            observation_qbn, dataset.observations, observation_head, dataset.actions
        )
        hidden_data = np.concatenate([dataset.hidden_before, dataset.hidden_after])
        with no_grad():
            hidden_labels = policy.policy_head(Tensor(hidden_data)).numpy().argmax(axis=1)
        # Only the QBN learns here: the policy is frozen so the backward
        # pass neither computes nor leaves behind gradients nobody reads.
        with policy.frozen():
            hidden_losses = self._train_autoencoder(
                hidden_qbn, hidden_data, policy.policy_head, hidden_labels
            )
        return QBNTrainingResult(
            observation_qbn=observation_qbn,
            hidden_qbn=hidden_qbn,
            observation_losses=observation_losses,
            hidden_losses=hidden_losses,
            action_agreement=self.action_agreement(observation_qbn, hidden_qbn, policy, dataset),
        )

    # ------------------------------------------------------------------
    # Fidelity diagnostics
    # ------------------------------------------------------------------
    @staticmethod
    def action_agreement(
        observation_qbn: QuantizedBottleneckNetwork,
        hidden_qbn: QuantizedBottleneckNetwork,
        policy: RecurrentPolicyValueNet,
        dataset: TransitionDataset,
    ) -> float:
        """Fraction of dataset steps whose action is unchanged by QBN reconstruction."""
        with no_grad():
            reconstructed_obs = observation_qbn(Tensor(dataset.observations))
            reconstructed_hidden = hidden_qbn(Tensor(dataset.hidden_before))
            next_hidden = policy.gru(reconstructed_obs, reconstructed_hidden)
            logits = policy.policy_head(next_hidden).numpy()
        predicted = logits.argmax(axis=1)
        return float(np.mean(predicted == dataset.actions))

    @staticmethod
    def code_agreement(codes: np.ndarray, actions: np.ndarray) -> float:
        """Share of rows whose action is the majority action of their code.

        ``codes`` is ``(N, latent_dim)`` (a QBN's ``discrete_code``); the
        share is the best any memoryless table keyed on those codes can
        agree with ``actions`` on these rows.
        """
        _, code_ids = np.unique(codes, axis=0, return_inverse=True)
        counts = np.zeros((int(code_ids.max()) + 1, int(actions.max()) + 1), dtype=np.int64)
        np.add.at(counts, (code_ids.reshape(-1), actions), 1)
        return float(counts.max(axis=1).sum() / len(actions))
