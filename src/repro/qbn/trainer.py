"""Supervised training of the observation and hidden-state QBNs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor
from repro.drl.policy import RecurrentPolicyValueNet
from repro.errors import ConfigurationError, TrainingError
from repro.optim import Adam, clip_grad_norm
from repro.qbn.autoencoder import QBNConfig, QuantizedBottleneckNetwork
from repro.qbn.dataset import TransitionDataset
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class QBNTrainingConfig:
    """Hyper-parameters for QBN reconstruction training."""

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
    observation_losses: List[float] = field(default_factory=list)
    hidden_losses: List[float] = field(default_factory=list)
    fine_tune_losses: List[float] = field(default_factory=list)
    action_agreement: Optional[float] = None

    def as_summary(self) -> Dict[str, float]:
        summary = {
            "observation_final_loss": self.observation_losses[-1]
            if self.observation_losses
            else float("nan"),
            "hidden_final_loss": self.hidden_losses[-1] if self.hidden_losses else float("nan"),
        }
        if self.action_agreement is not None:
            summary["action_agreement"] = self.action_agreement
        return summary


class QBNTrainer:
    """Trains the OX (observation) and HX (hidden state) auto-encoders."""

    def __init__(self, config: Optional[QBNTrainingConfig] = None, rng: SeedLike = None) -> None:
        self.config = config or QBNTrainingConfig()
        self._rng = new_rng(rng)

    # ------------------------------------------------------------------
    # Reconstruction training
    # ------------------------------------------------------------------
    def _train_autoencoder(
        self, qbn: QuantizedBottleneckNetwork, data: np.ndarray
    ) -> List[float]:
        if data.ndim != 2 or data.shape[0] == 0:
            raise TrainingError(f"QBN training data must be (N, D), got shape {data.shape}")
        parameters = qbn.parameters()
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        losses: List[float] = []
        indices = np.arange(data.shape[0])
        for _ in range(self.config.epochs):
            self._rng.shuffle(indices)
            epoch_losses: List[float] = []
            for start in range(0, data.shape[0], self.config.batch_size):
                batch = data[indices[start : start + self.config.batch_size]]
                reconstruction = qbn(Tensor(batch))
                loss = F.mse_loss(reconstruction, batch)
                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(parameters, self.config.grad_clip_norm)
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
        return losses

    def train(
        self,
        dataset: TransitionDataset,
        policy: Optional[RecurrentPolicyValueNet] = None,
        fine_tune_epochs: int = 0,
    ) -> QBNTrainingResult:
        """Train both QBNs on ``dataset`` (and optionally fine-tune against the policy).

        ``fine_tune_epochs > 0`` adds the paper's "insert the QBNs and
        retrain" step: the QBNs are further optimised so that the policy,
        when fed the *reconstructed* observation and hidden state,
        reproduces the actions it originally took.
        """
        if fine_tune_epochs < 0:
            raise TrainingError(f"fine_tune_epochs must be non-negative, got {fine_tune_epochs}")
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

        result = QBNTrainingResult(observation_qbn=observation_qbn, hidden_qbn=hidden_qbn)
        result.observation_losses = self._train_autoencoder(
            observation_qbn, dataset.observations
        )
        hidden_data = np.concatenate([dataset.hidden_before, dataset.hidden_after])
        result.hidden_losses = self._train_autoencoder(hidden_qbn, hidden_data)

        if fine_tune_epochs > 0:
            if policy is None:
                raise TrainingError("fine-tuning requires the trained policy")
            result.fine_tune_losses = self._fine_tune(
                observation_qbn, hidden_qbn, policy, dataset, fine_tune_epochs
            )
        if policy is not None:
            result.action_agreement = self.action_agreement(
                observation_qbn, hidden_qbn, policy, dataset
            )
        return result

    # ------------------------------------------------------------------
    # Fine-tuning with the QBNs inserted into the policy
    # ------------------------------------------------------------------
    def _fine_tune(
        self,
        observation_qbn: QuantizedBottleneckNetwork,
        hidden_qbn: QuantizedBottleneckNetwork,
        policy: RecurrentPolicyValueNet,
        dataset: TransitionDataset,
        epochs: int,
    ) -> List[float]:
        parameters = observation_qbn.parameters() + hidden_qbn.parameters()
        optimizer = Adam(parameters, lr=self.config.learning_rate)
        losses: List[float] = []
        indices = np.arange(len(dataset))
        # Only the QBNs learn here: the policy is frozen so the backward
        # pass neither computes nor leaves behind gradients nobody reads.
        with policy.frozen():
            for _ in range(epochs):
                self._rng.shuffle(indices)
                epoch_losses: List[float] = []
                for start in range(0, len(dataset), self.config.batch_size):
                    rows = indices[start : start + self.config.batch_size]
                    observations = dataset.observations[rows]
                    hiddens = dataset.hidden_before[rows]
                    actions = dataset.actions[rows]

                    reconstructed_obs = observation_qbn(Tensor(observations))
                    reconstructed_hidden = hidden_qbn(Tensor(hiddens))
                    next_hidden = policy.gru(reconstructed_obs, reconstructed_hidden)
                    logits = policy.policy_head(next_hidden)
                    loss = F.cross_entropy(logits, actions)

                    optimizer.zero_grad()
                    loss.backward()
                    clip_grad_norm(parameters, self.config.grad_clip_norm)
                    optimizer.step()
                    epoch_losses.append(loss.item())
                losses.append(float(np.mean(epoch_losses)))
        return losses

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
        from repro.autograd.tensor import no_grad

        with no_grad():
            reconstructed_obs = observation_qbn(Tensor(dataset.observations))
            reconstructed_hidden = hidden_qbn(Tensor(dataset.hidden_before))
            next_hidden = policy.gru(reconstructed_obs, reconstructed_hidden)
            logits = policy.policy_head(next_hidden).numpy()
        predicted = logits.argmax(axis=1)
        return float(np.mean(predicted == dataset.actions))
