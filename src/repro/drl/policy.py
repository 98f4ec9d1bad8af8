"""The recurrent actor–critic network.

Architecture (paper Section 4.2): a GRU whose hidden state is fed to two
linear heads — one producing the 7 action logits, one producing the
scalar state-value estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Tuple, Union

import numpy as np

from repro.autograd.functional import log_softmax_np, matmul_rows_np
from repro.autograd.tensor import Tensor
from repro.env.observation import OBSERVATION_DIM
from repro.errors import ConfigurationError, ShapeError
from repro.nn import GRUCell, Linear, Module
from repro.nn.linear import accumulate_steps, input_grad_steps, matmul_steps
from repro.nn.rnn import Unrolled
from repro.storage.migration import NUM_ACTIONS
from repro.utils.rng import SeedLike, new_rng


@dataclass(frozen=True)
class PolicyConfig:
    """Hyper-parameters of the recurrent policy/value network."""

    observation_dim: int = OBSERVATION_DIM
    hidden_size: int = 128
    num_actions: int = NUM_ACTIONS
    # Not a field: the one inference implementation, named because the
    # frozen ledger stamps ``PolicyConfig().kernel`` into its environment
    # block (benchmarks/ledger/run.py, ``stamp()``).  Goes with that stamp.
    kernel: ClassVar[str] = "numpy"

    def __post_init__(self) -> None:
        if self.observation_dim <= 0:
            raise ConfigurationError("observation_dim must be positive")
        if self.hidden_size <= 0:
            raise ConfigurationError("hidden_size must be positive")
        if self.num_actions <= 1:
            raise ConfigurationError("num_actions must be at least 2")


@dataclass(frozen=True)
class BatchedPolicyStepOutput:
    """Result of one lockstep policy step over a batch of B environments.

    Row ``i`` is bit-identical to the same row stepped alone (B = 1)
    on the same Philox lane.
    """

    actions: np.ndarray         # (B,) int
    log_probs: np.ndarray       # (B, num_actions)
    probabilities: np.ndarray   # (B, num_actions)
    values: np.ndarray          # (B,)
    hidden_states: np.ndarray   # (B, hidden_size)


class RecurrentPolicyValueNet(Module):
    """GRU backbone with a policy head and a value head."""

    def __init__(self, config: Optional[PolicyConfig] = None, rng: SeedLike = None) -> None:
        super().__init__()
        self.config = config or PolicyConfig()
        rng = new_rng(rng)
        self.gru = GRUCell(self.config.observation_dim, self.config.hidden_size, rng=rng)
        self.policy_head = Linear(self.config.hidden_size, self.config.num_actions, rng=rng)
        self.value_head = Linear(self.config.hidden_size, 1, rng=rng)

    # ------------------------------------------------------------------
    # Differentiable interface (used by the A2C trainer)
    # ------------------------------------------------------------------
    def initial_state(self, batch_size: Optional[int] = None) -> Tensor:
        return self.gru.initial_state(batch_size)

    def step(self, observation: Tensor, hidden: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
        """One recurrent step: returns (logits, value, next_hidden) as tensors."""
        if not isinstance(observation, Tensor):
            observation = Tensor(observation)
        next_hidden = self.gru(observation, hidden)
        logits = self.policy_head(next_hidden)
        value = self.value_head(next_hidden)
        return logits, value, next_hidden

    def unroll(
        self, observations: np.ndarray, values: bool = False
    ) -> Union[Tensor, Tuple[Tensor, Tensor]]:
        """Run the network over whole sequences from a zero state as one node.

        ``observations`` is a ``(T, D)`` demonstration or a ``(T, B, D)``
        padded batch.  Returns the per-step logits ``(T, [B,] A)`` and,
        with ``values``, the per-step values ``(T, [B])``: the bits of
        ``T`` chained :meth:`step` calls.  The backward forms each head's
        gradients as one sum over every step
        (:func:`~repro.nn.linear.accumulate_steps`), then runs the GRU
        steps ``T .. 1`` (:class:`~repro.nn.rnn.Unrolled`); parameter
        gradients are within rounding of that chain's.  Without ``values``
        the value head is left out of the node and its gradients untouched.
        """
        observations = np.asarray(observations, dtype=np.float64)
        run = Unrolled(
            self.gru, observations, np.zeros(observations.shape[1:-1] + (self.config.hidden_size,))
        )
        hidden = run.hiddens[1:]
        heads = (self.policy_head, self.value_head) if values else (self.policy_head,)
        data = np.concatenate(
            [matmul_steps(hidden, head.weight.data) + head.bias.data for head in heads], axis=-1
        )

        def backward(grad: np.ndarray) -> None:
            hidden_grad, start = None, 0
            for head in heads:
                head_grad = np.ascontiguousarray(grad[..., start : start + head.out_features])
                start += head.out_features
                accumulate_steps(head.bias, head_grad)
                accumulate_steps(head.weight, head_grad, hidden)
                step_grads = input_grad_steps(head_grad, head.weight.data)
                hidden_grad = step_grads if hidden_grad is None else hidden_grad + step_grads
            run.backward(hidden_grad)

        parents = tuple(param for module in (self.gru, *heads) for param in module.parameters())
        out = Tensor._make(data, parents, backward)
        if not values:
            return out
        actions = self.config.num_actions
        return out[..., :actions], out[..., actions]

    # ------------------------------------------------------------------
    # Inference interface (used by rollouts, evaluation and QBN datasets)
    # ------------------------------------------------------------------
    def forward_np(
        self, observations: np.ndarray, hiddens: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched inference forward pass on plain arrays (no autograd graph).

        ``observations`` is (B, obs_dim) and ``hiddens`` is (B, hidden);
        returns ``(logits (B, A), values (B,), next_hiddens (B, H))``.
        Every matmul goes through the batch-size-stable kernel, so each
        row is independent of how many environments share the batch.
        """
        observations = np.asarray(observations, dtype=np.float64)
        hiddens = np.asarray(hiddens, dtype=np.float64)
        if observations.ndim != 2 or observations.shape[1] != self.config.observation_dim:
            raise ShapeError(
                f"forward_np expects (B, {self.config.observation_dim}) observations, "
                f"got shape {observations.shape}"
            )
        if hiddens.shape != (observations.shape[0], self.config.hidden_size):
            raise ShapeError(
                f"forward_np expects ({observations.shape[0]}, {self.config.hidden_size}) "
                f"hiddens, got shape {hiddens.shape}"
            )
        next_hiddens = self.gru.forward_np(observations, hiddens)
        logits = matmul_rows_np(next_hiddens, self.policy_head.weight.data) + self.policy_head.bias.data
        values = (
            np.einsum("ij,jk->ik", next_hiddens, self.value_head.weight.data)
            + self.value_head.bias.data
        )[:, 0]
        return logits, values, next_hiddens

    def act_batch(
        self,
        observations: np.ndarray,
        hiddens: np.ndarray,
        uniforms: Optional[Callable[[], np.ndarray]] = None,
        epsilon: float = 0.0,
        greedy: bool = True,
    ) -> BatchedPolicyStepOutput:
        """One lockstep inference step for B environments (one GRU matmul batch).

        ``uniforms()`` returns one uniform in [0, 1) per row, a
        ``PhiloxStreams.uniforms`` over one lane per row.  A step calls it
        once to sample unless ``greedy``, then, with ``epsilon > 0``,
        twice more: an exploration draw and a uniformly random replacement
        action (the paper's epsilon-greedy exploration).  Every draw is an
        inverse-CDF draw and a lane's values depend on its own cursor
        only, so row ``i`` of a B-row call equals that row at B = 1 on the
        same lane.  Greedy steps with ``epsilon == 0`` draw nothing and
        may omit ``uniforms``.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ConfigurationError(f"epsilon must be in [0, 1], got {epsilon}")
        if uniforms is None and (not greedy or epsilon > 0.0):
            raise ConfigurationError("act_batch needs one uniform per row to sample or explore")
        logits, values, next_hiddens = self.forward_np(observations, hiddens)
        batch = logits.shape[0]

        def draw() -> np.ndarray:
            rows = uniforms()
            if rows.shape != (batch,):
                raise ConfigurationError(
                    f"act_batch got {rows.shape[0]} uniforms for a batch of {batch}"
                )
            return rows

        log_probs = log_softmax_np(logits, axis=-1)
        probs = np.exp(log_probs)
        probs /= probs.sum(axis=-1, keepdims=True)
        num_actions = self.config.num_actions
        if greedy:
            actions = np.argmax(probs, axis=1)
        else:
            # Each row's uniform inverted through the row's CDF (a row of
            # the axis-1 cumsum is the cumsum of the row): the count of
            # cdf entries <= draw is searchsorted(side="right").
            cdfs = np.cumsum(probs, axis=-1)
            draws = draw() * cdfs[:, -1]
            actions = np.minimum((cdfs <= draws[:, None]).sum(axis=1), num_actions - 1)
        if epsilon > 0.0:
            explore = draw() < epsilon
            replacement = np.minimum((draw() * num_actions).astype(np.int64), num_actions - 1)
            actions = np.where(explore, replacement, actions)
        return BatchedPolicyStepOutput(
            actions=actions,
            log_probs=log_probs,
            probabilities=probs,
            values=values,
            hidden_states=next_hiddens,
        )

    def initial_hidden_np(self, batch_size: int) -> np.ndarray:
        """Fresh all-zero hidden rows for ``batch_size`` sessions.

        The plain-array counterpart of :meth:`initial_state` used by the
        serving layer, whose session tables hold hidden state as numpy
        rows rather than tensors.
        """
        return np.zeros((batch_size, self.config.hidden_size))

    def hidden_dim(self) -> int:
        return self.config.hidden_size
