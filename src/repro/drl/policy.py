"""The recurrent actor–critic network.

Architecture (paper Section 4.2): a GRU whose hidden state is fed to two
linear heads — one producing the 7 action logits, one producing the
scalar state-value estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import functional as F
from repro.autograd.functional import log_softmax_np, matmul_rows_np
from repro.autograd.tensor import Tensor, no_grad
from repro.env.observation import OBSERVATION_DIM
from repro.errors import ConfigurationError, ShapeError
from repro.nn import GRUCell, Linear, Module
from repro.nn.linear import accumulate_steps, input_grad, matmul_steps
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
class PolicyStepOutput:
    """Result of a single policy step (inference mode, numpy values)."""

    action: int
    log_probs: np.ndarray
    probabilities: np.ndarray
    value: float
    hidden_state: np.ndarray


class GeneratorList(list):
    """A list of ``np.random.Generator`` the caller vouches for.

    :meth:`RecurrentPolicyValueNet.act_batch` skips its per-row seed
    coercion for this type — the hot rollout loop re-validates the same
    generators every interval otherwise.
    """


@dataclass(frozen=True)
class BatchedPolicyStepOutput:
    """Result of one lockstep policy step over a batch of B environments.

    Row ``i`` is bit-identical to what :meth:`RecurrentPolicyValueNet.act`
    would have produced for environment ``i`` alone (given the same
    per-environment rng stream); finished environments keep their rows
    computed but consume no randomness.
    """

    actions: np.ndarray         # (B,) int
    log_probs: np.ndarray       # (B, num_actions)
    probabilities: np.ndarray   # (B, num_actions)
    values: np.ndarray          # (B,)
    hidden_states: np.ndarray   # (B, hidden_size)

    @property
    def batch_size(self) -> int:
        return int(self.actions.shape[0])


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
        ``T`` chained :meth:`step` calls, outputs and every gradient.  The
        backward runs the heads' backward for steps ``1 .. T``, then the
        GRU steps ``T .. 1`` (:class:`~repro.nn.rnn.Unrolled`), the order
        that chain's graph applies them in.  Without ``values`` the value
        head is left out of the node and its gradients untouched.
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
                weight = head.weight.data
                step_grads = np.stack([input_grad(g, weight) for g in head_grad])
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

    def act(
        self,
        observation: np.ndarray,
        hidden: np.ndarray,
        rng: SeedLike = None,
        epsilon: float = 0.0,
        greedy: bool = True,
    ) -> PolicyStepOutput:
        """Run one step without building the autograd graph and pick an action.

        ``epsilon`` is the probability of replacing the chosen action with
        a uniformly random one (the paper's epsilon-greedy exploration).
        When ``greedy`` is False the action is sampled from the policy
        distribution instead of taking its argmax.
        """
        rng = new_rng(rng)
        with no_grad():
            logits, value, next_hidden = self.step(Tensor(observation), Tensor(hidden))
            log_probs = F.log_softmax(logits, axis=-1)
        log_probs_np = log_probs.numpy()
        probs = np.exp(log_probs_np)
        probs = probs / probs.sum()
        action = self._pick_action(probs, rng, epsilon, greedy)
        return PolicyStepOutput(
            action=action,
            log_probs=log_probs_np,
            probabilities=probs,
            value=float(value.numpy().reshape(-1)[0]),
            hidden_state=next_hidden.numpy(),
        )

    def act_batch(
        self,
        observations: np.ndarray,
        hiddens: np.ndarray,
        rngs: Union[SeedLike, Sequence[SeedLike], None] = None,
        epsilon: float = 0.0,
        greedy: bool = True,
        active: Optional[np.ndarray] = None,
    ) -> BatchedPolicyStepOutput:
        """One lockstep inference step for B environments (one GRU matmul batch).

        ``rngs`` may be a single seed/generator (consumed row by row in
        index order) or one generator per environment; per-environment
        generators are what makes a batched rollout reproduce the
        sequential per-trace rng streams exactly.  Rows where ``active``
        is False consume no randomness, report the no-op action 0, keep
        their input hidden state, and are skipped by the forward pass —
        their log-prob/probability/value rows read zero.  (Row-wise
        batch-size stability of the inference kernels is what makes the
        active-subset forward bit-identical to a full-batch one.)
        """
        observations = np.asarray(observations, dtype=np.float64)
        hiddens = np.asarray(hiddens, dtype=np.float64)
        batch = observations.shape[0]
        if isinstance(rngs, (list, tuple)):
            if len(rngs) != batch:
                raise ConfigurationError(
                    f"act_batch got {len(rngs)} rngs for a batch of {batch}"
                )
            if type(rngs) is GeneratorList:
                row_rngs = rngs
            else:
                row_rngs = [
                    r if isinstance(r, np.random.Generator) else new_rng(r)
                    for r in rngs
                ]
        else:
            shared = new_rng(rngs)
            row_rngs = [shared] * batch

        if active is None:
            all_active = True
        else:
            active = np.asarray(active, dtype=bool)
            all_active = bool(active.all())
        if all_active:
            active_rows = None
            sub_observations, sub_hiddens = observations, hiddens
            sub_rngs = row_rngs
        else:
            active_rows = np.nonzero(active)[0]
            sub_observations = observations[active_rows]
            sub_hiddens = hiddens[active_rows]
            sub_rngs = [row_rngs[i] for i in active_rows.tolist()]

        if sub_observations.shape[0] == 0:
            zeros = np.zeros((batch, self.config.num_actions))
            return BatchedPolicyStepOutput(
                actions=np.zeros(batch, dtype=int),
                log_probs=zeros,
                probabilities=zeros.copy(),
                values=np.zeros(batch),
                hidden_states=np.array(hiddens),
            )

        sub_logits, sub_values, sub_next = self.forward_np(sub_observations, sub_hiddens)
        sub_log_probs = log_softmax_np(sub_logits, axis=-1)
        sub_probs = np.exp(sub_log_probs)
        sub_probs /= sub_probs.sum(axis=-1, keepdims=True)
        # One batched cumulative sum serves every row's inverse-CDF draw
        # (a row of the axis-1 cumsum is identical to cumsum of the row).
        cdfs = None if greedy else np.cumsum(sub_probs, axis=-1)
        shared_stream = not isinstance(rngs, (list, tuple))
        if epsilon > 0.0 and not shared_stream:
            # A list may alias one generator across rows; batched draw
            # ordering would then diverge from the scalar row-by-row
            # consumption, so aliased lists take the scalar loop too.
            shared_stream = len({id(r) for r in sub_rngs}) != len(sub_rngs)
        if epsilon > 0.0 and shared_stream:
            # A single generator serving every row is consumed strictly
            # row by row (sample draw, epsilon draw, optional replacement
            # draw per row, then the next row) — the batched draw order
            # below would interleave it differently, so this path keeps
            # the scalar loop.
            sub_actions = np.zeros(len(sub_rngs), dtype=int)
            for k, rng in enumerate(sub_rngs):
                sub_actions[k] = self._pick_action(
                    sub_probs[k], rng, epsilon, greedy,
                    cdf=None if cdfs is None else cdfs[k],
                )
        elif greedy:
            # Row-wise argmax matches the per-row pick and no randomness
            # is consumed, so the whole batch resolves in one call.
            sub_actions = np.argmax(sub_probs, axis=1)
        else:
            # One uniform draw per active row (same order, same stream as
            # the scalar path), inverted through the batched CDFs: the
            # count of cdf entries <= draw equals searchsorted(side="right").
            draws = np.empty(len(sub_rngs))
            for k, rng in enumerate(sub_rngs):
                draws[k] = rng.random()
            draws *= cdfs[:, -1]
            picked = (cdfs <= draws[:, None]).sum(axis=1)
            sub_actions = np.minimum(picked, self.config.num_actions - 1)
        if epsilon > 0.0 and not shared_stream:
            # Epsilon-greedy replacement, batched: each row's generator
            # draws its epsilon uniform after its (optional) sampling
            # draw — the same per-stream order as the scalar
            # ``_pick_action``, since the streams are independent — and
            # only rows whose draw fires consume the ``integers`` variate.
            sub_actions = np.asarray(sub_actions, dtype=int)
            explore_draws = np.empty(len(sub_rngs))
            for k, rng in enumerate(sub_rngs):
                explore_draws[k] = rng.random()
            for k in np.nonzero(explore_draws < epsilon)[0].tolist():
                sub_actions[k] = int(sub_rngs[k].integers(self.config.num_actions))

        if all_active:
            actions = np.asarray(sub_actions, dtype=int)
            log_probs, probs, values, next_hiddens = (
                sub_log_probs, sub_probs, sub_values, sub_next,
            )
        else:
            actions = np.zeros(batch, dtype=int)
            actions[active_rows] = sub_actions
            log_probs = np.zeros((batch, self.config.num_actions))
            probs = np.zeros((batch, self.config.num_actions))
            values = np.zeros(batch)
            next_hiddens = np.array(hiddens)
            log_probs[active_rows] = sub_log_probs
            probs[active_rows] = sub_probs
            values[active_rows] = sub_values
            next_hiddens[active_rows] = sub_next
        return BatchedPolicyStepOutput(
            actions=actions,
            log_probs=log_probs,
            probabilities=probs,
            values=values,
            hidden_states=next_hiddens,
        )

    def _pick_action(
        self,
        probs: np.ndarray,
        rng: np.random.Generator,
        epsilon: float,
        greedy: bool,
        cdf: Optional[np.ndarray] = None,
    ) -> int:
        """Shared action selection so batched and scalar paths draw identically.

        Sampling uses a single uniform draw inverted through the CDF
        (cheaper than ``rng.choice`` on the hot path, and consuming
        exactly one draw per decision keeps per-environment rng streams
        easy to reason about).
        """
        if greedy:
            action = int(np.argmax(probs))
        else:
            cdf = np.cumsum(probs) if cdf is None else cdf
            draw = rng.random() * cdf[-1]
            action = min(int(np.searchsorted(cdf, draw, side="right")), self.config.num_actions - 1)
        if epsilon > 0.0 and rng.random() < epsilon:
            action = int(rng.integers(self.config.num_actions))
        return action

    def initial_hidden_np(self, batch_size: int) -> np.ndarray:
        """Fresh all-zero hidden rows for ``batch_size`` sessions.

        The plain-array counterpart of :meth:`initial_state` used by the
        serving layer, whose session tables hold hidden state as numpy
        rows rather than tensors.
        """
        return np.zeros((batch_size, self.config.hidden_size))

    def hidden_dim(self) -> int:
        return self.config.hidden_size
