"""The compiled-FSM decision fast path.

An extracted :class:`~repro.fsm.machine.FiniteStateMachine` is a
dict-of-tuples structure built for inspection, not throughput: every
decision hashes two tuple keys and walks Python objects.
:class:`CompiledFSMPolicy` flattens the machine and its observation
quantisation into dense numpy tables once, after which serving a
decision is

1. one exact deduplication of the batch's *raw* rows (nodes in the same
   state submit byte-identical rows), then one normalisation and one
   batched QBN-encoder pass over the distinct rows only, turning them
   into discrete codes (two small matmuls through the batch-size-stable
   kernel),
2. one hash lookup per row mapping the code to an observation column;
   rows with an unseen code share one nearest-prototype resolution — a
   single gemm whose clear winners are certified against the reference
   distance computation, which re-runs for the near-ties — and
3. one integer gather ``next = T[state, obs]`` + ``action = A[next]``.

Decisions are bit-identical to stepping the interpreted
:class:`~repro.fsm.agent.FSMPolicyAgent` per session: normalisation is
elementwise, so a distinct raw row normalises to the bytes its
repetitions would, the encoder pass uses the same row-stable matmul
kernel the agent's scalar path resolves to, unseen observations resolve
through the same
:func:`~repro.fsm.generalize.nearest_prototype_rows` helper over the
same prototype ordering (its answer is an index that equals the
reference's for every row, so neither BLAS nor the batch size shows),
and the gather reads a table filled cell by cell from the machine's
transitions, which extraction made total over the prototype codes.

The compiled artifact is self-contained (tables + encoder weights +
normalisation constants) and roundtrips through ``save``/``load`` so a
serving process never needs the training stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.autograd.functional import matmul_rows_np
from repro.env.observation import ObservationEncoder
from repro.errors import ConfigurationError, ExtractionError, SerializationError
from repro.fsm.generalize import nearest_prototype_rows
from repro.fsm.machine import FiniteStateMachine
from repro.qbn.autoencoder import QuantizedBottleneckNetwork
from repro.qbn.quantize import nearest_level_indices
from repro.storage.migration import NUM_ACTIONS
from repro.utils.serialization import PathLike, load_npz, save_npz

ARTIFACT_FORMAT_VERSION = 2

# Packed-key observation lookup is only sound while base-k positional
# packing of a whole code fits an int64 (it is injective there).
_PACK_LIMIT = 2 ** 62

# Odd multiplier of the row hash (column j weighted by its (j+1)-th power,
# mod 2^64); the hash only orders a batch's rows for deduplication.
_ROW_HASH_MULTIPLIER = 0x9E3779B97F4A7C15


def _distinct_rows(rows: np.ndarray, weights: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """One representative per distinct row of a C-contiguous float64 batch.

    Returns ``(first, inverse)`` with ``rows[first][inverse]`` equal to
    ``rows`` byte for byte.  Rows are sorted by the multiply-sum of their
    bit patterns with the uint64 ``weights``, and a group is a run of
    neighbours in that order whose bytes are all equal: a hash collision
    can split a group but never merge two different rows (``0.0`` and
    ``-0.0``, or two NaN payloads, stay apart), and the rows of a group
    are the same bytes.
    """
    count, width = rows.shape
    bits = rows.view(np.uint64)
    order = np.argsort(np.einsum("ij,j->i", bits, weights))
    # Gather whole rows as single void items (one copy per row, not per
    # element), then compare them as uint64 columns again.
    ordered = (
        rows.view(np.dtype((np.void, 8 * width)))[:, 0][order]
        .view(np.uint64)
        .reshape(count, width)
    )
    differs = (ordered[1:] != ordered[:-1]).view(np.uint8)
    starts = np.empty(count, dtype=bool)
    starts[:1] = True
    # A bool is the byte 0 or 1, so a row's byte sum counts its differing
    # columns; a uint8 sum is exact (and twice as fast as a wider one)
    # while ``width`` cannot reach 256.
    accumulator = np.uint8 if width < 256 else np.uint32
    np.greater(np.einsum("ij->i", differs, dtype=accumulator), 0, out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.add.accumulate(starts, dtype=np.intp) - 1
    return order[starts], inverse


def _quantize_tanh(pre_activation: np.ndarray, k: int) -> np.ndarray:
    """Reference latent quantisation: codes of ``clip(tanh(z), -1, 1)``.

    Exactly the computation ``QuantizedBottleneckNetwork.discrete_code``
    performs on the latent pre-activation (tanh is already in (-1, 1), so
    the clip only pins rounding at the open boundaries).
    """
    return nearest_level_indices(np.clip(np.tanh(pre_activation), -1.0, 1.0), k)


def _tanh_code_thresholds(k: int) -> Optional[np.ndarray]:
    """Pre-activation thresholds that reproduce :func:`_quantize_tanh` exactly.

    The code of ``tanh(z)`` is a monotone step function of ``z`` (tanh is
    monotone, and the rounded level-distance comparisons are monotone in
    the computed tanh value), so each code boundary is one float64
    threshold: ``code(z) = sum_j (z >= threshold_j)``.  The thresholds
    are found by float bisection against the reference computation, then
    verified on a dense sample plus the exact neighbourhoods of every
    threshold; if the host's tanh breaks the monotonicity assumption the
    verification fails and the caller keeps the reference path.
    """

    def reference_code(z: float) -> int:
        return int(_quantize_tanh(np.array([z]), k)[0])

    thresholds = []
    for target in range(1, k):
        lo, hi = -40.0, 40.0
        if reference_code(lo) >= target or reference_code(hi) < target:
            return None
        while True:
            mid = (lo + hi) * 0.5
            if mid == lo or mid == hi:
                break
            if reference_code(mid) >= target:
                hi = mid
            else:
                lo = mid
        thresholds.append(hi)
    result = np.array(thresholds)

    # Verification: dense sweep + both float neighbours of each threshold.
    probes = [np.linspace(-6.0, 6.0, 4001)]
    for threshold in thresholds:
        probes.append(
            np.array(
                [
                    np.nextafter(threshold, -np.inf),
                    threshold,
                    np.nextafter(threshold, np.inf),
                ]
            )
        )
    sample = np.concatenate(probes)
    fast = (sample[:, None] >= result[None, :]).sum(axis=1)
    if not np.array_equal(fast, _quantize_tanh(sample, k)):
        return None
    return result


@dataclass(frozen=True)
class CompiledDecision:
    """One batched decision: actions taken and the successor state rows."""

    actions: np.ndarray       # (B,) int64 migration-action indices
    next_states: np.ndarray   # (B,) int64 compiled state rows
    fallback_mask: np.ndarray  # (B,) bool — rows resolved via nearest prototype


class CompiledFSMPolicy:
    """Dense-table executable form of an extracted FSM + observation QBN.

    State rows follow the machine's ``states`` insertion order and
    observation columns its prototype codes in their insertion order,
    which the interpreted agent resolves fallbacks over too — the
    orderings every tie-break in the interpreted path derives from.
    """

    def __init__(
        self,
        transition_table: np.ndarray,
        action_table: np.ndarray,
        state_codes: np.ndarray,
        state_visits: np.ndarray,
        obs_codes: np.ndarray,
        prototype_matrix: np.ndarray,
        start_state: int,
        encoder_weights: Dict[str, np.ndarray],
        quantization_levels: int,
        encoder_constants: Optional[np.ndarray] = None,
    ) -> None:
        self.transition_table = np.ascontiguousarray(transition_table, dtype=np.int64)
        self.action_table = np.ascontiguousarray(action_table, dtype=np.int64)
        self.state_codes = np.ascontiguousarray(state_codes, dtype=np.int64)
        self.state_visits = np.ascontiguousarray(state_visits, dtype=np.int64)
        self.obs_codes = np.ascontiguousarray(obs_codes, dtype=np.int64)
        self.prototype_matrix = np.ascontiguousarray(prototype_matrix, dtype=float)
        self.start_state = int(start_state)
        self.quantization_levels = int(quantization_levels)
        self._w1 = np.ascontiguousarray(encoder_weights["w1"], dtype=float)
        self._b1 = np.ascontiguousarray(encoder_weights["b1"], dtype=float)
        self._w2 = np.ascontiguousarray(encoder_weights["w2"], dtype=float)
        self._b2 = np.ascontiguousarray(encoder_weights["b2"], dtype=float)
        self.encoder_constants = (
            None if encoder_constants is None else np.asarray(encoder_constants, dtype=float)
        )
        if self.transition_table.shape != (self.num_states, self.num_observations):
            raise ConfigurationError(
                f"transition table shape {self.transition_table.shape} does not match "
                f"{self.num_states} states x {self.num_observations} observations"
            )
        # Observation-code lookup.  Fast path: pack each code row into one
        # int64 (base-k positional encoding — injective while k^L fits)
        # and binary-search a sorted key table, fully vectorized.  Codes
        # too wide to pack fall back to a per-row bytes-keyed dict.
        latent = self.obs_codes.shape[1]
        if self.quantization_levels ** latent < _PACK_LIMIT:
            self._pack_vector = np.array(
                [self.quantization_levels ** i for i in range(latent)], dtype=np.int64
            )
            packed = self.obs_codes @ self._pack_vector
            order = np.argsort(packed, kind="stable")
            self._sorted_keys = packed[order]
            self._sorted_columns = order.astype(np.int64)
            self._code_to_column = None
        else:
            self._pack_vector = None
            self._code_to_column = {
                self.obs_codes[i].tobytes(): i for i in range(self.obs_codes.shape[0])
            }
        self.fallback_count = 0
        self.decision_count = 0
        # Encoder buffers (hidden, pre-latent, codes, flags): grow-only, used
        # through ``[:n]`` row prefixes, so a row count that changes every
        # call reallocates only when it exceeds the largest seen so far.
        self._workspace: "list[np.ndarray]" = []
        self._row_hash_weights = np.cumprod(
            np.full(self.observation_dim, _ROW_HASH_MULTIPLIER, dtype=np.uint64)
        )
        # Pre-activation quantisation thresholds (None -> reference path).
        self._latent_thresholds = _tanh_code_thresholds(self.quantization_levels)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @classmethod
    def compile(
        cls,
        fsm: FiniteStateMachine,
        observation_qbn: QuantizedBottleneckNetwork,
        encoder: Optional[ObservationEncoder] = None,
    ) -> "CompiledFSMPolicy":
        """Flatten ``fsm`` + its observation quantisation into dense tables."""
        if fsm.num_states == 0:
            raise ExtractionError("cannot compile an FSM with no states")
        if not fsm.observation_prototypes:
            raise ExtractionError("cannot compile an FSM with no observation prototypes")
        fsm.validate()

        state_keys = list(fsm.states.keys())
        state_rows = {key: row for row, key in enumerate(state_keys)}
        hidden_lengths = {len(key) for key in state_keys}
        if len(hidden_lengths) != 1:
            raise ExtractionError(
                f"state codes must share one length, got lengths {sorted(hidden_lengths)}"
            )

        latent_dim = observation_qbn.config.latent_dim
        obs_keys = list(fsm.observation_prototypes)
        for key in obs_keys:
            if len(key) != latent_dim:
                raise ExtractionError(
                    f"observation code length {len(key)} does not match the "
                    f"QBN latent dim {latent_dim}"
                )

        # ``validate`` proved the machine total: every cell has a transition.
        transition_table = np.array(
            [[state_rows[fsm.transitions[(key, obs)]] for obs in obs_keys] for key in state_keys],
            dtype=np.int64,
        )
        action_table = np.array(
            [int(fsm.states[key].action) for key in state_keys], dtype=np.int64
        )
        state_visits = np.array(
            [fsm.states[key].visit_count for key in state_keys], dtype=np.int64
        )
        state_codes = np.array(state_keys, dtype=np.int64).reshape(len(state_keys), -1)
        obs_codes = np.array(obs_keys, dtype=np.int64).reshape(len(obs_keys), -1)
        prototype_matrix = np.stack(
            [np.asarray(fsm.observation_prototypes[key], dtype=float) for key in obs_keys]
        )

        encoder_weights = {
            "w1": np.array(observation_qbn.encoder_hidden.weight.data),
            "b1": np.array(observation_qbn.encoder_hidden.bias.data),
            "w2": np.array(observation_qbn.encoder_latent.weight.data),
            "b2": np.array(observation_qbn.encoder_latent.bias.data),
        }
        constants = None
        if encoder is not None:
            values = encoder.constants()
            constants = np.array(
                [values["total_cores"], values["max_size_kb"], values["nominal_requests"]]
            )
        return cls(
            transition_table=transition_table,
            action_table=action_table,
            state_codes=state_codes,
            state_visits=state_visits,
            obs_codes=obs_codes,
            prototype_matrix=prototype_matrix,
            start_state=state_rows[fsm.start_state()],
            encoder_weights=encoder_weights,
            quantization_levels=observation_qbn.config.quantization_levels,
            encoder_constants=constants,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        return int(self.state_codes.shape[0])

    @property
    def num_observations(self) -> int:
        return int(self.obs_codes.shape[0])

    @property
    def observation_dim(self) -> int:
        return int(self._w1.shape[0])

    def matches_encoder(self, encoder: ObservationEncoder) -> bool:
        """Whether ``encoder`` normalises like the one stamped at compile time.

        Always true when the artifact was compiled without an encoder (no
        constants recorded to compare against).
        """
        if self.encoder_constants is None:
            return True
        values = encoder.constants()
        recorded = self.encoder_constants
        return (
            recorded[0] == values["total_cores"]
            and recorded[1] == values["max_size_kb"]
            and recorded[2] == values["nominal_requests"]
        )

    def summary(self) -> Dict[str, int]:
        return {
            "states": self.num_states,
            "observations": self.num_observations,
            "decisions": self.decision_count,
            "fallbacks": self.fallback_count,
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def encode_codes(self, normalized: np.ndarray) -> np.ndarray:
        """Quantise normalised observations to (B, latent) integer codes.

        Bit-identical to ``observation_qbn.discrete_code`` row by row:
        the matmuls go through the batch-size-stable kernel (gemm rows
        are batch-independent for M >= 2, exactly what the agent's
        padded single-row path resolves to), and the latent tanh + clip
        + level argmin collapse into verified pre-activation threshold
        comparisons (see :func:`_tanh_code_thresholds`; the reference
        sequence runs when verification rejected the thresholds).
        """
        pre_latent, codes, flags = self._pre_latent(self._checked_batch(normalized))
        if self._latent_thresholds is not None:
            # Verified pre-activation thresholds: the latent tanh, clip
            # and level scan collapse into k-1 comparisons (buffered —
            # the result is consumed within the same decision).
            np.greater_equal(pre_latent, self._latent_thresholds[0], out=flags)
            codes[...] = flags
            for threshold in self._latent_thresholds[1:]:
                np.greater_equal(pre_latent, threshold, out=flags)
                codes += flags
            return codes
        return _quantize_tanh(pre_latent, self.quantization_levels)

    def _encode_packed(self, normalized: np.ndarray) -> np.ndarray:
        """Base-k packed int64 key of every row's code, codes unmaterialised.

        ``pack(code) = sum_c code_c * k^c`` distributes over the
        threshold indicator sum (exact integer arithmetic), so each
        threshold's flag matrix contracts directly against the pack
        vector without building the (B, L) code array first.
        """
        pre_latent, _codes, flags = self._pre_latent(normalized)
        if self._latent_thresholds is None:
            return _quantize_tanh(pre_latent, self.quantization_levels) @ self._pack_vector
        np.greater_equal(pre_latent, self._latent_thresholds[0], out=flags)
        packed = flags @ self._pack_vector
        for threshold in self._latent_thresholds[1:]:
            np.greater_equal(pre_latent, threshold, out=flags)
            packed += flags @ self._pack_vector
        return packed

    def _checked_batch(self, rows: np.ndarray) -> np.ndarray:
        """``rows`` as a C-contiguous (B, observation_dim) float64 array."""
        rows = np.ascontiguousarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.observation_dim:
            raise ConfigurationError(
                f"expected (B, {self.observation_dim}) observation rows, "
                f"got shape {rows.shape}"
            )
        return rows

    def _pre_latent(self, normalized: np.ndarray) -> "tuple[np.ndarray, ...]":
        """Latent pre-activations (B, L) via the batch-size-stable kernels.

        Returns ``(pre_latent, codes, flags)``: ``B``-row prefixes of the
        grow-only workspace, the last two free for the quantisation step.
        """
        rows = normalized.shape[0]
        if not self._workspace or rows > self._workspace[0].shape[0]:
            latent = self._w2.shape[1]
            self._workspace = [
                np.empty((rows, self._w1.shape[1])),
                np.empty((rows, latent)),
                np.empty((rows, latent), dtype=np.int64),
                np.empty((rows, latent), dtype=bool),
            ]
        hidden, pre_latent, codes, flags = [buffer[:rows] for buffer in self._workspace]
        matmul_rows_np(normalized, self._w1, out=hidden)
        hidden += self._b1
        np.tanh(hidden, out=hidden)
        matmul_rows_np(hidden, self._w2, out=pre_latent)
        pre_latent += self._b2
        return pre_latent, codes, flags

    def resolve_observations(
        self, raw: np.ndarray, encoder: ObservationEncoder
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Map raw observations to observation columns.

        Returns ``(columns, fallback_mask)``.  Each distinct raw row of the
        batch is normalised by ``encoder`` (which must normalise like the
        one stamped at compile time, :meth:`matches_encoder`) and resolved
        once (:func:`_distinct_rows`), and its answer gathered back to
        every row repeating it — exact, because normalisation is
        elementwise, the encoder's matmul rows do not depend on how many
        rows the kernel sees, and every later step works row by row;
        ``fallback_count`` still grows by every fallback row of the batch.
        A code that quantises to a prototype code resolves to its column;
        every other row goes through the shared nearest-prototype
        resolution (all of them in one ``nearest_prototype_rows`` call,
        the certified gemm filter with the reference behind it) —
        mirroring ``FSMPolicyAgent``'s known/unseen split bit for bit.
        """
        raw = self._checked_batch(raw)
        first, inverse = _distinct_rows(raw, self._row_hash_weights)
        distinct = encoder.normalize_batch(raw[first])
        count = distinct.shape[0]
        if self._pack_vector is not None:
            packed = self._encode_packed(distinct)
            positions = self._sorted_keys.searchsorted(packed)
            np.minimum(positions, self._sorted_keys.shape[0] - 1, out=positions)
            # Unseen rows of ``columns`` hold stale values until the
            # fallback below overwrites them.
            fallback = self._sorted_keys[positions] != packed
            columns = self._sorted_columns[positions]
        else:
            codes = self.encode_codes(distinct)
            keys = [codes[i].tobytes() for i in range(count)]
            fallback = np.fromiter(
                (key not in self._code_to_column for key in keys), dtype=bool, count=count
            )
            columns = np.fromiter(
                (self._code_to_column.get(key, 0) for key in keys), dtype=np.int64, count=count
            )
        if fallback.any():
            rows = np.nonzero(fallback)[0]
            columns[rows] = nearest_prototype_rows(self.prototype_matrix, distinct[rows])
        fallback = fallback[inverse]
        self.fallback_count += int(np.count_nonzero(fallback))
        return columns[inverse], fallback

    def act_batch(
        self, raw: np.ndarray, states: np.ndarray, encoder: ObservationEncoder
    ) -> CompiledDecision:
        """One decision for every raw row: gather successors and emit actions.

        ``states`` are compiled state rows (e.g. ``SessionTable.state``
        entries seeded with :attr:`start_state`); the caller stores
        ``next_states`` back to keep each session's machine advancing.
        ``encoder`` normalises the batch's distinct rows
        (:meth:`resolve_observations`).
        """
        states = np.asarray(states, dtype=np.int64)
        columns, fallback = self.resolve_observations(raw, encoder)
        next_states = self.transition_table[states, columns]
        actions = self.action_table[next_states]
        self.decision_count += int(states.shape[0])
        return CompiledDecision(
            actions=actions, next_states=next_states, fallback_mask=fallback
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the complete artifact to one ``.npz`` bundle."""
        arrays: Dict[str, np.ndarray] = {
            "transition_table": self.transition_table,
            "action_table": self.action_table,
            "state_codes": self.state_codes,
            "state_visits": self.state_visits,
            "obs_codes": self.obs_codes,
            "prototype_matrix": self.prototype_matrix,
            "enc_w1": self._w1,
            "enc_b1": self._b1,
            "enc_w2": self._w2,
            "enc_b2": self._b2,
            "meta": np.array(
                [
                    ARTIFACT_FORMAT_VERSION,
                    self.start_state,
                    # The prototype count, which is the code count.
                    self.num_observations,
                    self.quantization_levels,
                ],
                dtype=np.int64,
            ),
        }
        if self.encoder_constants is not None:
            arrays["encoder_constants"] = self.encoder_constants
        save_npz(path, arrays)

    @classmethod
    def load(cls, path: PathLike) -> "CompiledFSMPolicy":
        """Load an artifact written by :meth:`save`.

        Raises :class:`SerializationError` for another format version and
        for tables that would index out of range while serving.
        """
        arrays = load_npz(path)
        if "meta" not in arrays or "transition_table" not in arrays:
            raise SerializationError(f"{path} is not a compiled FSM artifact")
        meta = arrays["meta"].astype(int)
        if int(meta[0]) != ARTIFACT_FORMAT_VERSION:
            raise SerializationError(
                f"unsupported compiled-FSM format version {int(meta[0])} "
                f"(expected {ARTIFACT_FORMAT_VERSION})"
            )
        policy = cls(
            transition_table=arrays["transition_table"],
            action_table=arrays["action_table"],
            state_codes=arrays["state_codes"],
            state_visits=arrays["state_visits"],
            obs_codes=arrays["obs_codes"],
            prototype_matrix=arrays["prototype_matrix"],
            start_state=int(meta[1]),
            encoder_weights={
                "w1": arrays["enc_w1"],
                "b1": arrays["enc_b1"],
                "w2": arrays["enc_w2"],
                "b2": arrays["enc_b2"],
            },
            quantization_levels=int(meta[3]),
            encoder_constants=arrays.get("encoder_constants"),
        )
        problem = (
            f"{int(meta[2])} prototypes for {policy.num_observations} observation codes"
            if int(meta[2]) != policy.num_observations
            else policy._table_problem()
        )
        if problem is not None:
            raise SerializationError(f"{path} cannot serve: {problem}")
        return policy

    def _table_problem(self) -> Optional[str]:
        """What in these tables would fail a decision, or None."""
        states = self.num_states
        if self.action_table.shape != (states,):
            return f"action table shape {self.action_table.shape} is not ({states},)"
        if np.any((self.transition_table < 0) | (self.transition_table >= states)):
            return f"a transition leaves the {states} states"
        if not 0 <= self.start_state < states:
            return f"start state {self.start_state} is not one of the {states} states"
        if np.any((self.action_table < 0) | (self.action_table >= NUM_ACTIONS)):
            return f"an action is not one of the {NUM_ACTIONS} actions"
        # The encoder layers must chain enc_w1 (D, H), enc_b1 (H,),
        # enc_w2 (H, L), enc_b2 (L,), and the codes must be L wide.
        w1, b1, w2, b2 = self._w1, self._b1, self._w2, self._b2
        if w1.ndim != 2:
            return f"enc_w1 shape {w1.shape} is not (D, H)"
        if b1.shape != (w1.shape[1],):
            return f"enc_b1 shape {b1.shape} is not ({w1.shape[1]},)"
        if w2.ndim != 2 or w2.shape[0] != w1.shape[1]:
            return f"enc_w2 shape {w2.shape} is not ({w1.shape[1]}, L)"
        if b2.shape != (w2.shape[1],):
            return f"enc_b2 shape {b2.shape} is not ({w2.shape[1]},)"
        if self.obs_codes.ndim != 2 or self.obs_codes.shape[1] != w2.shape[1]:
            return f"obs_codes shape {self.obs_codes.shape} is not (N, {w2.shape[1]})"
        constants = self.encoder_constants
        if constants is not None and not (
            constants.shape == (3,) and np.all(np.isfinite(constants) & (constants > 0))
        ):
            return f"encoder_constants {constants.tolist()} are not 3 finite positive numbers"
        if self.num_observations == 0:
            return "no observation codes"
        expected = (self.num_observations, self.observation_dim)
        if self.prototype_matrix.shape != expected:
            return f"prototype matrix shape {self.prototype_matrix.shape} is not {expected}"
        return None
