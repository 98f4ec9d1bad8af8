"""Deploying an extracted FSM as a controller."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.agents.base import Agent
from repro.env.observation import Observation, ObservationEncoder
from repro.errors import ExtractionError
from repro.fsm.extraction import ExtractionResult
from repro.fsm.generalize import nearest_prototype_rows
from repro.fsm.machine import FiniteStateMachine, StateKey
from repro.qbn.autoencoder import QuantizedBottleneckNetwork
from repro.qbn.quantize import code_key
from repro.storage.migration import MigrationAction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.compiled_fsm import CompiledFSMPolicy


class FSMPolicyAgent(Agent):
    """Runs the extracted finite state machine as a white-box controller.

    Each decision quantises the current observation with the observation
    QBN; if the resulting code has no prototype in the machine's table,
    the nearest prototype's code is substituted (paper Section 3.2.2).
    The machine, total over its prototype codes, then advances one
    transition and emits the action of the new state.
    """

    name = "extracted_fsm"

    def __init__(
        self,
        fsm: FiniteStateMachine,
        observation_qbn: QuantizedBottleneckNetwork,
        encoder: ObservationEncoder,
    ) -> None:
        if fsm.num_states == 0:
            raise ExtractionError("cannot deploy an FSM with no states")
        if not fsm.observation_prototypes:
            raise ExtractionError("cannot deploy an FSM with no observation prototypes")
        self.fsm = fsm
        self.observation_qbn = observation_qbn
        self.encoder = encoder
        # The prototype table in insertion order, the row order of the
        # compiled tables, so both break distance ties alike.
        self._prototype_keys = list(fsm.observation_prototypes)
        self._prototype_matrix = np.stack(
            [np.asarray(vector, dtype=float) for vector in fsm.observation_prototypes.values()]
        )
        self._state: Optional[StateKey] = None
        self.unseen_observation_count = 0

    @classmethod
    def from_extraction(
        cls, result: ExtractionResult, encoder: ObservationEncoder,
        observation_qbn: QuantizedBottleneckNetwork,
    ) -> "FSMPolicyAgent":
        """Convenience constructor from an :class:`ExtractionResult`."""
        return cls(fsm=result.fsm, observation_qbn=observation_qbn, encoder=encoder)

    def reset(self) -> None:
        self._state = self.fsm.start_state()
        self.unseen_observation_count = 0

    def act(self, observation: Observation) -> MigrationAction:
        if self._state is None:
            self.reset()
        normalized = self.encoder.normalize(observation)
        observation_code = code_key(self.observation_qbn.discrete_code(normalized))
        if observation_code not in self.fsm.observation_prototypes:
            row = nearest_prototype_rows(self._prototype_matrix, normalized[None, :])[0]
            observation_code = self._prototype_keys[int(row)]
            self.unseen_observation_count += 1
        self._state, action = self.fsm.step(self._state, observation_code)
        return action

    def compile(self) -> "CompiledFSMPolicy":
        """Compile this agent's machine into its dense-table equivalent."""
        from repro.engine.compiled_fsm import CompiledFSMPolicy

        return CompiledFSMPolicy.compile(self.fsm, self.observation_qbn, encoder=self.encoder)
