"""Equivalence suite for the struct-of-arrays simulator core.

The contract: slot ``i`` of a :class:`VectorSimulatorState` episode is
bit-identical to a scalar :class:`StorageSimulator` episode on the same
trace with the same Philox lane, for every batch size, kernel choice and
batch composition (partial batches of different-length traces, fully
finished batches).  These tests also pin the numerical foundations the
vectorized kernels stand on — numpy's row-wise reductions matching
standalone vector reductions, and the replayed pairwise-summation
order — so a numpy upgrade that changes them fails loudly here instead
of silently drifting a golden trace.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.agents.default import DefaultPolicy
from repro.agents.greedy import GreedyUtilizationPolicy
from repro.agents.proportional import ProportionalAllocationPolicy
from repro.env.environment import StorageAllocationEnv
from repro.env.vector_env import VectorStorageAllocationEnv
from repro.errors import SimulationError
from repro.storage import vector_state
from repro.storage.levels import LEVELS
from repro.storage.simulator import StorageSimulator, StorageSystemConfig
from repro.storage.vector_state import VectorSimulatorState, pairwise_sum_ragged
from repro.storage.workload import WorkloadInterval, WorkloadTrace
from repro import native
from repro.utils import rng as rng_module
from repro.utils.rng import IDLE_DOMAIN, PhiloxStreams, episode_lanes
from conftest import kernels_off, native_or_skip, unprobed


def _batch_traces(real_traces, batch):
    """``batch`` traces of heterogeneous lengths from the fixture set."""
    traces = list(real_traces)
    return [traces[i % len(traces)] for i in range(batch)]


def _drive_and_compare(config, traces, seeds, action_seed=101):
    """Step a vector state and per-slot scalar simulators in lockstep.

    Actions are drawn per-slot from independent seeded generators (only
    for unfinished slots, exactly like a collector would), and every
    per-interval quantity is compared bitwise.  The caller's ``kernel``
    fixture picks what steps both: the C kernel when it is ready, or the
    reference loop with the kernel forced off.
    """
    batch = len(traces)
    state = VectorSimulatorState(config, record_metrics=False)
    state.reset(traces, rngs=episode_lanes(seeds, IDLE_DOMAIN))
    scalars = []
    for trace, seed in zip(traces, seeds):
        simulator = StorageSimulator(config, rng=seed)
        simulator.reset(trace)
        scalars.append(simulator)
    action_rngs = [np.random.default_rng(action_seed + i) for i in range(batch)]

    steps = 0
    while not state.done.all():
        was_done = state.done.copy()
        actions = np.zeros(batch, dtype=np.int64)
        for i in range(batch):
            if not was_done[i]:
                actions[i] = int(action_rngs[i].integers(0, 7))
        state.step(actions)
        for i in range(batch):
            if was_done[i]:
                continue
            scalar = scalars[i]
            record = scalar.step(int(actions[i]))
            for column, measured in (
                (state.incoming, record.incoming_kb),
                (state.processed, record.processed_kb),
                (state.capacity, record.capacity_kb),
                (state.utilization, record.utilization),
                (state.backlog, record.backlog_kb),
                (state.counts, record.core_counts),
            ):
                assert column[i].tolist() == [measured[level] for level in LEVELS]
            assert bool(state.done[i]) == scalar.is_done
        steps += 1
        assert steps < 10_000, "episodes did not converge"
    for i, scalar in enumerate(scalars):
        assert int(state.steps_taken[i]) == scalar.makespan
        assert bool(state.truncated[i]) == scalar.episode_metrics.truncated
    return state


_KERNELS = pytest.mark.parametrize("kernel", ["native", "reference"], indirect=True)


@pytest.fixture
def kernel(request):
    """The kernel a test steps with; the reference loop with native forced off."""
    with kernels_off("simulator") if request.param == "reference" else contextlib.nullcontext():
        yield request.param


class TestKernelEquivalence:
    @_KERNELS
    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_matches_scalar_simulator(self, real_traces, kernel, batch, seed):
        config = StorageSystemConfig()
        traces = _batch_traces(real_traces, batch)
        _drive_and_compare(config, traces, [seed + i for i in range(batch)])

    @_KERNELS
    def test_zero_idle_rate(self, real_traces, kernel):
        config = StorageSystemConfig(idle_rate=0.0)
        _drive_and_compare(config, _batch_traces(real_traces, 4), [5, 6, 7, 8])

    @_KERNELS
    def test_heavy_penalty_config(self, real_traces, kernel):
        config = StorageSystemConfig(
            migration_penalty=0.5, migration_cooldown_intervals=3, idle_rate=0.1
        )
        _drive_and_compare(config, _batch_traces(real_traces, 4), [1, 2, 3, 4])

    def test_native_supported_flag_follows_level_width(self):
        """The C step sums levels up to 15 cores wide; a wider one steps
        on the reference loop."""
        assert VectorSimulatorState(StorageSystemConfig())._native_supported
        for total, supported in ((17, True), (18, False)):
            config = StorageSystemConfig(
                total_cores=total, initial_allocation={"NORMAL": total - 2, "KV": 1, "RV": 1}
            )
            assert VectorSimulatorState(config)._native_supported is supported


_TOTAL_CORES = StorageSystemConfig().total_cores


@st.composite
def _dispatch_row(draw):
    """One slot on the eve of dispatch: counts, cooldowns, idle, backlog.

    Counts sum to ``total_cores`` with up to 10 on a level (drawn wide
    half the time, so 8-core cells are common), a row is either free of
    penalties or carries a random cooldown pattern, ``idle <= count - 1``.
    """
    first = draw(st.one_of(st.integers(1, 10), st.integers(8, 10)))
    second = draw(st.integers(1, min(10, _TOTAL_CORES - 1 - first)))
    counts = [first, second, _TOTAL_CORES - first - second]
    draw(st.randoms(use_true_random=False)).shuffle(counts)
    cooldown = st.integers(0, 2) if draw(st.booleans()) else st.just(0)
    # Tenths carry full mantissas (Hypothesis prefers short floats, whose
    # sums are exact in any order) and stay under saturation half the time.
    backlog = st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0e-308, 40_000.0, 1e12]),
        st.floats(0.0, 1e6),
        st.integers(1, 6_000_000).map(lambda tenths: tenths * 0.1),
    )
    return (
        counts,
        [draw(st.lists(cooldown, min_size=c, max_size=c)) for c in counts],
        [draw(st.integers(0, c - 1)) for c in counts],
        [draw(backlog) for _ in counts],
    )


def _state_on_the_eve_of_dispatch(rows, config=None):
    """A reset state whose slots are overwritten with explicit ``rows``."""
    state = VectorSimulatorState(config or StorageSystemConfig())
    trace = WorkloadTrace("one-interval", [WorkloadInterval.empty()])
    state.reset([trace] * len(rows), rngs=episode_lanes(range(len(rows)), IDLE_DOMAIN))
    state.pos_ids[...] = state._id_sentinel
    state.pos_cooldown[...] = 0
    for slot, (counts, cooldowns, idle, backlog) in enumerate(rows):
        state.counts[slot] = counts
        state.idle[slot] = idle
        state.backlog[slot] = backlog
        first_id = 0
        for level, count in enumerate(counts):
            state.pos_ids[slot, level, :count] = np.arange(first_id, first_id + count)
            state.pos_cooldown[slot, level, :count] = cooldowns[level]
            first_id += count
    return state


_STATE_ARRAYS = (
    "pos_ids", "pos_cooldown", "counts", "idle", "incoming", "processed",
    "capacity", "utilization", "backlog", "interval_index", "done",
    "truncated", "migration_applied",
)


@st.composite
def _differential_case(draw):
    """A config with levels up to 15 wide, a batch and how to step it."""
    min_cores = draw(st.integers(1, 2))
    total = draw(st.integers(3 * min_cores, 15 + 2 * min_cores))
    normal = draw(st.integers(min_cores, total - 2 * min_cores))
    kv = draw(st.integers(min_cores, total - normal - min_cores))
    config = StorageSystemConfig(
        total_cores=total,
        initial_allocation={"normal": normal, "kv": kv, "rv": total - normal - kv},
        min_cores_per_level=min_cores,
        migration_penalty=draw(st.sampled_from([0.0, 0.2, 0.45])),
        migration_cooldown_intervals=draw(st.integers(0, 3)),
        idle_rate=draw(st.sampled_from([0.0, 0.04, 0.3])),
        max_intervals_factor=draw(st.sampled_from([1.0, 1.5, 12.0])),
        max_intervals_slack=draw(st.integers(0, 3)),
    )
    return (
        config,
        draw(st.sampled_from([1, 2, 7, 64])),
        draw(st.booleans()),            # record_metrics
        draw(st.booleans()),            # fleet lanes (a base seed), else episode seeds
        draw(st.integers(0, 2**32 - 1)),
    )


class TestNativeKernel:
    """``_sim_kernel.c`` steps every state array to the reference loop's bytes."""

    @given(case=_differential_case())
    @settings(max_examples=60, deadline=None)
    def test_every_array_after_every_step_matches_numpy(self, case):
        """Native and the reference loop, in lockstep."""
        native_or_skip("simulator")
        config, batch, record, philox, seed = case
        rng = np.random.default_rng(seed)
        traces = [
            WorkloadTrace(
                f"t{i}",
                [
                    WorkloadInterval(
                        rng.dirichlet(np.ones(14)),
                        rng.uniform(0.0, 900.0 * config.total_cores),
                    )
                    for _ in range(int(rng.integers(1, 9)))
                ],
            )
            for i in range(min(batch, 5))
        ]
        traces = [traces[i % len(traces)] for i in range(batch)]
        states = []
        for kernel in ("native", "reference"):
            state = VectorSimulatorState(config, record_metrics=record)
            streams = (
                PhiloxStreams(seed, batch, "differential") if philox
                else episode_lanes(range(seed, seed + batch), IDLE_DOMAIN)
            )
            state.reset(traces, rngs=streams)
            assert state._kernel is not None
            if kernel == "reference":
                state._kernel = None
            states.append(state)
        while not states[0].done.all():
            actions = rng.integers(0, 7, size=batch)
            stepped = [state.step(actions) for state in states]
            for state, mask in zip(states[1:], stepped[1:]):
                assert mask.tobytes() == stepped[0].tobytes()
                for name in _STATE_ARRAYS:
                    mine, native = getattr(state, name), getattr(states[0], name)
                    assert mine.tobytes() == native.tobytes(), name
                assert [e.truncated for e in state.episodes] == [
                    e.truncated for e in states[0].episodes
                ]
        if record:
            for state in states[1:]:
                for mine, theirs in zip(state.episodes, states[0].episodes):
                    assert mine.intervals == theirs.intervals

    @given(rows=st.lists(_dispatch_row(), min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_post_matches_numpy_on_dispatch_rows(self, rows):
        """Dispatch through the flags, on rows whose sums round by order."""
        native_or_skip("simulator")
        native = _state_on_the_eve_of_dispatch(rows)
        spec = _state_on_the_eve_of_dispatch(rows)
        truncated = native._kernel.post(native)
        assert truncated == spec._finish_interval(np.arange(len(rows)), slice(None))
        for name in _STATE_ARRAYS:
            assert getattr(native, name).tobytes() == getattr(spec, name).tobytes(), name

    def test_a_kernel_that_differs_leaves_numpy_in_charge(self, monkeypatch):
        """One ulp of one backlog cell fails the load-time self-check."""
        native_or_skip("simulator")
        post = vector_state.NativeSimulatorKernel.post

        def one_ulp_off(self, state):
            truncated = post(self, state)
            state.backlog[0, 0] = np.nextafter(state.backlog[0, 0], np.inf)
            return truncated

        monkeypatch.setattr(vector_state.NativeSimulatorKernel, "post", one_ulp_off)
        unprobed(monkeypatch, "simulator")
        assert native.kernel("simulator") is None
        assert native.status()["simulator"] == "disabled: self-check mismatch"

    def test_failed_load_is_recorded_with_its_reason(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DISABLE_NATIVE", raising=False)
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))  # nothing cached
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", "")                           # no compiler found
        unprobed(monkeypatch, "simulator")
        status = native.status()["simulator"]
        assert status.startswith("disabled: no compiler produced the sim_kernel")

    def test_idle_ranking_is_stable_in_every_kernel(self):
        """Highest capacity first, lowest core id among equals.

        An 11-core cell with positions 0-7 and 9 penalised idles one core:
        position 8, not 10.  In the 8-wide tree plus tail the zero's
        position moves the total by an ulp, so an unstable sort (numpy's
        default kind, whose tie order depends on the host's SIMD sort)
        fails here on some CPUs.
        """
        config = StorageSystemConfig(
            total_cores=13,
            core_capability_kb=160_000.0,
            migration_penalty=0.3,
            initial_allocation={"normal": 11, "kv": 1, "rv": 1},
        )
        share = 123456.789
        cooldowns = [[1] * 8 + [0, 1, 0], [0], [0]]
        row = ([11, 1, 1], cooldowns, [1, 0, 0], [11 * share, 1.0, 1.0])
        caps = np.where(np.array(cooldowns[0]) > 0, 112_000.0, 160_000.0)
        caps[8] = 0.0
        expected = np.minimum(share, caps).sum()
        assert expected == 1131456.789

        reference = _state_on_the_eve_of_dispatch([row], config)
        reference._process_intervals_reference(np.arange(1))
        assert reference.processed[0, 0] == expected
        native = _state_on_the_eve_of_dispatch([row], config)
        if native._kernel is not None:
            native._kernel.post(native)
            assert native.processed[0, 0] == expected


class TestBatchLifecycle:
    def test_all_finished_mask_is_a_noop(self, real_traces):
        state = VectorSimulatorState(StorageSystemConfig())
        traces = _batch_traces(real_traces, 3)
        state.reset(traces, rngs=episode_lanes([0, 1, 2], IDLE_DOMAIN))
        while not state.done.all():
            state.step(np.zeros(3, dtype=np.int64))
        makespans = state.steps_taken.copy()
        backlog = state.backlog.copy()
        stepped = state.step(np.ones(3, dtype=np.int64))
        assert not stepped.any()
        np.testing.assert_array_equal(state.steps_taken, makespans)
        np.testing.assert_array_equal(state.backlog, backlog)

    def test_partial_batch_slots_freeze(self, real_traces):
        """Shorter episodes stop consuming randomness once finished, and a
        lane draws the same alone as beside another."""
        traces = sorted(list(real_traces), key=len)[:2]
        config = StorageSystemConfig()
        # Lone run of the longer trace with its own stream.
        lone = VectorSimulatorState(config)
        lone.reset([traces[1]], rngs=episode_lanes([42], IDLE_DOMAIN))
        while not lone.done.all():
            lone.step(np.zeros(1, dtype=np.int64))
        # Same trace sharing a batch with a shorter one that finishes first.
        pair = VectorSimulatorState(config)
        pair.reset(traces, rngs=episode_lanes([7, 42], IDLE_DOMAIN))
        while not pair.done.all():
            pair.step(np.zeros(2, dtype=np.int64))
        assert int(pair.steps_taken[1]) == int(lone.steps_taken[0])

    def test_reset_validations(self, real_traces):
        state = VectorSimulatorState(StorageSystemConfig())
        with pytest.raises(SimulationError):
            state.reset([])
        with pytest.raises(SimulationError):
            state.reset(list(real_traces)[:2], rngs=episode_lanes([0], IDLE_DOMAIN))
        with pytest.raises(SimulationError, match="PhiloxStreams"):
            state.reset(list(real_traces)[:2], rngs=[0, 1])
        with pytest.raises(SimulationError):
            state.step(np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize("action", [-1, 7, 99])
    def test_out_of_range_actions_rejected(self, real_traces, action):
        """Negative indices must not wrap through fancy indexing into a
        silent (wrong) migration; out-of-range raises cleanly instead."""
        state = VectorSimulatorState(StorageSystemConfig())
        state.reset(list(real_traces)[:2], rngs=episode_lanes([0, 1], IDLE_DOMAIN))
        counts_before = state.counts.copy()
        with pytest.raises(SimulationError):
            state.step(np.array([action, 0], dtype=np.int64))
        np.testing.assert_array_equal(state.counts, counts_before)
        # The scalar B=1 view rejects the same inputs.
        simulator = StorageSimulator(StorageSystemConfig(), rng=0)
        simulator.reset(list(real_traces)[0])
        with pytest.raises(SimulationError):
            simulator.step(action)

    def test_vector_state_maintains_level_major_invariant(self, real_traces):
        """After many random migrations the padded positional arrays still
        hold each level's cores id-sorted with clean sentinel padding."""
        state = VectorSimulatorState(StorageSystemConfig())
        state.reset(list(real_traces)[:2], rngs=episode_lanes([0, 1], IDLE_DOMAIN))
        rng = np.random.default_rng(5)
        sentinel = state._id_sentinel
        assert sentinel >= 2 * state.num_cores
        for _ in range(30):
            if state.done.all():
                break
            actions = rng.integers(0, 7, size=2)
            actions[state.done] = 0
            state.step(actions)
            for slot in range(2):
                counts = state.counts[slot]
                seen = []
                for level in range(3):
                    count = int(counts[level])
                    row = state.pos_ids[slot, level]
                    group = list(row[:count])
                    assert group == sorted(group), (slot, level, row)
                    assert all(id_ == sentinel for id_ in row[count:]), (slot, level, row)
                    assert not state.pos_cooldown[slot, level, count:].any()
                    seen.extend(group)
                assert sorted(seen) == list(range(state.num_cores))

    def test_index_helper_keeps_one_buffer(self, real_traces):
        """The migrating-row count ``m`` changes every interval and the
        migration kernel asks for ``arange(m)`` and ``arange(2 * m)``: the
        helper hands out read-only prefixes of one grow-only buffer, not one
        array per ``n`` ever asked for (a 4 096-slot shard would keep ~8 000)."""
        batch = 512
        state = VectorSimulatorState(StorageSystemConfig(), record_metrics=False)
        with kernels_off("simulator"):
            state.reset(
                _batch_traces(real_traces, batch), rngs=episode_lanes(range(batch), IDLE_DOMAIN)
            )
        helper, asked = state._arange, set()
        state._arange = lambda n: asked.add(n) or helper(n)
        rng = np.random.default_rng(9)
        while not state.done.all():
            state.step(rng.integers(0, 7, size=batch) * ~state.done)
        assert len(asked) > 32
        buffer = state._arange_buffer
        assert buffer.shape == (max(asked),)
        for n in asked:
            prefix = helper(n)
            assert prefix.base is buffer and not prefix.flags.writeable
            np.testing.assert_array_equal(prefix, np.arange(n))


class TestAgentEquivalence:
    """Baseline agents drive the vector env and the sequential env to
    bit-identical episodes for every batch composition."""

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize(
        "agent_factory",
        [
            lambda config: DefaultPolicy(),
            lambda config: GreedyUtilizationPolicy(),
            lambda config: ProportionalAllocationPolicy(config),
        ],
        ids=["default", "greedy", "proportional"],
    )
    def test_vector_env_matches_sequential(
        self, system_config, real_traces, batch, agent_factory
    ):
        traces = _batch_traces(real_traces, batch)
        venv = VectorStorageAllocationEnv(system_config, record_metrics=True)
        observations = venv.reset(traces, rngs=episode_lanes(range(batch), IDLE_DOMAIN))
        agents = [agent_factory(system_config) for _ in range(batch)]
        for agent in agents:
            agent.reset()
        encoder = venv.observation_encoder
        vector_rewards = [[] for _ in range(batch)]
        while not venv.all_done:
            raw = venv.raw_observations()
            dones = venv.dones
            actions = np.zeros(batch, dtype=np.int64)
            for i in range(batch):
                if not dones[i]:
                    actions[i] = int(agents[i].act(encoder.split_raw(raw[i])))
            result = venv.step(actions)
            for i in range(batch):
                if result.stepped[i]:
                    vector_rewards[i].append(float(result.rewards[i]))

        for i, trace in enumerate(traces):
            env = StorageAllocationEnv(system_config)
            observation = env.reset(trace, rng=i)
            agent = agent_factory(system_config)
            agent.reset()
            rewards = []
            while True:
                step = env.step(agent.act(observation))
                observation = step.observation
                rewards.append(step.reward)
                if step.done:
                    break
            assert env.simulator.makespan == int(
                venv.simulator_state.steps_taken[i]
            )
            assert rewards == vector_rewards[i]


class TestPairwiseFoundations:
    """Pins of the numpy reduction behaviours the kernels rely on."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 31])
    def test_rowwise_sum_matches_vector_sum(self, n):
        rng = np.random.default_rng(n)
        matrix = np.ascontiguousarray(rng.uniform(0.0, 1e6, size=(64, n)))
        np.testing.assert_array_equal(
            matrix.sum(axis=1),
            np.array([matrix[i].sum() for i in range(matrix.shape[0])]),
        )

    @pytest.mark.parametrize("n_max", [1, 4, 7, 8, 12, 15, 20, 40])
    def test_pairwise_sum_ragged_matches_prefix_sums(self, n_max):
        rng = np.random.default_rng(n_max)
        values = rng.uniform(0.0, 1e6, size=(128, n_max))
        lengths = rng.integers(0, n_max + 1, size=128)
        result = pairwise_sum_ragged(values, lengths)
        expected = np.array(
            [values[i, : lengths[i]].sum() for i in range(values.shape[0])]
        )
        np.testing.assert_array_equal(result, expected)

    def test_idled_positions_move_the_wide_pairwise_sum(self):
        """The 8-wide tree associates zeros by position: one idled core
        among 8 does NOT sum like 7 live cores left to right (so a level
        cannot drop its idled cores from the reduction) ..."""
        per_core = 30_000.1
        idled = np.full(8, per_core)
        idled[0] = 0.0
        assert idled.sum() != np.full(7, per_core).sum()
        # ... while under 8 wide the leading zeros drop out exactly.
        narrow = np.full(7, per_core)
        narrow[:2] = 0.0
        assert narrow.sum() == np.full(5, per_core).sum()

    def test_argsort_of_constant_rows_is_identity(self):
        for n in range(1, 13):
            np.testing.assert_array_equal(
                np.argsort(np.full(n, -40000.0)), np.arange(n)
            )

    def test_rowwise_argsort_matches_vector_argsort(self):
        rng = np.random.default_rng(0)
        values = rng.choice([40000.0, 32000.0, 0.0], size=(200, 9))
        np.testing.assert_array_equal(
            np.argsort(-values, axis=1),
            np.stack([np.argsort(-values[i]) for i in range(values.shape[0])]),
        )

    def test_masked_poisson_matches_scalar_draws(self):
        """The idle sampler's CDF inversion over a batch of fired cells
        equals each cell inverted alone, down to deep tails."""
        rng = np.random.default_rng(0)
        lam = np.concatenate([rng.uniform(0.01, 2.0, 40), [0.24, 30.0, 120.0]])
        uniforms = np.concatenate([rng.random(40), [0.999999, 0.5, 0.9999]])
        term = np.exp(-lam)
        batched = rng_module._poisson_from_uniform(uniforms, lam, term)
        alone = [
            rng_module._poisson_from_uniform(uniforms[i:i + 1], lam[i:i + 1], term[i:i + 1])[0]
            for i in range(lam.size)
        ]
        np.testing.assert_array_equal(batched, alone)
        assert batched.max() > 100


# Pinned at the commit that removed the Philox rollout goldens: nothing
# else fixes the keystream's *values* (key hashing, counter layout,
# double construction, Poisson inversion), and the fleet digests are
# only as stable as these.
PIN_EPISODES = [0, 1, 5, 1 << 33]
PIN_ACTIONS = [[0, 0, 0, 0], [1, 2, 3, 4], [5, 6, 0, 1]]
PIN_IDLE = [
    [[1, 2, 2], [2, 1, 2], [3, 1, 1], [1, 0, 2]],
    [[1, 3, 1], [3, 2, 1], [6, 1, 1], [4, 1, 1]],
    [[3, 2, 1], [3, 0, 2], [5, 1, 1], [0, 0, 3]],
]
PIN_CURSORS = [9, 9, 9, 9]
PIN_FIRST_UNIFORMS = [
    0.916362551810708, 0.8045882747031109, 0.02966224617214297, 0.5140186235958015,
]
PIN_REFILLED_UNIFORMS = [
    0.5717773595717296, 0.3774744044941023, 0.37328916239935883, 0.9012823737367173,
]


class TestPhiloxFleetStreams:
    """The fleet's idle stream, on the native sampler and on its numpy spec."""

    def test_lanes_do_not_depend_on_their_batch(self, sampler_path, real_traces):
        """An 8-lane episode equals each lane run alone as a B=1 batch.

        Finished-slot masking and shard recycling rest on this: a lane's
        draws are a function of its global episode id and its own cursor,
        never of which other lanes are stepped with it.
        """
        config = StorageSystemConfig(idle_rate=0.3)
        episodes = [3, 0, 11, 5, 1 << 33, 7, 1, 9]
        batch = len(episodes)
        traces = _batch_traces(real_traces, batch)
        full_streams = PhiloxStreams(77, episodes, "env")
        full = VectorSimulatorState(config, record_metrics=False)
        full.reset(traces, rngs=full_streams)
        alone = []
        for episode, trace in zip(episodes, traces):
            streams = PhiloxStreams(77, [episode], "env")
            state = VectorSimulatorState(config, record_metrics=False)
            state.reset([trace], rngs=streams)
            alone.append((state, streams))
        action_rngs = [np.random.default_rng(500 + i) for i in range(batch)]

        drawn = 0
        while not full.done.all():
            active = np.nonzero(~full.done)[0]
            actions = np.zeros(batch, dtype=np.int64)
            for i in active:
                actions[i] = action_rngs[i].integers(0, 7)
            full.step(actions)
            for i in active:
                state, _ = alone[i]
                state.step(actions[i : i + 1])
                np.testing.assert_array_equal(full.idle[i], state.idle[0])
                np.testing.assert_array_equal(full.backlog[i], state.backlog[0])
                assert bool(full.done[i]) == bool(state.done[0])
                drawn += int(state.idle[0].sum())
        for i, (state, streams) in enumerate(alone):
            assert int(full.steps_taken[i]) == int(state.steps_taken[0])
            assert int(full_streams._cursors[i]) == int(streams._cursors[0])
        # The comparison means something: idle cores were drawn, and lanes
        # finished at different steps, so masked batches were stepped.
        assert drawn > 0
        assert len(set(full.steps_taken.tolist())) > 1

    def test_keystream_values_are_pinned(self, sampler_path, real_traces):
        config = StorageSystemConfig(idle_rate=0.4)
        streams = PhiloxStreams(2024, PIN_EPISODES, "pin/env")
        state = VectorSimulatorState(config, record_metrics=False)
        state.reset(_batch_traces(real_traces, len(PIN_EPISODES)), rngs=streams)
        idle = []
        for actions in PIN_ACTIONS:
            state.step(np.array(actions, dtype=np.int64))
            idle.append(state.idle.tolist())
        assert idle == PIN_IDLE
        assert streams._cursors.tolist() == PIN_CURSORS

        uniform_streams = PhiloxStreams(2024, PIN_EPISODES, "pin/uniforms")
        first = uniform_streams.uniforms()
        for _ in range(63):
            uniform_streams.uniforms()
        refilled = uniform_streams.uniforms()  # draw 64: first of the second block
        assert first.tolist() == PIN_FIRST_UNIFORMS
        assert refilled.tolist() == PIN_REFILLED_UNIFORMS

    @pytest.mark.parametrize("movers", [(), (1, 4, 6)])
    def test_batch_steps_like_each_slot_alone(self, sampler_path, real_traces, movers):
        """Byte-equal, ``pos_cooldown`` included, to per-slot scalar runs.

        With no movers no row ever cools, so every interval skips the
        cooldown decay; with movers only some rows cool at a time.  Each
        slot is compared with a B=1 state on the reference dispatch loop
        and its own one-lane stream, which is the scalar simulator.
        """
        config = StorageSystemConfig(idle_rate=0.3)
        episodes = [3, 0, 11, 5, 1 << 33, 7, 1, 9]
        batch = len(episodes)
        traces = _batch_traces(real_traces, batch)
        full_streams = PhiloxStreams(91, episodes, "cooling")
        full = VectorSimulatorState(config, record_metrics=False)
        full.reset(traces, rngs=full_streams)
        alone = []
        for episode, trace in zip(episodes, traces):
            streams = PhiloxStreams(91, [episode], "cooling")
            state = VectorSimulatorState(config, record_metrics=False)
            state.reset([trace], rngs=streams)
            state._kernel = None
            alone.append((state, streams))
        action_rngs = [np.random.default_rng(700 + i) for i in range(batch)]

        mixed_intervals = 0
        while not full.done.all():
            active = np.nonzero(~full.done)[0]
            actions = np.zeros(batch, dtype=np.int64)
            for i in active:
                if i in movers:
                    actions[i] = action_rngs[i].integers(0, 7)
            full.step(actions)
            cools = full.pos_cooldown[active].reshape(active.size, -1).any(axis=1)
            mixed_intervals += bool(cools.any() and not cools.all())
            for i in active:
                state, _ = alone[i]
                state.step(actions[i : i + 1])
                for name in (
                    "pos_cooldown", "pos_ids", "counts", "idle", "incoming",
                    "processed", "capacity", "utilization", "backlog", "done",
                ):
                    batched, single = getattr(full, name)[i], getattr(state, name)[0]
                    assert batched.tobytes() == single.tobytes(), name
        for i, (state, streams) in enumerate(alone):
            assert int(full.steps_taken[i]) == int(state.steps_taken[0])
            assert int(full_streams._cursors[i]) == int(streams._cursors[0])
        assert len(set(full.steps_taken.tolist())) > 1  # partial batches stepped
        if movers:
            assert mixed_intervals > 0
        else:
            assert not full.pos_cooldown.any()
