"""Figure 3 — convergence of curriculum learning vs training from scratch.

The paper trains one agent with curriculum learning (1000 epochs on
standard traces + 1000 on real traces) and one from scratch (2000 epochs
on real traces) and shows the curriculum agent converges faster and
better.  This benchmark runs a scaled-down version of both regimes and
prints the two learning curves plus their final smoothed makespans.
"""

from __future__ import annotations

from repro.drl.curriculum import CurriculumConfig
from repro.pipeline.experiments import run_figure3, small_pipeline_config


def test_fig3_convergence(benchmark):
    config = small_pipeline_config(
        seed=1, hidden_size=32, trace_duration=40, num_real_traces=8, num_eval_traces=4
    )
    config.curriculum = CurriculumConfig(standard_epochs=15, real_epochs=15)
    config.bc_pretrain_epochs = 0  # Figure 3 compares the pure A2C regimes.

    result = benchmark.pedantic(
        lambda: run_figure3(config, seed=1), iterations=1, rounds=1
    )

    print()
    print(result.render())
    finals = result.final_makespans()

    # Both regimes must actually have trained for the configured budgets.
    assert len(result.curriculum_history) == config.curriculum.total_epochs
    assert len(result.scratch_history) == config.curriculum.total_epochs
    # Sanity on the reported quantities only; the qualitative claim —
    # curriculum converges faster/better — is not asserted at this scale.
    assert finals["curriculum"] > 0 and finals["from_scratch"] > 0
