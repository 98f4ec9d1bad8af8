"""Figure 3 — curriculum learning vs training from scratch.

The paper trains one agent with curriculum learning (1000 epochs on
standard traces + 1000 on real traces) and one from scratch (2000 epochs
on real traces) and shows the curriculum agent ends better.  Both
regimes are sweeps of the committed scorecard (``benchmarks/scorecard.json``,
rendered into ``EXPERIMENTS.md``), at ``design_small`` scale and at the
paper's, paired by seed.  These tests read the committed job records and
run nothing.  A verdict that is not "holds" here is
``xfail(strict=True)``: a change that makes it hold fails the test until
its scale leaves ``NOT_HOLDING``.
"""

from __future__ import annotations

import pytest

import scorecard

SPEC = scorecard.load_spec()
CLAIM = "curriculum GRU < from-scratch GRU"

# Scales whose committed verdict is not "holds".
NOT_HOLDING = {"design_small", "paper"}


@pytest.fixture(scope="module")
def records():
    return scorecard.committed(SPEC)


def test_fig3_convergence(records):
    """Both regimes ran the same seeds and trained their whole, equal budget."""
    sweeps = {sweep.name: sweep for sweep in scorecard.sweep_specs(SPEC)}
    for roles in SPEC["scales"].values():
        curriculum, scratch = sweeps[roles["curriculum"]], sweeps[roles["scratch"]]
        assert list(curriculum.seeds) == list(scratch.seeds)
        assert scratch.base["curriculum.standard_epochs"] == 0
        budgets = set()
        for sweep in (curriculum, scratch):
            budget = sweep.base["curriculum.standard_epochs"] + sweep.base["curriculum.real_epochs"]
            budgets.add(budget)
            for record in records[sweep.name]:
                assert record["metrics"]["train_epochs"] == budget
                assert record["metrics"]["train_final_makespan"] > 0
        assert len(budgets) == 1


@pytest.mark.parametrize(
    "scale",
    [
        pytest.param(
            scale,
            marks=[pytest.mark.xfail(strict=True, reason="does not hold here (EXPERIMENTS.md)")]
            if scale in NOT_HOLDING else [],
        )
        for scale in SPEC["scales"]
    ],
)
def test_fig3_curriculum_beats_scratch(records, scale):
    row = next(
        row for row in scorecard.claim_rows(SPEC, records)
        if row["claim"] == CLAIM and row["scale"] == scale
    )
    assert row["verdict"] == scorecard.HOLDS, (
        f"holds at {len(row['holding'])}/{len(row['ratios'])} seeds"
    )
