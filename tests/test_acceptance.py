"""Acceptance gate: every release criterion must pass at full scale.

Each criterion gets its own test case and prints one PASS/FAIL line outside
the capture machinery so the verdicts are visible in the run log even when
everything is green.
"""

import dataclasses

import pytest

import whirly_lab.acceptance as acceptance_module
from whirly_lab import ACCEPTANCE_SEED, CRITERIA


def test_battery_is_complete():
    assert len(CRITERIA) == 10
    keys = [c.key for c in CRITERIA]
    assert len(set(keys)) == 10


@pytest.mark.parametrize("criterion", CRITERIA, ids=[c.key for c in CRITERIA])
def test_criterion(criterion, capsys):
    report = criterion.run(seed=ACCEPTANCE_SEED, workers=1, scale=1.0)
    verdict = "PASS" if report.passed else "FAIL"
    with capsys.disabled():
        print(f"{verdict} {criterion.key}: {criterion.title} ({report.runtime_ms} ms)")
        if not report.passed:
            print(f"     observed  = {report.observed}")
            print(f"     thresholds = {report.thresholds}")
    assert report.passed, f"acceptance criterion {criterion.key} failed"


# A criterion holds each statistic it adopts from an experiment to the limit
# that experiment's report sets, and a control's to its negation.  Each case
# moves one limit of the experiment's reports and names where the criterion
# must carry it.
_MOVED_LIMITS = [
    (
        "independence", "verify_conditional_independence", "max_cell_sigma", {"max": 2.5},
        {"max_cell_sigma": {"max": 2.5}, "control_max_cell_sigma": {"gt": 2.5}},
    ),
    (
        "independence", "verify_conditional_independence", "max_marginal_sigma", {"max": 2.5},
        {"max_marginal_sigma": {"max": 2.5}},
    ),
    (
        "whirly", "whirly_search", "union_margin", {"gt": 0.7},
        {"union_margin": {"gt": 0.7}, "control_union_margin": {"max": 0.7}},
    ),
    (
        "sharpness", "sharpness_check", "inverse_dev", {"max": 0.02},
        {"wide_inverse_dev": {"max": 0.02}, "tight_inverse_dev": {"max": 0.02}},
    ),
    (
        "sharpness", "sharpness_check", "combined_dev", {"max": 0.1},
        {"wide_combined_dev": {"max": 0.1}, "tight_combined_dev": {"max": 0.1}},
    ),
    ("convolution", "verify_convolution", "sigma_difference", {"max": 2.5}, {"max_sigma": {"max": 2.5}}),
]


@pytest.mark.parametrize(
    "key, experiment, statistic, limit, carried", _MOVED_LIMITS, ids=[f"{c[0]}-{c[2]}" for c in _MOVED_LIMITS]
)
def test_limits_follow_the_experiment(monkeypatch, key, experiment, statistic, limit, carried):
    run = getattr(acceptance_module, experiment)

    def moved(*args, **kwargs):
        report = run(*args, **kwargs)
        return dataclasses.replace(report, thresholds={**report.thresholds, statistic: limit})

    monkeypatch.setattr(acceptance_module, experiment, moved)
    criterion = next(c for c in CRITERIA if c.key == key)
    report = criterion.run(seed=ACCEPTANCE_SEED, workers=1, scale=0.1)
    assert {name: report.thresholds[name] for name in carried} == carried
