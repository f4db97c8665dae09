"""Acceptance gate: every release criterion must pass at full scale.

Each criterion gets its own test case and prints one PASS/FAIL line outside
the capture machinery so the verdicts are visible in the run log even when
everything is green.
"""

import pytest

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


# The continuity criterion's observed values at scale 0.1 and the pinned seed.
# Its estimates take the read path, so a change to the read kernels that moves
# any count moves these; a change that alters the draws on purpose re-records
# them and says so in CHANGES.md.
_QUICK_CONTINUITY = {
    "annulus_mass": 0.030000000000000082,
    "band_half_width": 0.024735863583629957,
    "delta": 0.0031933862571152443,
    "max_pair_distance": 0.0031878500897458773,
    "max_symdiff_clearance": 0.0026610232555810413,
    "max_symdiff_estimate": 0.0015,
}


def test_quick_continuity_is_pinned():
    criterion = next(c for c in CRITERIA if c.key == "continuity")
    report = criterion.run(seed=ACCEPTANCE_SEED, workers=1, scale=0.1)
    assert report.observed == _QUICK_CONTINUITY


# The convolution and positivity criteria's observed values at scale 0.1 and
# the pinned seed.  Convolution's blocks draw into reused buffers and compute
# the translated sets in place, which must leave every bit of these
# unchanged; positivity's hit counts are binomial draws on exact measures.
_QUICK_CONVOLUTION = {
    "max_sigma": 0.887539802727711,
    "max_anchor_deviation": 0.000830699999999962,
    "anchor": 0.3934693,
}

_QUICK_POSITIVITY = {
    "base_measure": 0.418,
    "fraction_positive": 1.0,
    "min_translated": 0.001,
    "median_translated": 0.507,
    "delta_at_50": 0.507,
    "delta_at_75": 0.20950000000000002,
    "delta_at_87": 0.019273103968574,
    "delta_at_95": 0.005750000000000004,
}


@pytest.mark.parametrize(
    "key, observed", [("convolution", _QUICK_CONVOLUTION), ("positivity", _QUICK_POSITIVITY)]
)
def test_quick_translated_measures_are_pinned(key, observed):
    criterion = next(c for c in CRITERIA if c.key == key)
    report = criterion.run(seed=ACCEPTANCE_SEED, workers=1, scale=0.1)
    assert report.observed == observed
