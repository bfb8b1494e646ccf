"""The summary of ``tools/ab.py`` on canned benchmark result lines; no
benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import ab  # noqa: E402

END_TO_END = [
    {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.15},
    {"name": "verdict_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
]


def _line(rate, p50, correct=True, failed=0):
    return json.dumps({
        "correct": correct, "attempted": 100, "failed": failed,
        "metrics": {"instances_per_s": {"value": rate, "unit": "1/s"},
                    "verdict_ms_p50": {"value": p50, "unit": "ms"}}})


def test_medians_quartiles_and_pairs_won():
    pairs = [(_line(100, 1.0), _line(120, 0.8)),
             (_line(102, 1.1), _line(125, 1.1)),
             (_line(98, 0.9), _line(97, 1.0)),
             (_line(104, 1.2), _line(130, 0.7))]
    rate, p50 = ab.summarize(END_TO_END, pairs)
    # statistics.quantiles(n=4) of 98, 100, 102, 104 is 98.5, 101, 103.5
    assert rate == ("instances_per_s [1/s, higher is better]: "
                    "parent 101 (q1 98.5, q3 103.5); "
                    "change 122.5 (q1 102.75, q3 128.75); "
                    "change won 3/4; median +21.3% of the parent's")
    # a tie (1.1 against 1.1) counts for neither side
    assert p50.endswith("change won 2/4; median -14.3% of the parent's")
    assert p50.startswith("verdict_ms_p50 [ms, lower is better]: parent 1.05 ")


def test_one_pair_is_its_own_quartiles():
    rate, _ = ab.summarize(END_TO_END, [(_line(100, 1.0), _line(90, 1.0))])
    assert "parent 100 (q1 100, q3 100)" in rate
    assert "change won 0/1; median -10.0%" in rate


@pytest.mark.parametrize("bad,message", [
    (_line(100, 1.0, correct=False), "run not correct"),
    (_line(100, 1.0, failed=2), "run failed 2 operations"),
])
def test_refuses_incorrect_or_failed_runs(bad, message):
    good = _line(100, 1.0)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(ab.Refused, match=message):
            ab.summarize(END_TO_END, [(good, good), pair])


def test_refuses_no_pairs():
    with pytest.raises(ab.Refused):
        ab.summarize(END_TO_END, [])
