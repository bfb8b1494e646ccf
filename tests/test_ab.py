"""The summary of ``tools/ab.py`` on canned benchmark result lines, and the
refusals of its command line; no benchmark runs here."""

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


def _pairs(rates, p50=1.0):
    """Pairs of (parent, change) rates, with one fixed p50 on both sides."""
    return [(_line(p, p50), _line(c, p50)) for p, c in rates]


def test_gain_needs_nine_of_ten_wins_beyond_the_parents_spread():
    # parent 100..109 has q3 - q1 = 5.5; the change is 10 higher per pair
    rates = [(100 + i, 110 + i) for i in range(10)]
    assert ab.verdicts(END_TO_END, _pairs(rates)) == [
        "instances_per_s: gain", "verdict_ms_p50: unresolved"]
    # one loss of ten still wins 9/10
    lost = [(109, 100)] + rates[1:]
    assert ab.verdicts(END_TO_END, _pairs(lost))[0] == "instances_per_s: gain"
    # two losses of ten do not
    lost2 = [(109, 100), (108, 100)] + rates[2:]
    assert ab.verdicts(END_TO_END, _pairs(lost2))[0] == "instances_per_s: unresolved"


def test_winning_every_pair_within_the_spread_is_unresolved():
    # the change wins all ten by 2, less than the parent's q3 - q1 of 5.5
    rates = [(100 + i, 102 + i) for i in range(10)]
    assert ab.verdicts(END_TO_END, _pairs(rates))[0] == "instances_per_s: unresolved"


def test_worse_beyond_the_bound_in_either_direction():
    # rate 15% bound: a median 20% lower is worse, 10% lower is not
    assert ab.verdicts(END_TO_END, _pairs([(100, 80)] * 3))[0] == "instances_per_s: worse"
    assert ab.verdicts(END_TO_END, _pairs([(100, 90)] * 3))[0] == \
        "instances_per_s: unresolved"
    # p50 is lower-is-better with a 20% bound: 1.3 against 1.0 is worse, and
    # 0.7 against 1.0 on a flat parent is a gain
    slower = [(_line(100, 1.0), _line(100, 1.3))] * 3
    faster = [(_line(100, 1.0), _line(100, 0.7))] * 3
    assert ab.verdicts(END_TO_END, slower)[1] == "verdict_ms_p50: worse"
    assert ab.verdicts(END_TO_END, faster)[1] == "verdict_ms_p50: gain"


def test_verdicts_refuse_like_the_summary():
    with pytest.raises(ab.Refused, match="run not correct"):
        ab.verdicts(END_TO_END, [(_line(100, 1.0, correct=False), _line(100, 1.0))])
    with pytest.raises(ab.Refused):
        ab.verdicts(END_TO_END, [])


@pytest.mark.parametrize("options,message", [
    (["--workload", "egz-shift", "--pairs", "1", "--seconds", "1"],
     "unknown workload 'egz-shift'; BENCHMARK.json has drisko-threshold, "),
    (["--workload", "egz-shifts", "--pairs", "0", "--seconds", "1"],
     "--pairs and --seconds must be positive"),
    (["--workload", "egz-shifts", "--pairs", "1", "--seconds", "0"],
     "--pairs and --seconds must be positive"),
])
def test_main_refuses_bad_options_before_any_run(monkeypatch, capsys, options, message):
    def refuse(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(ab.subprocess, "run", refuse)
    with pytest.raises(SystemExit) as info:
        ab.main(["parent", "change", "--seed", "1", *options])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
