import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import rainbowkit
from rainbowkit import ColoredPath, campaigns, cli, reductions
from rainbowkit.cli import main
from rainbowkit.errors import Meter


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_rainbow_infeasible_exit_one(self, tmp_path, capsys):
        fixture = tmp_path / "c6.json"
        assert main(["generate", "--canonical", "c2n", "--n", "3",
                     "--out", str(fixture)]) == 0
        capsys.readouterr()
        code, out, _ = run_cli(capsys, "solve", "rainbow", "--input",
                               str(fixture), "--target", "3")
        assert code == 1
        assert out.strip() == "infeasible"

    def test_rainbow_witness(self, tmp_path, capsys):
        fixture = tmp_path / "fam.json"
        fixture.write_text(json.dumps([[[0, 0]], [[1, 1]]]))
        code, out, _ = run_cli(capsys, "solve", "rainbow", "--input",
                               str(fixture), "--target", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 2

    def test_egz_inline(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "egz", "--n", "3",
                               "--elements", "1,1,1,1,1")
        assert code == 0
        assert json.loads(out) == {"elements": [1, 1, 1]}

    def test_transversal_schema_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": 1, "cols": 2, "cells": [[1, 1]]}))
        code, out, err = run_cli(capsys, "solve", "transversal", "--input", str(bad))
        assert code == 2
        assert out == ""
        assert "repeats symbol" in err

    def test_repeated_edge_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([[[0, 0], [0, 0]], [[1, 1]], [[0, 1]]]))
        code, out, err = run_cli(capsys, "solve", "rainbow", "--input", str(bad),
                                 "--target", "2")
        assert (code, out) == (2, "")
        assert err == "error: family[0][1]: repeats the edge family[0][0]\n"

    @pytest.mark.parametrize("content,message", [
        (b"\xff\xfe[[", "not UTF-8 text at byte 0: invalid start byte"),
        (b"[" * 100000, "JSON nested too deeply"),
    ], ids=["not-utf8", "deep"])
    def test_unreadable_json_exit_two(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out, err = run_cli(capsys, "solve", "rainbow", "--input", str(bad),
                                 "--target", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {message}\n"

    def test_rainbow_budget_exit_three(self, tmp_path, capsys, monkeypatch):
        fixture = tmp_path / "c10.json"
        assert main(["generate", "--canonical", "c2n", "--n", "5",
                     "--out", str(fixture)]) == 0
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "100")
        code, out, err = run_cli(capsys, "solve", "rainbow", "--input",
                                 str(fixture), "--target", "5")
        assert (code, out) == (3, "")
        assert err == "budget: step budget exhausted\n"

    def test_mcpath(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps([[["s", 0, "t"]], [["s", 0, "t"]]]))
        code, out, _ = run_cli(capsys, "solve", "mcpath", "--input", str(net))
        assert code == 0
        assert json.loads(out) == {"nodes": ["s", 0, "t"], "colors": [0, 1]}

    def test_mcpath_colors_count_empty_groups(self, tmp_path, capsys):
        net = tmp_path / "net.json"
        net.write_text(json.dumps([[], [["s", 0, "t"]], [], [["s", 0, "t"]], []]))
        code, out, _ = run_cli(capsys, "solve", "mcpath", "--input", str(net))
        assert code == 0
        assert json.loads(out) == {"nodes": ["s", 0, "t"], "colors": [1, 3]}

    def test_egz_a_thousand_edges_deep(self, tmp_path, capsys):
        # the search's depth is its 1,000 matched edges, past the
        # interpreter's recursion limit
        fixture = tmp_path / "zeros.json"
        fixture.write_text(json.dumps({"n": 1000, "elements": [0] * 1999}))
        code, out, _ = run_cli(capsys, "solve", "egz", "--input", str(fixture))
        assert code == 0
        assert json.loads(out) == {"elements": [0] * 1000}

    def test_mcpath_a_thousand_contractions_deep(self, tmp_path, capsys):
        # groups s->k->t for k < 1000 and one path s->0->...->999->t: the
        # direct edge appears only after 1,000 contractions
        groups = [[["s", k, "t"]] for k in range(1000)] + [[["s", *range(1000), "t"]]]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(groups))
        code, out, _ = run_cli(capsys, "solve", "mcpath", "--input", str(net))
        assert code == 0
        found = json.loads(out)
        witness = ColoredPath(tuple(found["nodes"]), tuple(found["colors"]))
        network = rainbowkit.build_family(
            [rainbowkit.make_path(p) for p in g] for g in groups)
        assert witness.target == "t" and rainbowkit.colored_path_conforms(witness, network)

    def test_mcpath_budget_exit_three(self, tmp_path, capsys, monkeypatch):
        # six copies of one path through six inner nodes: no witness, and a
        # search of thousands of steps to refute it
        net = tmp_path / "net.json"
        net.write_text(json.dumps([[["s", *range(6), "t"]]] * 6))
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "100")
        code, out, err = run_cli(capsys, "solve", "mcpath", "--input", str(net))
        assert (code, out, err) == (3, "", "budget: step budget exhausted\n")

    def test_mcpath_charge_at_the_budget_runs(self, tmp_path, capsys, monkeypatch):
        # three copies of s,0,1,2,t: 3 + 6 + 6 extensions, none reaching t
        net = tmp_path / "net.json"
        net.write_text(json.dumps([[["s", 0, 1, 2, "t"]]] * 3))
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "15")
        assert run_cli(capsys, "solve", "mcpath", "--input", str(net)) == (
            1, "infeasible\n", "")
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "14")
        assert run_cli(capsys, "solve", "mcpath", "--input", str(net)) == (
            3, "", "budget: step budget exhausted\n")

    @pytest.mark.parametrize("witness", [
        ColoredPath(("s", 0, "t"), (0, 0)),
        ColoredPath(("s", 0, "t"), (0, 2)),
        ColoredPath(("s", 0), (0,)),
    ], ids=["repeated-color", "no-such-group", "stops-short"])
    def test_mcpath_nonconforming_witness_exit_four(self, tmp_path, capsys,
                                                    monkeypatch, witness):
        net = tmp_path / "net.json"
        net.write_text(json.dumps([[["s", 0, "t"]], [["s", 0, "t"]]]))
        monkeypatch.setattr(cli, "find_multicolored_st_path", lambda *args: witness)
        code, out, err = run_cli(capsys, "solve", "mcpath", "--input", str(net))
        assert (code, out) == (4, "")
        assert err.startswith("internal invariant failure: ")
        assert err.count("\n") == 1


class TestVerify:
    def test_small_campaign_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "drisko", "--n", "2",
                               "--samples", "25", "--seed", "7")
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "drisko"
        assert report["instances_checked"] == 25
        assert report["violations"] == 0
        assert report["seed"] == 7

    def test_exhaustive_egz_count(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "egz", "--n", "3", "--exhaustive")
        assert code == 0
        report = json.loads(out)
        # sizes 1, 3, 5 over moduli 1..3: 1 + 4 + 21 multisets
        assert report["instances_checked"] == 26

    def test_budget_exit_three(self, capsys, monkeypatch):
        # exhaustive runs charge their enumeration size before checking
        for budget, total, argv in (
                ("10", 21, ("egz", "--n", "6", "--exhaustive")),
                ("1000", 1140, ("drisko", "--n", "2", "--exhaustive")),
                ("500", 816, ("dichotomy", "--n", "3")),
                ("100", 171, ("extremal", "--n", "2", "--exhaustive"))):
            monkeypatch.setenv("RAINBOWKIT_BUDGET", budget)
            code, out, err = run_cli(capsys, "verify", *argv)
            assert (code, out) == (3, ""), argv
            assert err == f"budget: {total} multisets exceed the budget\n"

    @pytest.mark.parametrize("argv,total", [
        (("drisko", "--n", "1000000"), "1999999000000 edges"),
        (("extremal", "--n", "100000"), "19999800000 edges"),
        (("general", "--n", "1000000000"), "9000000000 edges"),
        (("bgs", "--n", "1000000000"), "1499999998000000000 edges"),
        (("counting", "--n", "1000000000"), "1000000000 inner nodes"),
        (("transversal", "--n", "1000000000"), "1999999999000000000 cells"),
    ], ids=["drisko", "extremal", "general", "bgs", "counting", "transversal"])
    def test_oversized_sample_exit_three(self, capsys, argv, total):
        # the largest instance a run can draw is charged before the first
        # draw, so nothing of that size is ever built
        code, out, err = run_cli(capsys, "verify", *argv, "--samples", "1")
        assert (code, out) == (3, "")
        assert err == f"budget: {total} exceed the budget\n"

    def test_oversized_sharpness_exit_three(self, capsys, monkeypatch):
        # sharpness draws nothing, so it takes no --samples; the split cycles
        # up to n are charged before the first is built
        def refuse(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(campaigns, "canonical_cycle_family", refuse)
        code, out, err = run_cli(capsys, "verify", "sharpness", "--n", "1000000000")
        assert (code, out) == (3, "")
        assert err == "budget: 1999999998000000000 edges exceed the budget\n"

    @pytest.mark.parametrize("argv,least", [
        (("egz", "--n", "1000000000"), 999999999),
        (("egz-extremal", "--n", "1000000000"), 999999999),
        (("drisko", "--n", "1000000000", "--exhaustive"), 1999999999),
        (("extremal", "--n", "3000", "--exhaustive"), 5998),
    ], ids=["egz", "egz-extremal", "drisko", "extremal"])
    def test_astronomical_enumeration_exit_three(self, capsys, argv, least):
        # an enumeration of k-multisets of kinds items holds at least
        # 2**min(kinds - 1, k) of them; past the budget's bits that bound
        # refuses the run before the count itself is computed
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert err == f"budget: 2**{least} or more multisets exceed the budget\n"

    @pytest.mark.parametrize("classifier,argv", [
        ("classify_family", ("extremal", "--n", "2", "--exhaustive")),
        ("classify_multiset", ("egz-extremal", "--n", "3", "--exhaustive")),
    ])
    def test_classifier_budget_exit_three(self, capsys, monkeypatch, classifier, argv):
        monkeypatch.setattr(campaigns, classifier,
                            lambda instance, budget: Meter(0).spend())
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (3, "", "budget: step budget exhausted\n")

    @pytest.mark.parametrize("argv", [
        ("drisko", "--n", "0", "--samples", "0"),
        ("drisko", "--n", "2", "--samples", "0"),
        ("egz", "--n", "0"),
        ("dichotomy", "--n", "-1"),
        ("sharpness", "--n", "1"),
        ("bgs", "--n", "1"),
        ("extremal", "--n", "1", "--exhaustive"),
        ("sharpness", "--n", "3", "--samples", "5"),
        ("transversal", "--n", "2", "--exhaustive"),
        ("egz", "--n", "3", "--seed", "9"),
        ("drisko", "--n", "2", "--exhaustive", "--seed", "9"),
        ("sharpness", "--n", "3", "--samples", "5", "--exhaustive", "--seed", "9"),
        ("transversal", "--n", "2", "--samples", "5", "--exhaustive"),
    ])
    def test_out_of_range_parameters_exit_two(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_deterministic_report_modulo_elapsed(self, capsys):
        args = ("verify", "general", "--samples", "40", "--seed", "11")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        first, second = json.loads(out1), json.loads(out2)
        first.pop("elapsed")
        second.pop("elapsed")
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestGenerate:
    def test_round_trip_family(self, tmp_path, capsys):
        out_file = tmp_path / "fam.json"
        code, _, _ = run_cli(capsys, "generate", "--family-uniform", "2,3,3",
                             "--seed", "42", "--out", str(out_file))
        assert code == 0
        code, out, _ = run_cli(capsys, "solve", "rainbow", "--input",
                               str(out_file), "--target", "2")
        assert code == 0
        assert json.loads(out)["size"] == 2

    def test_round_trip_every_kind(self, tmp_path, capsys):
        cases = [
            (("--network", "4,2,2"), ("solve", "mcpath")),
            (("--multiset", "3,5"), ("solve", "egz")),
            (("--matrix", "3,2,3"), ("solve", "transversal")),
        ]
        for gen_args, solve_args in cases:
            out_file = tmp_path / (gen_args[0].strip("-") + ".json")
            code, _, _ = run_cli(capsys, "generate", *gen_args, "--seed", "5",
                                 "--out", str(out_file))
            assert code == 0
            code, _, _ = run_cli(capsys, *solve_args, "--input", str(out_file))
            assert code in (0, 1)

    @pytest.mark.parametrize("flag,value", [
        ("--family-uniform", "2,3"),
        ("--family-uniform", "2,3,3,9"),
        ("--network", "5"),
        ("--multiset", "3"),
        ("--matrix", "3,2"),
    ])
    def test_wrong_argument_count_exit_two(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "generate", flag, value)
        assert code == 2
        assert out == ""
        assert f"{flag}: expected" in err

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(capsys, "generate", "--canonical", "c2n", "--n", "3",
                                 "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,total", [
        (("--multiset", "3,1000000000"), "1000000000 residues"),
        (("--canonical", "c2n", "--n", "100000"), "19999800000 edges"),
        (("--network", "1,20000,1"), "400020000 steps"),
        (("--network", "1000000000,1,1"), "1000000001 steps"),
        (("--family-uniform", "4000,4000,4000"), "16000000 edges"),
        (("--family-mixed", "6000000,6000000", "--side", "6000000"), "12000000 edges"),
        (("--matrix", "4000,4000,4000"), "16000000 cells"),
    ], ids=["multiset", "canonical", "network-groups", "network-inner",
            "family-uniform", "family-mixed", "matrix"])
    def test_oversized_spec_exit_three(self, capsys, monkeypatch, argv, total):
        # sizes are charged before the generator runs
        def refuse(*args):
            raise AssertionError("generation started")

        monkeypatch.setattr(cli, "generate", refuse)
        monkeypatch.setattr(cli, "canonical_cycle_family", refuse)
        code, out, err = run_cli(capsys, "generate", *argv)
        assert (code, out) == (3, "")
        assert err == f"budget: {total} exceed the budget\n"

    def test_closed_stdout_exit_two(self):
        # the output (about 1.3 MB) outgrows the pipe, and the reader stops
        # after 100 bytes
        src = Path(rainbowkit.__file__).resolve().parents[1]
        child = subprocess.Popen(
            [sys.executable, "-m", "rainbowkit", "generate", "--network", "100000,1,100000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        _, err = child.communicate(timeout=60)
        assert child.returncode == 2
        assert err.decode() == "error: cannot write stdout: [Errno 32] Broken pipe\n"

    def test_charge_at_the_budget_generates(self, capsys, monkeypatch):
        # (2n - 2) * n = 24 edges for n = 4: at the budget it runs, one below
        # it is refused
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "24")
        assert run_cli(capsys, "generate", "--canonical", "c2n", "--n", "4")[0] == 0
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "23")
        assert run_cli(capsys, "generate", "--canonical", "c2n", "--n", "4") == (
            3, "", "budget: 24 edges exceed the budget\n")

    def test_infeasible_spec_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--family-uniform", "4,1,3")
        assert code == 2
        assert "does not fit" in err

    def test_canonical_matches_library(self, capsys):
        from rainbowkit import canonical_cycle_family
        from rainbowkit.jsonio import family_to_obj
        code, out, _ = run_cli(capsys, "generate", "--canonical", "c2n", "--n", "4")
        assert code == 0
        assert json.loads(out) == family_to_obj(canonical_cycle_family(4))


class TestClassify:
    def test_multiset_inline(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "multiset", "--n", "3",
                               "--elements", "0,0,1,1")
        assert code == 0
        assert json.loads(out) == {"verdict": "extremal-pair", "a": 0, "b": 1}

    def test_family_file(self, tmp_path, capsys):
        fixture = tmp_path / "c6.json"
        run_cli(capsys, "generate", "--canonical", "c2n", "--n", "3",
                "--out", str(fixture))
        code, out, _ = run_cli(capsys, "classify", "family", "--input", str(fixture))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "extremal-cycle"
        assert payload["cycle"] == [["L", 0], ["R", 0], ["L", 1], ["R", 1],
                                    ["L", 2], ["R", 2]]
        assert payload["even_colors"] == [0, 1]
        assert payload["odd_colors"] == [2, 3]

    def test_wrong_size_is_input_error(self, tmp_path, capsys):
        fixture = tmp_path / "bad.json"
        fixture.write_text(json.dumps([[[0, 0]]]))
        code, _, err = run_cli(capsys, "classify", "family", "--input", str(fixture))
        assert code == 2
        assert "2n-2" in err

    def test_odd_member_count_is_input_error(self, tmp_path, capsys):
        fixture = tmp_path / "odd.json"
        fixture.write_text(json.dumps([[[0, 0], [1, 1]], [[0, 1], [1, 0]],
                                       [[0, 0], [1, 1]]]))
        code, out, err = run_cli(capsys, "classify", "family", "--input", str(fixture))
        assert (code, out) == (2, "")
        assert err == "error: need a non-empty family of 2n-2 members, got 3\n"

    def test_short_multiset_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "classify", "multiset", "--n", "3",
                                 "--elements", "0,0")
        assert (code, out) == (2, "")
        assert err == "error: need exactly 4 elements, got 2\n"


class TestShiftFamilyCharge:
    def test_fewer_than_n_residues_infeasible_at_once(self, capsys):
        # 100 residues hold no subset of 20000, so no shift family is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "solve", "egz", "--n", "20000",
                                 "--elements", ",".join(map(str, range(100))))
        assert (code, out, err) == (1, "infeasible\n", "")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("verb", [("solve", "egz"), ("classify", "multiset")],
                             ids=["solve", "classify"])
    @pytest.mark.parametrize("inline", [False, True], ids=["input", "inline"])
    def test_oversized_modulus_exit_three(self, tmp_path, capsys, monkeypatch,
                                          verb, inline):
        # 198 residues mod 100, all 100 of them present: 100 edges per
        # distinct residue are charged before the shift family is built
        def refuse(*args):
            raise AssertionError("shift family built")

        monkeypatch.setattr(reductions, "egz_family", refuse)
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "9999")
        elements = [*range(100), *range(98)]
        if inline:
            source = ("--n", "100", "--elements", ",".join(map(str, elements)))
        else:
            fixture = tmp_path / "multiset.json"
            fixture.write_text(json.dumps({"n": 100, "elements": elements}))
            source = ("--input", str(fixture))
        code, out, err = run_cli(capsys, *verb, *source)
        assert (code, out) == (3, "")
        assert err == "budget: 10000 edges exceed the budget\n"

    @pytest.mark.parametrize("argv,edges", [
        (("solve", "egz", "--n", "3", "--elements", "0,0,0,1,1"), 6),
        (("classify", "multiset", "--n", "3", "--elements", "0,0,0,1"), 6),
    ], ids=["solve", "classify"])
    def test_charge_at_the_budget_runs(self, capsys, monkeypatch, argv, edges):
        # the search behind each verb runs under the same budget and takes
        # 4 steps here, fewer than the 6 edges charged
        monkeypatch.setenv("RAINBOWKIT_BUDGET", str(edges))
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setenv("RAINBOWKIT_BUDGET", str(edges - 1))
        assert run_cli(capsys, *argv) == (
            3, "", f"budget: {edges} edges exceed the budget\n")


class TestSearchBudget:
    """RAINBOWKIT_BUDGET bounds the rainbow search behind every search verb,
    not only ``solve rainbow``: one step per search state."""

    @pytest.mark.parametrize("argv,steps,code", [
        (("classify", "family", "--input", "{c10}"), 501, 0),
        (("classify", "multiset", "--n", "5", "--elements", "1,1,1,1,3,3,3,3"), 501, 0),
        (("solve", "egz", "--n", "5", "--elements", "1,1,1,1,3,3,3,3"), 501, 1),
        (("solve", "transversal", "--input", "{latin2}"), 5, 1),
        (("solve", "transversal", "--input", "{latin3}"), 4, 0),
    ], ids=["classify-family", "classify-multiset", "solve-egz",
            "solve-transversal-none", "solve-transversal"])
    def test_search_beyond_budget_exit_three(self, tmp_path, capsys, monkeypatch,
                                             argv, steps, code):
        files = {"c10": tmp_path / "c10.json", "latin2": tmp_path / "latin2.json",
                 "latin3": tmp_path / "latin3.json"}
        assert main(["generate", "--canonical", "c2n", "--n", "5",
                     "--out", str(files["c10"])]) == 0
        files["latin2"].write_text(json.dumps(
            {"rows": 2, "cols": 2, "cells": [[0, 1], [1, 0]]}))
        files["latin3"].write_text(json.dumps(
            {"rows": 3, "cols": 3, "cells": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
        argv = [a.format(**files) for a in argv]
        monkeypatch.setenv("RAINBOWKIT_BUDGET", str(steps))
        assert run_cli(capsys, *argv)[0] == code
        monkeypatch.setenv("RAINBOWKIT_BUDGET", str(steps - 1))
        assert run_cli(capsys, *argv) == (3, "", "budget: step budget exhausted\n")

    @pytest.mark.parametrize("argv", [
        ("classify", "multiset", "--n", "5", "--elements", "0,0,0,0,1,1,1,1"),
        ("verify", "egz-extremal", "--n", "5"),
    ], ids=["classify", "verify"])
    def test_campaign_searches_under_the_same_budget(self, capsys, monkeypatch, argv):
        # verify egz-extremal --n 5 classifies this split 10-cycle among its
        # 495 multisets; refuting it takes 501 steps in both verbs
        monkeypatch.setenv("RAINBOWKIT_BUDGET", "500")
        assert run_cli(capsys, *argv) == (3, "", "budget: step budget exhausted\n")


class TestUnreadFlags:
    @pytest.mark.parametrize("argv,run,flag", [
        (("solve", "rainbow", "--input", "{family}", "--target", "1", "--n", "3"),
         "solve rainbow", "--n"),
        (("solve", "transversal", "--input", "{family}", "--target", "1"),
         "solve transversal", "--target"),
        (("solve", "egz", "--n", "3", "--elements", "0,1,1,2,2", "--target", "3"),
         "solve egz", "--target"),
        (("solve", "mcpath", "--input", "{family}", "--elements", "0"),
         "solve mcpath", "--elements"),
        (("solve", "egz", "--input", "{multiset}", "--n", "3"),
         "solve egz with --input", "--n"),
        (("classify", "multiset", "--input", "{multiset}", "--n", "3",
          "--elements", "0,0,1,1"), "classify multiset with --input", "--n"),
        (("classify", "multiset", "--input", "{multiset}", "--elements", "0,0,1,1"),
         "classify multiset with --input", "--elements"),
        (("classify", "family", "--input", "{family}", "--n", "3"),
         "classify family", "--n"),
        (("generate", "--family-uniform", "2,3,3", "--n", "3"),
         "generate without --canonical", "--n"),
        (("generate", "--canonical", "c2n", "--n", "3", "--side", "4"),
         "generate without --family-mixed", "--side"),
    ], ids=["solve-rainbow-n", "solve-transversal-target", "solve-egz-target",
            "solve-mcpath-elements", "solve-egz-input-n", "classify-multiset-input-n",
            "classify-multiset-input-elements", "classify-family-n",
            "generate-n", "generate-side"])
    def test_exit_two_naming_the_flag(self, tmp_path, capsys, argv, run, flag):
        files = {"family": tmp_path / "family.json", "multiset": tmp_path / "multiset.json"}
        files["family"].write_text(json.dumps([[[0, 0]], [[1, 1]]]))
        files["multiset"].write_text(json.dumps({"n": 3, "elements": [0, 0, 1, 1]}))
        argv = [arg.format(**files) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {run} ignores {flag}\n"


class TestListFlags:
    @pytest.mark.parametrize("argv,flag,value", [
        (("generate", "--side", "3", "--family-mixed"), "--family-mixed", "2,,3"),
        (("generate", "--family-uniform"), "--family-uniform", "2,,3,3"),
        (("generate", "--network"), "--network", "4,2,,2"),
        (("generate", "--multiset"), "--multiset", "3,5,"),
        (("generate", "--matrix"), "--matrix", ",3,2,3"),
        (("solve", "egz", "--n", "3", "--elements"), "--elements", "0,1,,2"),
        (("classify", "multiset", "--n", "3", "--elements"), "--elements", "0,0,,1,1"),
    ], ids=["family-mixed", "family-uniform", "network", "multiset", "matrix",
            "solve-elements", "classify-elements"])
    def test_empty_item_exit_two(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, value)
        assert (code, out) == (2, "")
        assert err == f"error: {flag}: empty item in comma-separated list {value!r}\n"

    def test_empty_string_is_the_empty_list(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "egz", "--n", "2", "--elements", "")
        assert (code, out) == (1, "infeasible\n")


# instance files for the fuzz below: instances of each kind, the same with
# one value anywhere in them replaced by any JSON value, and any text
_scalars = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(),
                     st.sampled_from(["s", "t", "", "n"]))
_json = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=5),
    st.dictionaries(st.sampled_from(["n", "elements", "rows", "cols", "cells"]),
                    inner, max_size=5)), max_leaves=10)


def _spots(obj, at=()):
    """The position of ``obj`` and of every value inside it."""
    yield at
    if isinstance(obj, (list, dict)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _spots(value, (*at, key))


def _replaced(obj, at, value):
    """A copy of ``obj`` with ``value`` at the position ``at``."""
    if not at:
        return value
    copy = list(obj) if isinstance(obj, list) else dict(obj)
    copy[at[0]] = _replaced(obj[at[0]], at[1:], value)
    return copy


def _files(instances):
    corrupted = instances.flatmap(lambda obj: st.builds(
        _replaced, st.just(obj), st.sampled_from(list(_spots(obj))), _json))
    return st.one_of(instances, corrupted, _json).map(json.dumps) | st.text(max_size=12)


# 2n-2 or 2n-1 perfect matchings on n vertices a side
_family = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.permutations(range(n)).map(lambda p: [[i, p[i]] for i in range(n)]),
    min_size=2 * n - 2, max_size=2 * n - 1))
_network = st.lists(st.lists(
    st.lists(st.integers(0, 3), max_size=3, unique=True).map(lambda mid: ["s", *mid, "t"]),
    max_size=3), max_size=5)
_matrix = st.integers(1, 3).flatmap(lambda cols: st.fixed_dictionaries({
    "rows": st.just(2 * cols - 1), "cols": st.just(cols),
    "cells": st.lists(st.lists(st.integers(0, cols + 1), min_size=cols, max_size=cols,
                               unique=True), min_size=2 * cols - 1, max_size=2 * cols - 1)}))
_multiset = st.integers(1, 5).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n), "elements": st.lists(st.integers(0, n - 1), min_size=2 * n - 2,
                                          max_size=2 * n - 1)}))
_runs = st.one_of(
    *(st.tuples(targets.map(lambda t: ("solve", "rainbow", "--target", t)), _files(_family))
      for targets in (st.sampled_from("1234"), st.text(max_size=3))),
    *(st.tuples(st.just(command), _files(instances)) for command, instances in (
        (("solve", "transversal"), _matrix),
        (("solve", "egz"), _multiset),
        (("solve", "mcpath"), _network),
        (("classify", "family"), _family),
        (("classify", "multiset"), _multiset))))


class TestMalformedInstanceFiles:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(run=_runs)
    def test_every_file_maps_to_an_exit_code(self, tmp_path_factory, run):
        command, text = run
        instance = tmp_path_factory.getbasetemp() / "instance.json"
        instance.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"RAINBOWKIT_BUDGET": "2"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([*command, "--input", str(instance)])
            except SystemExit as exc:  # argparse refusing a flag value
                code = exc.code
        assert code in (0, 1, 2, 3), (code, err.getvalue())


# flag values for the fuzz below: mostly well-formed numbers, zero, negative,
# small and huge, sometimes malformed; flags a run would not read are rare
_numbers = st.one_of(st.integers(-2, 4), st.sampled_from([13, 3000, 10**9, 10**18]))
_values = st.one_of(_numbers, _numbers, _numbers,
                    st.sampled_from(["", "x", "1.5", "-"])).map(str)
_rarely = st.integers(0, 5).map(lambda draw: draw == 0)
_SAMPLED = {"drisko", "general", "bgs", "extremal", "counting", "transversal"}
_EXHAUSTIVE = {"drisko", "extremal", "egz", "egz-extremal"}


@st.composite
def _verify_argv(draw):
    theorem = draw(st.sampled_from(campaigns.THEOREMS))
    argv = ["verify", theorem]
    if draw(st.booleans()):
        argv += ["--n", draw(_values)]
    exhaustive = draw(st.booleans() if theorem in _EXHAUSTIVE else _rarely)
    if exhaustive:
        argv.append("--exhaustive")
    sampled = theorem in _SAMPLED and not exhaustive
    # the budget does not bound the sample count, so a run that would draw
    # the default thousand samples always gets a small count instead
    if sampled or draw(_rarely):
        argv += ["--samples", draw(st.sampled_from(["-1", "0", "1", "2", "x"]))]
    if draw(st.booleans() if sampled else _rarely):
        argv += ["--seed", draw(_values)]
    return argv


_SPEC_ITEMS = {"--family-uniform": 3, "--family-mixed": None, "--network": 3,
               "--multiset": 2, "--matrix": 3}


@st.composite
def _generate_argv(draw):
    kind = draw(st.sampled_from(["--canonical", *_SPEC_ITEMS]))
    if kind == "--canonical":
        argv = ["generate", kind, draw(st.sampled_from(["c2n", "c2n", "c3n"]))]
    else:
        count = _SPEC_ITEMS[kind]
        if count is None or draw(_rarely):
            count = draw(st.integers(0, 4))
        argv = ["generate", kind, ",".join(draw(st.lists(_values, min_size=count,
                                                         max_size=count)))]
    for flag, read in (("--n", kind == "--canonical"), ("--side", kind == "--family-mixed"),
                       ("--seed", True)):
        if draw(st.integers(0, 3).map(bool) if read else _rarely):
            argv += [flag, draw(_values)]
    return argv


class TestMalformedFlagValues:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(argv=st.one_of(_verify_argv(), _generate_argv()))
    def test_every_flag_value_maps_to_an_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"RAINBOWKIT_BUDGET": "300"}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing a flag value
                code = exc.code
        assert code in (0, 1, 2, 3), (code, err.getvalue())
