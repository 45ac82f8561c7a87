import json
import time

import pytest

from earring.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--json", *argv)
    assert err == ""
    return code, json.loads(out)


class TestSurvives:
    def test_base(self, capsys):
        code, out, _ = run_cli(capsys, "survives", "e")
        assert code == 0
        assert "verdict=True" in out

    def test_dead_word(self, capsys):
        code, out, _ = run_cli(capsys, "survives", "3")
        assert code == 0
        assert "verdict=False" in out

    def test_json(self, capsys):
        code, obj = run_json(capsys, "survives", "3")
        assert code == 0
        assert obj["command"] == "survives"
        assert obj["input"] == "3"
        assert obj["output"]["verdict"] is False
        assert obj["status"] == "ok"


class TestIsland:
    def test_none(self, capsys):
        code, out, _ = run_cli(capsys, "island", "e")
        assert code == 0
        assert "island=None" in out

    def test_anchor(self, capsys):
        code, out, _ = run_cli(capsys, "island", "1", "2", "1", "2")
        assert code == 0
        assert "island=1" in out


class TestEv:
    def test_base(self, capsys):
        code, obj = run_json(capsys, "ev", "e")
        assert code == 0
        assert obj["output"]["e_set"] == [1, 2]

    def test_non_surviving_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "ev", "3")
        assert code == 1
        assert "error" in out + err


class TestZpath:
    def test_island_one(self, capsys):
        code, obj = run_json(capsys, "zpath", "1")
        assert code == 0
        assert obj["output"]["word"] == "1"
        assert obj["output"]["z_path"] == ["1 2 1 2", "1 2 1 2 1"]
        assert obj["output"]["level"] == 2

    @pytest.mark.parametrize("json_flag", [True, False])
    def test_too_long_path_is_refused_quickly(self, capsys, json_flag):
        # island 41,501,135 (the word a_12) has two edge-path vertices of
        # 777,124,938 and 777,124,939 letters
        argv = ["--json"] if json_flag else []
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "zpath", "41501135")
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert "has 1554249877 letters" in out + err
        if json_flag:
            assert json.loads(out)["status"] == "error"


class TestCrosscheck:
    def test_clean(self, capsys):
        code, obj = run_json(capsys, "crosscheck", "1", "2")
        assert code == 0
        assert obj["output"]["disagreements"] == 0
        assert obj["output"]["examined"] > 0


class TestLift:
    def test_simple(self, capsys):
        code, obj = run_json(capsys, "lift", "3")
        assert code == 0
        assert obj["output"]["endpoint"] == "e"
        assert obj["output"]["steps"] == 1

    def test_with_start(self, capsys):
        code, obj = run_json(capsys, "lift", "--start", "1,2,1,2", "1")
        assert code == 0
        assert obj["output"]["start"] == "1 2 1 2"
        assert obj["output"]["endpoint"] == "1 2 1 2 1"

    def test_trace_text(self, capsys):
        code, out, _ = run_cli(capsys, "lift", "--trace", "1", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "1 tree 1"
        assert lines[1] == "2 tree 1 2"
        assert lines[-1] == "endpoint 1 2"

    def test_bad_start_vertex(self, capsys):
        code, out, err = run_cli(capsys, "lift", "--start", "3", "1")
        assert code == 1
        assert "error" in out + err


class TestInK:
    def test_member(self, capsys):
        code, out, _ = run_cli(capsys, "in-k", "3")
        assert code == 0
        assert "verdict=True" in out

    def test_non_member(self, capsys):
        code, out, _ = run_cli(capsys, "in-k", "1")
        assert code == 0
        assert "verdict=False" in out

    def test_invalid_letter(self, capsys):
        code, out, err = run_cli(capsys, "in-k", "0")
        assert code == 1


class TestWitness:
    def test_a3(self, capsys):
        code, obj = run_json(capsys, "witness", "3")
        assert code == 0
        assert obj["output"]["j"] == 9
        assert obj["output"]["verdict"] is True
        assert obj["output"]["midpoint"] == obj["output"]["midpoint"].strip()

    def test_null_word_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "witness", "1", "-1")
        assert code == 1
        assert "error" in out + err

    @pytest.mark.parametrize("json_flag", [True, False])
    def test_memory_error_is_an_error_exit(self, capsys, monkeypatch, json_flag):
        from earring import corefree

        def exhausted(w):
            raise MemoryError()

        monkeypatch.setattr(corefree, "witness_conjugator", exhausted)
        argv = ["--json"] if json_flag else []
        code, out, err = run_cli(capsys, *argv, "witness", "3")
        assert code == 1
        assert "Traceback" not in out + err
        if json_flag:
            obj = json.loads(out)
            assert obj["status"] == "error"
            assert obj["command"] == "witness"
            assert obj["message"] == "out of memory"
        else:
            assert err == "witness: error: out of memory\n"

    @pytest.mark.parametrize("json_flag", [True, False])
    def test_long_conjugator_answers_quickly(self, capsys, json_flag):
        # a_12 has index 41,501,135 and an anchor of 777,124,938 letters
        argv = ["--json"] if json_flag else []
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "witness", "12")
        assert time.perf_counter() - t0 < 1
        assert code == 0 and err == ""
        ray = "ray[777124938]"
        if json_flag:
            obj = json.loads(out)
            assert obj["status"] == "ok"
            assert obj["output"] == {"j": 41501135, "beta_length": 777124938,
                                     "midpoint": ray, "endpoint": f"{ray} 12 {ray}^-1",
                                     "verdict": True}
        else:
            assert out == (f"witness 12: j=41501135 beta_length=777124938 midpoint={ray} "
                           f"endpoint={ray} 12 {ray}^-1 verdict=True\n")

    def test_compact_form_past_the_spelling_bound(self, capsys, monkeypatch):
        from earring import cli, corefree
        _, spelled = run_json(capsys, "witness", "3")
        before = corefree.witness_conjugator((3,))
        monkeypatch.setattr(cli, "MAX_LIFT_LETTERS", 100)
        code, obj = run_json(capsys, "witness", "3")
        assert code == 0
        # the 52-letter midpoint is spelled, the 105-letter endpoint is not
        assert obj["output"] == dict(spelled["output"], endpoint="ray[52] 3 ray[52]^-1")
        after = corefree.witness_conjugator((3,))
        assert (after.j, after.beta, after.midpoint, after.turn, after.unwind, after.verdict) \
            == (before.j, before.beta, before.midpoint, before.turn, before.unwind,
                before.verdict)
        assert after.conjugate_endpoint.word == before.conjugate_endpoint.word
        code, out, _ = run_cli(capsys, "witness", "2,1,-1")
        assert code == 0
        assert out == ("witness 2 1 -1: j=78 beta_length=595 midpoint=ray[595] "
                       "endpoint=ray[596] ray[595]^-1 verdict=True\n")

    def test_trace_past_the_spelling_bound_is_refused(self, capsys):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, "witness", "--trace", "12")
        assert time.perf_counter() - t0 < 1
        assert code == 1
        assert "has 1554249877 steps" in out + err

    def test_trace_included_in_json(self, capsys):
        code, obj = run_json(capsys, "witness", "--trace", "3")
        assert code == 0
        trace = obj["output"]["trace"]
        assert len(trace) == 2 * obj["output"]["beta_length"] + 1


class TestScan:
    def test_weight_three(self, capsys):
        code, obj = run_json(capsys, "scan", "--max-weight", "3")
        assert code == 0
        assert obj["output"]["checked"] == 6
        assert obj["output"]["skipped"] == 2
        assert obj["output"]["failures"] == 0
        assert len(obj["output"]["entries"]) == 8

    def test_weight_too_small(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--max-weight", "1")
        assert code == 1

    def test_no_word_is_refused(self, capsys, monkeypatch):
        from earring import cli
        expected = "scan 4: checked=26 skipped=4 failures=0 entries=[30 words]\n"
        code, out, _ = run_cli(capsys, "scan", "--max-weight", "4")
        assert (code, out) == (0, expected)
        # past the first 8 words, |beta w beta^-1| > 100
        monkeypatch.setattr(cli, "MAX_LIFT_LETTERS", 100)
        code, out, _ = run_cli(capsys, "scan", "--max-weight", "4")
        assert (code, out) == (0, expected)
        code, obj = run_json(capsys, "scan", "--max-weight", "4")
        assert "refused" not in obj["output"]
        essential = [e["verdict"] for e in obj["output"]["entries"] if e["essential"]]
        assert essential == [True] * 26


class TestLeadingMinusCommaWords:
    """A comma word whose first letter is an inverse, such as -2,-1,-2,
    is a word and not an option, for every word subcommand."""

    def test_survives(self, capsys):
        code, obj = run_json(capsys, "survives", "-1,-2")
        assert code == 0
        assert obj["input"] == "-1 -2" and obj["output"]["verdict"] is True

    def test_island(self, capsys):
        code, out, _ = run_cli(capsys, "island", "-2,-1,-2")
        assert (code, out) == (0, "island -2 -1 -2: island=None\n")

    def test_ev(self, capsys):
        code, obj = run_json(capsys, "ev", "-1,-2")
        assert code == 0
        assert obj["output"]["e_set"] == [1, 2]

    def test_lift(self, capsys):
        code, obj = run_json(capsys, "lift", "--start", "1,2", "-1,3")
        assert code == 0
        assert obj["input"] == "-1 3"
        assert obj["output"]["endpoint"] == "1 2 -1"
        code, obj = run_json(capsys, "lift", "--start", "-1,2", "1")
        assert code == 0
        assert obj["output"]["start"] == "-1 2"

    def test_in_k(self, capsys):
        code, out, _ = run_cli(capsys, "in-k", "-3,1,-1")
        assert (code, out) == (0, "in-k -3 1 -1: verdict=True\n")

    def test_witness(self, capsys):
        # w_100 = a_2^-1 a_1^-1 a_2^-1
        code, obj = run_json(capsys, "witness", "-2,-1,-2")
        assert code == 0
        assert obj["input"] == "-2 -1 -2"
        assert obj["output"]["j"] == 100 and obj["output"]["verdict"] is True
        _, spaced = run_json(capsys, "witness", "-2", "-1", "-2")
        assert spaced == obj


class TestPoints:
    def test_q_point_vertex(self, capsys):
        code, obj = run_json(capsys, "q-point", "v:e")
        assert code == 0
        assert obj["output"]["point"] == "origin"

    def test_q_point_edge(self, capsys):
        code, obj = run_json(capsys, "q-point", "e:e:3:0.5")
        assert code == 0
        assert obj["output"]["circle"] == 3
        assert obj["output"]["t"] == 0.5
        x, y = obj["output"]["planar"]
        assert abs(x) < 1e-12 and abs(y - 2 / 3) < 1e-12

    def test_charts_middle_of_loop(self, capsys):
        code, obj = run_json(capsys, "charts", "e:e:3:0.5")
        assert code == 0
        names = obj["output"]["charts"]
        assert any(name.startswith("U_e") for name in names)
        assert any(name.startswith("U_v") for name in names)

    def test_bad_spec(self, capsys):
        code, out, err = run_cli(capsys, "charts", "nonsense")
        assert code == 1


class TestAtlasCheck:
    def test_small_sample(self, capsys):
        code, obj = run_json(capsys, "atlas-check", "--samples", "100", "--seed", "5")
        assert code == 0
        assert obj["output"]["failures"] == 0
        assert obj["output"]["round_trips"] >= 100


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("survives", "1", "2", "1"),
            ("island", "1", "2", "1", "2", "1"),
            ("ev", "e"),
            ("zpath", "9"),
            ("witness", "3"),
            ("scan", "--max-weight", "3"),
            ("charts", "e:e:1:0.3"),
            ("atlas-check", "--samples", "50", "--seed", "1"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        code1, out1, _ = run_cli(capsys, "--json", *argv)
        code2, out2, _ = run_cli(capsys, "--json", *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestUsage:
    def test_missing_subcommand(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
