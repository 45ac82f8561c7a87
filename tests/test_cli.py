import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest

from earring import cli, corefree, graph, lifting
from earring.caching import reset_caches
from earring.cli import main
from earring.words import format_word, invert, nth_word, reduce_word, zigzag_prefix


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

    # island 41,501,135 is the word a_12, whose two edge-path vertices have
    # 777,124,938 and 777,124,939 letters; the 27 of island 4 * 10^39 are
    # its anchor, of about 2.5 * 10^41 letters, and each prefix of its word
    FAR_PATHS = {
        "41501135": ["ray[777124938]", "ray[777124938] 12"],
        "4000000000000000000000000000000000000000": [
            ("ray[248964584709222323315408525758972417599558] "
             + " ".join("-11 -8 -13 -3 9 3 11 3 -9 -9 15 6 6 15 4 4 -12 -1 -4 -9 -1 8 -3 5 -4 -9"
                        .split()[:i])).rstrip()
            for i in range(27)],
    }

    @pytest.mark.parametrize("json_flag", [True, False])
    @pytest.mark.parametrize("j", list(FAR_PATHS))
    def test_far_path_is_answered_quickly(self, capsys, json_flag, j):
        # a vertex past MAX_LIFT_LETTERS is written in the compact form
        argv = ["--json"] if json_flag else []
        t0 = time.process_time()
        code, out, err = run_cli(capsys, *argv, "zpath", j)
        assert time.process_time() - t0 < 1
        assert (code, err) == (0, "")
        if json_flag:
            assert json.loads(out)["output"]["z_path"] == self.FAR_PATHS[j]
        else:
            assert out.endswith(f" z_path={self.FAR_PATHS[j]}\n")


class TestCrosscheck:
    def test_clean(self, capsys):
        code, obj = run_json(capsys, "crosscheck", "1", "2")
        assert code == 0
        assert obj["output"]["disagreements"] == 0
        assert obj["output"]["examined"] > 0

    @pytest.mark.parametrize("json_flag, j, letters", [
        (False, "41501135", 113460241459),
        (True, "4000000000000000000000000000000000000000",
         611705984630559248385958747789795230042153318)])
    def test_far_island_is_refused(self, json_flag, j, letters):
        # the sample of a far island holds words of |anchor| letters or
        # more; under a 1 GiB address-space cap a cross-check that spelled
        # them would fail fast with "out of memory" instead of the refusal
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "from earring.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["--json"] * json_flag + ["crosscheck", j, "1"]
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        # the child's CPU time, not wall time: a second process on the
        # cores stretches the child's wall time but not its CPU time
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, env=env, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) < 2
        message = (f"the cross-check of island {j} at radius 1 would spell up to {letters} "
                   "letters, more than 4194304")
        assert out.returncode == 1, out.stderr
        if json_flag:
            assert (json.loads(out.stdout)["message"], out.stderr) == (message, "")
        else:
            assert (out.stdout, out.stderr) == ("", f"crosscheck: error: {message}\n")


    @pytest.mark.parametrize("json_flag", [False, True])
    @pytest.mark.parametrize("radius, words", [("5", 4251528), ("7", 440033148)])
    def test_large_ball_is_refused(self, json_flag, radius, words):
        # the search near island 9 at radius 5 would examine about 4.2 M
        # words; it is refused before it starts.  Under 1 GiB of address
        # space and 10 s of CPU, a search that ran would fail otherwise
        code = ("import resource, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                "resource.setrlimit(resource.RLIMIT_CPU, (10, 10)); "
                "from earring.cli import main; sys.exit(main(sys.argv[1:]))")
        argv = ["--json"] * json_flag + ["crosscheck", "9", radius]
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, env=env, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        message = (f"the cross-check of island 9 at radius {radius} would examine up to "
                   f"{words} words, more than 1048576")
        assert out.returncode == 1, out.stderr
        if json_flag:
            assert (json.loads(out.stdout)["message"], out.stderr) == (message, "")
        else:
            assert (out.stdout, out.stderr) == ("", f"crosscheck: error: {message}\n")
        assert (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime) < 1


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
        t0 = time.process_time()
        code, out, err = run_cli(capsys, *argv, "witness", "12")
        assert time.process_time() - t0 < 1
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
        from earring import corefree, words
        _, spelled = run_json(capsys, "witness", "3")
        before = corefree.witness_conjugator((3,))
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 100)
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
        t0 = time.process_time()
        code, out, err = run_cli(capsys, "witness", "--trace", "12")
        assert time.process_time() - t0 < 1
        assert code == 1
        assert "has 1554249877 steps" in out + err

    @pytest.mark.parametrize("letter", ["1000", "2000", "99999999999999999999"])
    @pytest.mark.parametrize("json_flag", [True, False])
    def test_heavy_one_letter_word_is_refused_quickly(self, capsys, letter, json_flag):
        # a_m has weight m + 1, past the word index's bound of 384
        message = f"the word has weight {int(letter) + 1}; the word index stops at weight 384"
        t0 = time.process_time()
        code, out, err = run_cli(capsys, *(["--json"] if json_flag else []), "witness", letter)
        assert time.process_time() - t0 < 1
        assert code == 1
        if json_flag:
            assert json.loads(out) == {"command": "witness", "input": letter, "output": {},
                                       "status": "error", "message": message}
        else:
            assert (out, err) == ("", f"witness: error: {message}\n")

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
        from earring import words
        expected = "scan 4: checked=26 skipped=4 failures=0 entries=[30 words]\n"
        code, out, _ = run_cli(capsys, "scan", "--max-weight", "4")
        assert (code, out) == (0, expected)
        # past the first 8 words, |beta w beta^-1| > 100
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 100)
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
        # a label below 1 is refused by charts.Edge, which edge_at reaches
        assert run_cli(capsys, "q-point", "e:e:0:0.5") == (
            1, "", "q-point: error: edge label must be a positive index\n")


class TestAtlasCheck:
    def test_small_sample(self, capsys):
        code, obj = run_json(capsys, "atlas-check", "--samples", "100", "--seed", "5")
        assert code == 0
        assert obj["output"]["failures"] == 0
        assert obj["output"]["round_trips"] >= 100

    @pytest.mark.parametrize("json_flag", [True, False])
    def test_negative_sample_count_is_an_error(self, capsys, json_flag):
        argv = ("--json",) if json_flag else ()
        code, out, err = run_cli(capsys, *argv, "atlas-check", "--samples", "-5")
        assert code == 1
        assert "sample count must be >= 0" in out + err
        assert "round_trips" not in out
        if json_flag:
            assert json.loads(out)["status"] == "error"


class TestOneRefusalPath:
    """Every refusal reaches the user one way: the handler raises, and
    `main` writes `COMMAND: error: MESSAGE` to stderr, or with --json one
    object to stdout that names the word of a word command."""

    # argv, the word a --json refusal names, the message, EARRING_CACHE_BYTES
    CASES = [
        (["survives", "1,0"], "1,0", "0 is not a valid generator index", None),
        (["ev", "3", "-1", "2"], "3 -1 2", "vertex does not survive", None),
        (["zpath", "0"], None, "island index must be >= 1", None),
        (["crosscheck", "9", "0"], None, "island index and radius must be >= 1", None),
        (["crosscheck", "9", "5"], None, "the cross-check of island 9 at radius 5 would "
         "examine up to 4251528 words, more than 1048576", None),
        (["lift", "--start", "3", "1"], "1", "word does not survive the pruning", None),
        (["in-k", "2", "x"], "2 x", "non-integer token 'x' in word", None),
        (["witness", "1", "-1"], "1 -1", "word reduces to the empty word; nothing to certify",
         None),
        (["witness", "--trace", "12"], "12",
         "the lift of beta w beta^-1 has 1554249877 steps; a trace holds at most 4194304",
         None),
        (["scan", "--max-weight", "1"], None, "max_weight must be >= 2", None),
        (["scan", "--max-weight", "400"], None, "the word index stops at weight 384", None),
        (["charts", "x:1"], None, "point spec must be v:<word> or e:<word>:<label>:<t>", None),
        (["q-point", "e:e:x:0.5"], None, "edge label must be an integer, not 'x'", None),
        (["q-point", "e:e:3:x"], None, "edge parameter t must be a number, not 'x'", None),
        (["atlas-check", "--samples", "-1"], None, "the sample count must be >= 0", None),
        (["survives", "1", "2"], "1 2", "EARRING_CACHE_BYTES must be a whole number of bytes "
         "in decimal digits, such as 65536, not '1e6'", "1e6"),
    ]

    @pytest.mark.parametrize("argv, word, message, cache_bytes", [
        pytest.param(*case, id=" ".join(case[0]) + (f" EARRING_CACHE_BYTES={case[3]}"
                                                     if case[3] else ""))
        for case in CASES])
    @pytest.mark.parametrize("json_flag", [False, True])
    def test_refusal(self, capsys, monkeypatch, argv, word, message, cache_bytes, json_flag):
        if cache_bytes is not None:
            monkeypatch.setenv("EARRING_CACHE_BYTES", cache_bytes)
        try:
            # the cap is read again on its next use
            reset_caches()
            code, out, err = run_cli(capsys, *(["--json"] if json_flag else []), *argv)
        finally:
            monkeypatch.undo()
            reset_caches()
        assert code == 1
        if json_flag:
            assert (json.loads(out), err) == ({"command": argv[0], "input": word, "output": {},
                                               "status": "error", "message": message}, "")
            assert out.count("\n") == 1
        else:
            assert (out, err) == ("", f"{argv[0]}: error: {message}\n")

    def test_no_handler_writes_a_refusal(self):
        # neither a handler nor `_emit` catches a refusal or writes one
        import inspect
        for name, (_, _, _, handler) in cli.COMMANDS.items():
            source = inspect.getsource(handler)
            assert "except" not in source and "error" not in source, name
        assert "error" not in inspect.getsource(cli._emit)


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

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--json", "--help"]])
    def test_help_lists_every_command(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: earring [--json] COMMAND ARGS...\n")
        listed = [line.split()[0] for line in out.split("commands:\n")[1].split("\n\n")[0]
                  .splitlines()]
        assert listed == list(cli.COMMANDS) and len(listed) == 12

    @pytest.mark.parametrize("argv", [["witness", "--help"], ["witness", "3", "-h"],
                                      ["--json", "witness", "--trace", "--help"]])
    def test_command_help(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == ("usage: earring [--json] witness [--trace] WORD...\n\n"
                       "conjugation certificate for an essential word\n")

    @pytest.mark.parametrize("argv, usage, message", [
        (["witness", "--frobnicate", "3"], "witness [--trace] WORD...",
         "earring witness: error: unrecognized option --frobnicate"),
        (["scan"], "scan --max-weight MAX_WEIGHT",
         "earring scan: error: option --max-weight is required"),
        (["zpath", "x"], "zpath J", "earring zpath: error: argument J: invalid int value: 'x'"),
        (["lift", "--start"], "lift [--start START] [--trace] WORD...",
         "earring lift: error: option --start needs a value"),
        (["lift", "--start", "--trace", "1"], "lift [--start START] [--trace] WORD...",
         "earring lift: error: option --start needs a value"),
        (["--max", "5"], "COMMAND ARGS...", "earring: error: unrecognized option --max"),
        # prefix abbreviations of options are not read
        (["scan", "--max", "5"], "scan --max-weight MAX_WEIGHT",
         "earring scan: error: unrecognized option --max"),
        (["frobnicate"], "COMMAND ARGS...", "earring: error: unknown command 'frobnicate'"),
        ([], "COMMAND ARGS...", "earring: error: a command is required"),
        (["survives"], "survives WORD...", "earring survives: error: argument WORD is required"),
        (["crosscheck", "9"], "crosscheck J RADIUS",
         "earring crosscheck: error: argument RADIUS is required"),
        (["q-point", "v:e", "v:e"], "q-point SPEC",
         "earring q-point: error: unrecognized arguments: v:e"),
        (["witness", "--trace=1", "3"], "witness [--trace] WORD...",
         "earring witness: error: option --trace takes no value"),
    ])
    @pytest.mark.parametrize("json_flag", [True, False])
    def test_usage_errors(self, capsys, argv, usage, message, json_flag):
        code, out, err = run_cli(capsys, *(["--json"] if json_flag else []), *argv)
        assert (code, out) == (1, "")
        assert err == f"usage: earring [--json] {usage}\n{message}\n"

    def test_import_leaves_argparse_and_re_out(self):
        # `re` itself is loaded by the standard library's typing, dataclasses
        # and json before the CLI module is reached, so for `re` the check is
        # that the module does not import it
        code = ("import json, sys, earring.cli as cli; "
                "print(json.dumps(['argparse' in sys.modules, 'argparse' in vars(cli), "
                "'re' in vars(cli)]))")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert json.loads(out) == [False, False, False]

    def test_import_leaves_dataclasses_and_inspect_out(self):
        # the records are named tuples: dataclasses would also load inspect,
        # ast and dis, a third of what a fresh interpreter pays to import
        code = ("import json, sys, earring.cli; "
                "print(json.dumps(['dataclasses' in sys.modules, 'inspect' in sys.modules]))")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert json.loads(out) == [False, False]

    # every command refuses it, whether or not it reaches the word index
    @pytest.mark.parametrize("value, argv", [
        pytest.param(value, argv, id=value if argv[0] == "survives" else f"{value}-{argv[0]}")
        for value in ("1e6", "-5")
        for argv in (["survives", "1", "2"], ["witness", "3"], ["zpath", "9"], ["in-k", "3"],
                     ["crosscheck", "9", "2"], ["scan", "--max-weight", "3"])])
    @pytest.mark.parametrize("json_flag", [True, False])
    def test_cache_bytes_not_a_byte_count(self, capsys, monkeypatch, value, argv, json_flag):
        monkeypatch.setenv("EARRING_CACHE_BYTES", value)
        try:
            # the cap is read again on its next use
            reset_caches()
            code, out, err = run_cli(capsys, *(["--json"] if json_flag else []), *argv)
        finally:
            monkeypatch.undo()
            reset_caches()
        message = ("EARRING_CACHE_BYTES must be a whole number of bytes in decimal "
                   f"digits, such as 65536, not {value!r}")
        assert code == 1
        if json_flag:
            obj = json.loads(out)
            assert (obj["status"], obj["message"], err) == ("error", message, "")
        else:
            assert (out, err) == ("", f"{argv[0]}: error: {message}\n")


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the command table replaced, kept as the
    definition the table-driven parser is checked against."""
    p = argparse.ArgumentParser(prog="earring")
    p.add_argument("--json", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("survives", "island", "ev", "lift", "in-k", "witness"):
        sub.add_parser(name).add_argument("word", nargs="+")
    sub.add_parser("zpath").add_argument("j", type=int)
    sp = sub.add_parser("crosscheck")
    sp.add_argument("j", type=int)
    sp.add_argument("radius", type=int)
    sub.choices["lift"].add_argument("--start", default="e")
    sub.choices["lift"].add_argument("--trace", action="store_true")
    sub.choices["witness"].add_argument("--trace", action="store_true")
    sub.add_parser("scan").add_argument("--max-weight", type=int, required=True)
    sub.add_parser("q-point").add_argument("spec")
    sub.add_parser("charts").add_argument("spec")
    sp = sub.add_parser("atlas-check")
    sp.add_argument("--samples", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    return p


# argparse takes a token that starts with '-' for an option unless it
# reads as one negative number or holds a space; the reference passes a
# comma word such as -2,-1,-2 on with a leading space
_COMMA_WORD = re.compile(r"-\d+,[-\d,\s]*")


def reference_parse(argv):
    """The reference's reading of argv as a dict, or None if it rejects it."""
    argv = [" " + a if _COMMA_WORD.fullmatch(a) else a for a in argv]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            ns = reference_parser().parse_args(argv)
    except SystemExit:
        return None
    values = vars(ns)
    if "word" in values:
        values["word"] = [token.strip() for token in values["word"]]
    return values


def table_parse(argv):
    try:
        return vars(cli._parse(argv))
    except cli._Usage:
        return None


TWIN_ACCEPTED = [
    "survives 1 2 1", "survives e", "island -2,-1,-2", "ev -1,-2", "in-k -3,1,-1",
    "survives -1,-2 -3", "witness -2 -1 -2", "witness --trace 3", "witness 3 --trace",
    "witness -- -2,-1,-2", "witness 1 -- -2", "lift --start 1,2 -1,3", "lift --start=1,2,1,2 1",
    "lift --start=-1,2 1", "lift --start -1 2", "lift --trace 1 2 3", "lift -- --start 1",
    "zpath -1", "zpath 9", "zpath +3", "zpath 1 --", "crosscheck 9 -2",
    "scan --max-weight 5", "scan --max-weight=5", "scan --max-weight -3",
    "scan --max-weight 5 --max-weight 6", "q-point e:e:3:0.5", "charts v:1,2,1,2",
    "atlas-check", "atlas-check --samples 100 --seed=5", "--json witness 3",
    "--json --json survives e",
]
TWIN_REJECTED = [
    "", "--json", "frobnicate 1", "--foo witness 3", "ev --json e",
    # every command without its arguments, or with one too many
    "survives", "survives --", "island", "ev", "in-k", "lift", "lift --trace", "witness",
    "witness --trace", "zpath", "zpath 1 2", "crosscheck 9", "crosscheck 9 2 3", "scan",
    "scan 5 --max-weight 5", "q-point", "q-point a b", "charts", "charts a b", "atlas-check 5",
    # bad option values
    "zpath x", "zpath 1.5", "crosscheck 9 x", "scan --max-weight x", "atlas-check --samples x",
    "lift --start", "lift --start --trace 1", "lift --start -- 1", "witness --trace=1 3",
    "witness --foo 3",
]


class TestParserTwin:
    """The table-driven parser reads every command line the way the
    argparse parser it replaced did: the same command, --json, word,
    ints, spec and option values, or a rejection by both.  Two readings
    differ on purpose and are not listed: argparse took an option prefix
    such as --max for --max-weight, and it rejected a word split by an
    option (`lift 1 --trace 2`)."""

    @pytest.mark.parametrize("line", TWIN_ACCEPTED)
    def test_accepted_alike(self, line):
        ref = reference_parse(line.split())
        assert ref is not None
        assert table_parse(line.split()) == ref

    @pytest.mark.parametrize("line", TWIN_REJECTED)
    def test_rejected_alike(self, line):
        assert reference_parse(line.split()) is None
        assert table_parse(line.split()) is None


# --- vertex text ------------------------------------------------------------

BACKS = [invert(zigzag_prefix(m)) for m in range(4)]  # R[:m]^{-1}, m = 0..3


def check_step_texts(trace):
    """cli's text of every step vertex of a LiftTrace, alone and followed by
    R[:m]^{-1}, and its trace lines, against format_word of spelled words."""
    spelled = []
    for s in trace.steps:
        word = s.at.word
        spelled.append(format_word(word))
        assert [cli._vertex_text(s.at, m) for m in range(4)] \
            == [format_word(word + back) for back in BACKS]
    assert [step["vertex"] for step in cli._trace(trace)] == spelled
    assert [(step["letter"], step["kind"]) for step in cli._trace(trace)] \
        == [(s.letter, s.kind) for s in trace.steps]


class TestVertexText:
    """The CLI writes a vertex as a ray run R[:p], repeated as a block of
    text, then its tail; trace lines keep the tail as a list of tokens.  Both
    must read as format_word of the spelled word."""

    @pytest.mark.parametrize("j", [j for j in range(1, 61) if reduce_word(nth_word(j))])
    def test_witness_trace(self, j):
        check_step_texts(corefree.witness_conjugator(nth_word(j)).trace)

    @pytest.mark.parametrize("start", [(), (1, 2, 1), (1, 2, 1, 2), (1, -2), (-1,), (2,),
                                       (1, 2, -1, -2)])
    def test_lift_trace(self, start):
        # the words leave the ray, come back to it and run along it both
        # ways, from the start and from the base point reached by its inverse
        for word in [(2, 2, 1, -2, -1, -1, 3, -1), (1, 2, 1, 2, -2, -1, 4, -4, -1, -2, 1),
                     (-2, -1, -2, 3, -3, 2, 1, 2, 1, 2, 1), (-1, 2, 1, -2, -1, -2, -1)]:
            for w in (word, invert(start) + word):
                check_step_texts(lifting.lift_word(w, start=graph.Vertex.make(start)))


# sha256 of stdout, in text and with --json, per command; every command
# exits 0.  The outputs were recorded when vertices were still spelled
# letter by letter, so writing them as ray blocks must leave them alone.
# Each group holds a vertex with an odd ray run R[:p] or an odd inverse
# run R[:m]^{-1}.
PINNED = {
    "witness 9": {
        "witness 3": (
            "8bec70ef0585492ebdfa59319564e7bbc116908a26ce16082ae47d5ea3c3d0eb",
            "8b1f16b9a412601ffc31772f749bf133011e7734aa1de6a2b8b55f3f0de604e2"),
        "witness --trace 3": (
            "7c644a5766d2cc27944af5682421ca2c61838f4184ef212677fbe52e76cfa5ea",
            "6e514431d46dbab9657883f788334a6c068d8319877f14f439aaa55fadd49ee7"),
    },
    "witness 60": {
        "witness 1 2 -2": (
            "fc70d79493e7ff5bdbbcd5e18da6565fb30d10bc63e180f4aaf039fee6c6a634",
            "af332d94e8afb62f1b26db46a64c091ff6a2ec03f73633f4ed3396024c9f8ab7"),
        "witness --trace 1 2 -2": (
            "cd88ccf7ee6bd423de928f3f0ebe35e3243907a45bfaec2d6f95b50e9703a26d",
            "8c5b4588f3128a98f51510976d73fcbad7092fa68b99f83f592bab679de418a8"),
    },
    "witness 100": {
        "witness -2 -1 -2": (
            "678f588655da46c2e59d3e0feb564209d055ca053826963d78533cbd8548dddb",
            "bea1379f51eb2b1fe141545587212bde636bda06d30fd2d41140a40c59da8241"),
        "witness --trace -2 -1 -2": (
            "9038533bec557c106698a5ecfa3a0ef8f33f99829de4d34e4debda98b2b3f161",
            "ea2f86162269f19d5b6f9448ff9911280d58f815a72a5bff66dae32c34478ba3"),
    },
    "witness 250": {
        "witness 3 2 -2": (
            "d7b8b94576753f83cbcece28d3e316110b89eb769345c161baf0a62fa18c2507",
            "ce7be94920068c8d29b4d11ba707581ed2660d6cae2dafb6b1bf1b4aad4a6184"),
        "witness --trace 3 2 -2": (
            "36f27e829d838f1b8d77f687a0d67ef80883a63097dd0b9798bb31c421212ebd",
            "7a404236a2d09dd831d112c8d13c2b43b6da5ee6045666bdba9505b737813867"),
    },
    "compact": {
        "witness 12": (
            "b9eef2022064327b57f48ebfe0bf976bdfe143a3c293507b1053618c64ae85f5",
            "132d4856dfddeccc04c174e9a686b43de673881e61e2bf08fa720d99477101af"),
        "witness 2,1,-1": (
            "1cc99fa6ed74cc9f78209c57c75bc960b70f220601e0a45a400cee933214e6a8",
            "e824548c24dc89d29b1faf34ae94bb58ea946c008f084fc4228602f962de2816"),
    },
    "lift": {
        "lift --trace 1 2 3": (
            "2168c6ed012708eabc5b4c529a88fb0a67e7b19e8783ec64f8cdb5b660da281a",
            "6b74191b10b04d61e37228ff76569b2c66277582ebd2a0f6f8b5161cbe0766d0"),
        "lift --start 1,2 -1,3": (
            "0a663c85dad38a23608b16a9edde4c469a5b8c6fc3a19ac024d17c03da4470e0",
            "b63a66b9b1df4fc998f7b1f28a04e829afc779afedc3a727781b6fc91e2a5b96"),
        "lift --trace --start 1,-2 2 2 1 -2 -1 -1 3 -1": (
            "a05e53b4cf319e1265a0898be5b74905d6fb66874dd822ccef06b96b5ad2fb86",
            "7828b56c37bcd9843c169a7f0eb4641084dfe9e9b9d6921c886bdf448c0f7620"),
    },
    "zpath": {
        "zpath 1": (
            "aaa251586692176aaa12c442b49a3262f7879a4c6c3e74c57f196f945ba740cd",
            "b7b77da57ec2fe78e1c7d62d3d9e00c99883d35ac7c7883f584e5a44b46e56d6"),
        "zpath 9": (
            "b12ec263544bb928f9c723c63cb9416e36e74e02e0a276727c09b83f12eccea4",
            "e7a373ee1f7207562dd08bdc20a8309aba790a790050570f63c46ded53aabd98"),
    },
    "charts": {
        "charts e:e:3:0.5": (
            "e7ca78ef6fc0922d49bfe18b7d7a802302befbcd3848dda110050e5f0344a1bc",
            "888db3d1cf5cb2372cfffa91593dd724c65f36152b56e2a7db187406b248305a"),
        "charts v:1,2,1,2": (
            "c12e7c154f9d394986f093027ac6b8598a97d53ecd9f14233ad3d893ac9a4e70",
            "52cb657e3e5f502f0a013d89d75b4f2c49c4ac7f506d36bd6566462214e3cdf1"),
        "charts v:1,2,1": (
            "4dce903f9631f3afd8f3afac4840c86cd06764dce685dfaef06b70336afc568c",
            "e6d61a26edbf81214af934e69d8795db48d458ad30866bfda7dc311877617074"),
    },
}


class TestPinnedOutput:
    @pytest.mark.parametrize("group", sorted(PINNED))
    def test_stdout_digests(self, capsys, group):
        for line, digests in PINNED[group].items():
            for json_flag, digest in zip((False, True), digests):
                code, out, err = run_cli(capsys, *(["--json"] if json_flag else []),
                                         *line.split())
                assert (code, err) == (0, "")
                assert hashlib.sha256(out.encode()).hexdigest() == digest, (line, json_flag)


class TestClosedStdout:
    """A reader that stops early, as `earring ... | head` does, ends the
    command with exit 1 and nothing on stderr, not with a traceback."""

    @pytest.mark.parametrize("json_flag", [False, True])
    def test_pipe_closed_early(self, json_flag):
        # about 3 MB of output, far past what a pipe buffers
        argv = (["--json"] if json_flag else []) + ["witness", "--trace", "-2", "-1", "-2"]
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.Popen([sys.executable, "-m", "earring.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        head = proc.stdout.read(50)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""
        assert head.startswith(b'{"command": "witness"' if json_flag else b"witness -2 -1 -2:")

    @pytest.mark.parametrize("argv", [["--help"], ["witness", "--help"], ["--json", "--help"]])
    def test_help_to_a_closed_pipe(self, argv):
        # the read end is closed before the help is written, so its first
        # write fails
        read, write = os.pipe()
        os.close(read)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        try:
            proc = subprocess.run([sys.executable, "-m", "earring.cli", *argv], env=env,
                                  stdout=write, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, b"")


def run_python(code: str, *argv) -> str:
    """The stdout of `python -c code argv...` in a fresh interpreter that
    imports earring from this checkout."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, check=True).stdout


class TestImportFootprint:
    """`import earring` loads the oracle layers only; the definitional
    checks and the lifting, certificate and chart layers load on first
    use, and each command loads only the layers it calls."""

    ORACLE = ["earring", "earring.caching", "earring.graph", "earring.words"]
    PUBLIC = [
        "ConjugationCertificate", "Edge", "IslandData", "LiftTrace", "PointH", "PointHat",
        "RayPrefix", "Vertex", "Word", "anchor", "anchor_length", "atlas_check", "base_vertex",
        "caching", "charts", "charts_containing", "checks", "concat", "core_free_scan", "corefree",
        "e_set", "edge_at", "edge_chart", "edge_into", "endpoint", "format_word", "graph",
        "in_k", "in_line", "index_of", "invert", "island_data", "island_of", "l_point",
        "lift_ray_inverse", "lift_word", "lifting", "local_inverse", "midpoint_structure_check",
        "neighbor", "nth_word", "parse_word", "planar", "q_point", "ray_vertex", "reduce_word",
        "removal_cross_check", "survives", "vertex_chart", "weight", "witness_conjugator",
        "words", "zigzag_prefix",
    ]
    LAZY = {
        "checks": ["in_line", "removal_cross_check"],
        "lifting": ["LiftTrace", "RayPrefix", "endpoint", "in_k", "lift_ray_inverse",
                    "lift_word"],
        "corefree": ["ConjugationCertificate", "core_free_scan", "midpoint_structure_check",
                     "witness_conjugator"],
        "charts": ["Edge", "PointH", "PointHat", "atlas_check", "charts_containing", "edge_at",
                   "edge_into", "l_point", "local_inverse", "planar", "q_point",
                   "vertex_chart", "edge_chart"],
    }
    # prints a command's exit code, its stdout and the earring modules it loaded
    CALL = ("import contextlib, io, json, sys\n"
            "from earring import cli\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('earring.'))\n"
            "print(json.dumps([code, out.getvalue(), loaded]))")

    def test_package_import_loads_the_oracle_only(self):
        code = ("import json, sys, earring; earring.survives(()); "
                "print(json.dumps(sorted(m for m in sys.modules if m.startswith('earring'))))")
        assert json.loads(run_python(code)) == self.ORACLE

    def test_public_names(self):
        import earring
        assert sorted(earring.__all__) == self.PUBLIC
        # a submodule imported by name, as earring.cli is here, is listed too
        assert set(self.PUBLIC) <= set(dir(earring))

    def test_lazy_names_are_their_modules_attributes(self):
        # each name is read from the package first, in a fresh interpreter
        code = ("import json, sys, earring\n"
                "wrong = []\n"
                "for home, names in json.loads(sys.argv[1]).items():\n"
                "    got = {name: getattr(earring, name) for name in [home] + names}\n"
                "    module = sys.modules['earring.' + home]\n"
                "    wrong += [name for name, obj in got.items()\n"
                "              if obj is not (module if name == home else getattr(module, name))]\n"
                "print(json.dumps(wrong))")
        assert json.loads(run_python(code, json.dumps(self.LAZY))) == []

    def test_star_import_binds_every_public_name(self):
        code = ("import json; ns = {}; exec('from earring import *', ns); "
                "print(json.dumps(sorted(n for n in ns if not n.startswith('__'))))")
        assert json.loads(run_python(code)) == self.PUBLIC

    def test_unknown_name_is_an_attribute_error(self):
        import earring
        with pytest.raises(AttributeError, match="'nope'"):
            earring.nope
        assert not hasattr(earring, "nope")

    @pytest.mark.parametrize("argv, unused", [
        (["survives", "1", "2"], ["charts", "checks", "corefree", "lifting"]),
        (["island", "1", "2", "1"], ["charts", "checks", "corefree", "lifting"]),
        (["ev", "1", "2", "1"], ["charts", "checks", "corefree", "lifting"]),
        (["zpath", "9"], ["charts", "checks", "corefree", "lifting"]),
        (["crosscheck", "9", "1"], ["charts", "corefree", "lifting"]),
        (["witness", "3", "2", "-2"], ["charts", "checks"]),
        (["scan", "--max-weight", "3"], ["charts", "checks"]),
        (["lift", "--trace", "1", "2", "3"], ["charts", "checks"]),
        (["in-k", "1", "2", "1"], ["charts", "checks"]),
    ])
    def test_command_loads_only_its_layers(self, argv, unused):
        code, _, loaded = json.loads(run_python(self.CALL, *argv))
        assert code == 0
        assert [m for m in unused if "earring." + m in loaded] == []
        if argv[0] == "crosscheck":
            assert "earring.checks" in loaded

    @pytest.mark.parametrize("argv", [
        ["q-point", "v:1,2,1,2"],
        ["charts", "e:1,2:3:0.25"],
        ["--json", "atlas-check", "--samples", "50", "--seed", "3"],
    ])
    def test_chart_commands_load_charts_and_answer(self, capsys, argv):
        code, out, loaded = json.loads(run_python(self.CALL, *argv))
        assert "earring.charts" in loaded
        assert (code, out) == run_cli(capsys, *argv)[:2]
