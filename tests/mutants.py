"""Committed mutants: each claim that a test "fails on a broken copy" is
one entry here, and one command checks them all.

    python tests/mutants.py [NAME ...]

Each entry of MUTANTS names a file of `src/earring`, one or more exact
edits of it (old text, new text), the test selection expected to kill
it, and a verdict: `KILL` ("must be killed"), or a reason why no test
can see it ("equivalent because ...").

For each mutant, one at a time, the script copies `src/`, `tests/`,
`perfbench/`, `demos/` and `pyproject.toml` into a temporary directory
(`tests/test_words.py` loads `perfbench/reference.py`, and
`tests/test_same_answers.py` runs the scripts in `demos/`), applies the
edits to the copy, each of whose old texts must occur there exactly
once, and runs the selection with `pytest -x` under a timeout of
TIMEOUT seconds.  A run that fails a test, or runs out of time, kills
the mutant; a run that passes lets it survive.  First the union of the
selections runs on an unedited copy, which must pass.

It prints one line per mutant, and exits 1 when the unedited copy fails,
an edit does not apply, a selection does not run (a pytest exit code
other than 0 or 1), a mutant that must be killed survives, or an
equivalent one is killed.  NAME arguments run only those mutants, so a
change that adds a mutant can run it alone; an unknown NAME exits 2.
Standard library only, apart from the pytest that runs the selections;
pytest does not collect this file, since its name does not start with
`test`.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "demos", "pyproject.toml")

KILL = "must be killed"
TIMEOUT = 120.0      # seconds allowed to one selection


class Mutant(NamedTuple):
    name: str
    file: str            # under src/earring
    edits: tuple         # ((old, new), ...)
    tests: tuple         # pytest selection, relative to the tree's root
    verdict: str = KILL  # KILL, or "equivalent because ..."


def _one(name, file, old, new, tests, verdict=KILL):
    return Mutant(name, file, ((old, new),), tuple(tests.split()), verdict)


MUTANTS = [
    # --- graph: island membership -------------------------------------------
    _one("match-level-one-short", "graph.py",
         "        if s <= data.level:\n",
         "        if s < data.level:\n",
         "tests/test_graph.py::TestDefinitionalMembership"),
    # the window function without its second candidate, the next anchor
    _one("locate-without-next-island", "words.py",
         "    for j in range(max(j, 1), j + 2):\n",
         "    for j in range(max(j, 1), j + 1):\n",
         "tests/test_model.py"),
    _one("line-sign-at-base-of-z", "graph.py",
         "            s, r = t, -b\n",
         "            s, r = t, b\n",
         "tests/test_graph.py::TestIslandHit"),
    _one("non-s-run-counted-as-one", "graph.py",
         "            s, r = abs(last), c\n",
         "            s, r = abs(last), c - 1\n",
         "tests/test_graph.py::TestIslandHit"),
    _one("max-len-cut-one-short", "graph.py",
         "    if v.depth - v.run > data.max_len:\n",
         "    if v.depth - v.run >= data.max_len:\n",
         "tests/test_graph.py::TestIslandOf tests/test_graph.py::TestIslandHit"),
    _one("z-labels-one-short", "graph.py",
         "        key = tuple(range(1, hit.data.level + 1))\n",
         "        key = tuple(range(1, hit.data.level))\n",
         "tests/test_graph.py::TestESet"),
    _one("island-walk-always-makes-a-child", "graph.py",
         "        z = z.parent if x == -z.letter else z._child(x)\n",
         "        z = z._child(x)\n",
         "tests/test_graph.py::TestEdgePathTwin"),
    _one("records-without-the-anchor", "graph.py",
         "    records = tuple(dict.fromkeys(path))\n",
         "    records = tuple(dict.fromkeys(path[1:]))\n",
         "tests/test_graph.py::TestEdgePathTwin::test_records_weight_6"),
    # --- graph: the word index and the trie ----------------------------------
    _one("miss-without-the-key-type-check", "graph.py",
         "    if key[5::5] != b\"i\" * len(v):\n        check_word(v)\n",
         "",
         "tests/test_graph.py::TestInputValidation::test_invalid_letters_rejected "
         "tests/test_graph.py::TestRefusalsIgnoreTheIndex"),
    # no answer moves at version 4: a word with a bad letter in its ray
    # prefix starts with 1, True or 1.0, and at version 4 the stride check
    # passes no such word; the tests that read the key itself see it
    _one("key-with-back-references", "graph.py",
         "        key = marshal.dumps(v, 2)\n",
         "        key = marshal.dumps(v)\n",
         "tests/test_graph.py::TestRefusalsIgnoreTheIndex::test_refused_after_the_equal_word_is_indexed"),
    _one("reduction-check-past-the-junction", "graph.py",
         "    if not is_reduced(v[p - 1:] if p else v):\n",
         "    if not is_reduced(v[p:]):\n",
         "tests/test_graph.py::TestSurvives"),
    _one("zero-check-skipped-on-a-miss", "graph.py",
         "    check_word(v[p:])\n    if not is_reduced",
         "    if not is_reduced",
         "tests/test_graph.py::TestInputValidation"),
    _one("ray-blocks-step-by-63", "graph.py",
         "        i += 64\n",
         "        i += 63\n",
         "tests/test_trie.py::TestRayVertices"),
    _one("ray-halving-skips-one-letter", "graph.py",
         "    for n in (32, 16, 8, 4, 2, 1):\n",
         "    for n in (32, 16, 8, 4, 2):\n",
         "tests/test_trie.py::TestQueryPathAgainstItsDefinition::"
         "test_ray_agreement_at_every_mismatch"),
    _one("miss-descent-ignores-labels", "graph.py",
         "        if x not in _LOW_LETTERS and abs(x) not in node.e_set:\n"
         "            return None\n",
         "",
         "tests/test_graph.py::TestSurvives"),
    _one("step-admits-a-bool", "graph.py",
         "        if type(letter) is not int or not letter:\n"
         "            check_word((letter,))\n",
         "",
         "tests/test_graph.py::TestStepRefusesBadLetters"),
    _one("unkept-miss-reads-pruned", "graph.py",
         "        # an entry the index will not keep leaves it as it is\n        return node\n",
         "        # an entry the index will not keep leaves it as it is\n        return False\n",
         "tests/test_model.py"),
    _one("reset-keeps-the-word-index", "graph.py",
         "    _rays.clear()\n    _index.clear()\n",
         "    _rays.clear()\n",
         "tests/test_model.py"),
    _one("reset-keeps-the-ray-registry", "graph.py",
         "    _rays.clear()\n    _index.clear()\n",
         "    _index.clear()\n",
         "tests/test_model.py"),
    _one("forget-without-the-identity-test", "graph.py",
         "    if _rays.get(ref.depth) is ref:\n        del _rays[ref.depth]\n",
         "    _rays.pop(ref.depth, None)\n",
         "tests/test_trie.py::TestRayRegistry"),
    # --- words ----------------------------------------------------------------
    _one("anchor-index-without-its-clamp", "words.py",
         "    return _firsts[k] + min(r, _firsts[k + 1] - _firsts[k] - 1) + 1\n",
         "    return _firsts[k] + r + 1\n",
         "tests/test_words.py"),
    _one("index-of-one-power-short", "words.py",
         "    return _firsts[k] + horner - (p + 1) * low ** (length - h) + 1\n",
         "    return _firsts[k] + horner - (p + 1) * low ** (length - h - 1) + 1\n",
         "tests/test_words.py"),
    _one("index-of-weight-check-after-growth", "words.py",
         "    if wt > MAX_WEIGHT:\n"
         "        raise ValueError(f\"the word has weight {wt}; the word index stops at weight \"\n"
         "                         f\"{MAX_WEIGHT}\")\n"
         "    # the classes of weight wt start at (wt-1)(wt-2)/2 and go by length\n"
         "    k = (wt - 1) * (wt - 2) // 2 + length - 1\n"
         "    while len(_classes) <= k:\n"
         "        _add_weight()\n",
         "    # the classes of weight wt start at (wt-1)(wt-2)/2 and go by length\n"
         "    k = (wt - 1) * (wt - 2) // 2 + length - 1\n"
         "    while len(_classes) <= k:\n"
         "        _add_weight()\n"
         "    if wt > MAX_WEIGHT:\n"
         "        raise ValueError(f\"the word has weight {wt}; the word index stops at weight \"\n"
         "                         f\"{MAX_WEIGHT}\")\n",
         "tests/test_words.py::TestWeightBound"),
    _one("letter-table-signs-swapped", "words.py",
         "_LETTERS = tuple(x for i in range(1, MAX_WEIGHT + 1) for x in (i, -i))\n",
         "_LETTERS = tuple(x for i in range(1, MAX_WEIGHT + 1) for x in (-i, i))\n",
         "tests/test_words.py::TestClosedForm"),
    _one("sweep-alphabet-positives-first", "words.py",
         "        for w in itertools.product(_LETTERS[:2 * m], repeat=length):\n",
         "        for w in itertools.product(_LETTERS[:2 * m:2] + _LETTERS[1:2 * m:2], "
         "repeat=length):\n",
         "tests/test_words.py::TestWordsOfWeight"),
    _one("sweep-past-the-table", "words.py",
         "past MAX_WEIGHT.\"\"\"\n"
         "    if wt > MAX_WEIGHT:\n"
         "        raise ValueError(f\"the word index stops at weight {MAX_WEIGHT}\")\n",
         "past MAX_WEIGHT.\"\"\"\n",
         "tests/test_words.py::TestWeightBound::test_both_ends_of_the_letter_table"),
    _one("sweep-filter-without-inverse", "words.py",
         "            if m in w or -m in w:\n",
         "            if m in w:\n",
         "tests/test_words.py::TestWordsOfWeight"),
    # --- checks -----------------------------------------------------------------
    _one("formula-k-at-the-level", "checks.py",
         "            if k > nj:\n",
         "            if k >= nj:\n",
         "tests/test_graph.py::TestCrossCheck"),
    Mutant("line-test-calls-graph-module", "checks.py",
           (("from . import words\n", "from . import graph, words\n"),
            ("    c = next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v)))\n",
             "    c = next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v)))\n"
             "    c = min(c, graph.ray_agreement(u))\n")),
           ("tests/test_graph.py::TestDefinitionalLayer",)),
    _one("line-test-imports-ray-agreement", "checks.py",
         "    c = next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v)))\n",
         "    from .graph import ray_agreement\n"
         "    c = min(next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v))),\n"
         "            ray_agreement(u))\n",
         "tests/test_graph.py::TestDefinitionalLayer"),
    _one("edge-path-ray-parity", "checks.py",
         "        elif x == _ray_letter(p):\n",
         "        elif x == _ray_letter(p + 1):\n",
         "tests/test_graph.py::TestEdgePathTwin"),
    _one("edge-path-reads-island-data", "checks.py",
         "        raise ValueError(\"island index must be >= 1\")\n    wj = nth_word(j)\n",
         "        raise ValueError(\"island index must be >= 1\")\n"
         "    from .graph import island_data\n"
         "    data = island_data(j)\n"
         "    return tuple((z.ray_len, z.tail) for z in data.path), data.level\n"
         "    wj = nth_word(j)\n",
         "tests/test_graph.py::TestDefinitionalLayer"),
    _one("formula-filter-drops-line-bases", "checks.py",
         "    reach = len(v) + len(path) - 1  # |v| + |w_j|\n",
         "    reach = len(v) - 1\n",
         "tests/test_graph.py::TestCrossCheck::test_formula_spells_enough_of_the_edge_path"),
    _one("formula-accepts-unreduced", "checks.py",
         "    if not is_reduced(v):\n        raise ValueError(\"expected a reduced word\")\n",
         "",
         "tests/test_graph.py::TestCrossCheck::test_unreduced_word_is_refused"),
    _one("island-sample-bound-ignored", "checks.py",
         "    if letters > words.MAX_LIFT_LETTERS:\n",
         "    if False:\n",
         "tests/test_graph.py::TestCrossCheck::test_far_island_sample_is_refused"),
    _one("cross-check-island-one-short", "checks.py",
         "    island = island_sample(j, 2 * radius + 2)\n",
         "    island = island_sample(j, 2 * radius + 1)\n",
         "tests/test_graph.py::TestCrossCheck::test_far_island_is_cheap"),
    # the same reports, with membership asked of the fast path
    Mutant("cross-check-asks-classify", "checks.py",
           (("    island = island_sample(j, 2 * radius + 2)\n",
             "    from .graph import classify\n\n"
             "    def in_island(w: Word) -> bool:\n"
             "        hit = classify(w)\n"
             "        return hit is not None and hit.j == j\n"),
            ("                    if nb not in island:\n",
             "                    if not in_island(nb):\n")),
           ("tests/test_graph.py::TestDefinitionalLayer",)),
    _one("bfs-bound-ignored", "checks.py",
         "    if bound > MAX_CROSSCHECK_WORDS:\n",
         "    if False:\n",
         "tests/test_cli.py::TestCrosscheck::test_large_ball_is_refused"),
    # --- the command line -------------------------------------------------------
    _one("usage-refusal-ignores-json", "cli.py",
         "SimpleNamespace(json=argv[:1] == [\"--json\"], command=name)",
         "SimpleNamespace(json=False, command=name)",
         "tests/test_cli.py::TestUsage::test_usage_errors"),
    # --- lifting and witnesses ------------------------------------------------
    _one("ray-inverse-parity-flipped", "lifting.py",
         "(v.depth - m) % 2 == 0",
         "(v.depth - m) % 2 == 1",
         "tests/test_lifting.py"),
    _one("trace-step-records-the-vertex-before", "lifting.py",
         "            kind, cur = cur.step(letter)\n            out.append(LiftStep(letter, kind, cur))\n",
         "            kind, after = cur.step(letter)\n            out.append(LiftStep(letter, kind, cur))\n"
         "            cur = after\n",
         "tests/test_lifting.py"),
    _one("verdict-ignores-the-unwind", "corefree.py",
         "        verdict=bool(unwind or turn.depth),\n",
         "        verdict=bool(turn.depth),\n",
         "tests/test_corefree.py"),
    _one("scan-counts-from-one", "corefree.py",
         "    j = 0\n    for wt in range(2, max_weight + 1):\n",
         "    j = 1\n    for wt in range(2, max_weight + 1):\n",
         "tests/test_corefree.py::TestScan"),
    # --- charts -----------------------------------------------------------------
    _one("loop-owner-at-the-level", "charts.py",
         "    if e.label > vertex_chart_level(e.base):\n",
         "    if e.label >= vertex_chart_level(e.base):\n",
         "tests/test_charts.py"),
    _one("inverse-past-three-quarters-outgoing", "charts.py",
         "    if i > c.level or t < 0.375:\n",
         "    if i > c.level or t < 0.375 or t >= 0.75:\n",
         "tests/test_charts.py"),
    _one("edge-into-is-edge-at", "charts.py",
         "        return Edge(v.step(-label)[1], label)\n",
         "        return Edge(v, label)\n",
         "tests/test_charts.py"),
    _one("inverse-boundary-inclusive", "charts.py",
         "    if i > c.level or t < 0.375:\n",
         "    if i > c.level or t <= 0.375:\n",
         "tests/test_charts.py",
         "equivalent because at t = 0.375 the point lies outside the vertex chart's "
         "range, so local_inverse raises before it reaches this branch"),
]


def make_copy(tmp: Path) -> Path:
    """The tree's COPIED parts under tmp/tree; returns tmp/tree."""
    tree = tmp / "tree"
    tree.mkdir()
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
    for part in COPIED:
        src = ROOT / part
        if src.is_dir():
            shutil.copytree(src, tree / part, ignore=ignore)
        else:
            shutil.copy2(src, tree / part)
    return tree


def apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "earring" / mutant.file
    text = path.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        found = text.count(old)
        if found != 1:
            raise ValueError(f"{mutant.name}: old text found {found} times in {mutant.file}")
        text = text.replace(old, new)
    path.write_text(text, encoding="utf-8")


def run_tests(tree: Path, tests, timeout: float):
    """(pytest exit code, or None on a timeout, seconds, the first failed
    test's summary line or "")."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("EARRING_CACHE_BYTES", None)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.monotonic() - t0, ""
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode, time.monotonic() - t0, failed[0][:160] if failed else ""


def main(argv=None) -> int:
    wanted = sys.argv[1:] if argv is None else argv
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names), "mutant names must be unique"
    unknown = set(wanted) - set(names)
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not wanted or m.name in wanted]
    bad = 0
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutants_") as tmp:
        tree = make_copy(Path(tmp))
        selections = list(dict.fromkeys(t for m in chosen for t in m.tests))
        code, secs, failed = run_tests(tree, selections, TIMEOUT * len(chosen))
        print(f"{'unedited copy':40} {'passes' if code == 0 else 'FAILS':10} {secs:6.1f} s"
              f"  {failed}")
        if code != 0:
            return 1
        for m in chosen:
            shutil.rmtree(tree)
            tree = make_copy(Path(tmp))
            try:
                apply(tree, m)
            except ValueError as exc:
                print(f"{m.name:40} {'NO EDIT':10} {exc}")
                bad += 1
                continue
            code, secs, failed = run_tests(tree, m.tests, TIMEOUT)
            if code not in (0, 1, None):
                outcome, ok = f"ERROR {code}", False
            else:
                outcome = "survived" if code == 0 else "killed" if code == 1 else "timed out"
                ok = (code == 0) != (m.verdict == KILL)
            bad += not ok
            note = "" if m.verdict == KILL else f"  ({m.verdict})"
            print(f"{m.name:40} {outcome:10} {secs:6.1f} s{'' if ok else '  UNEXPECTED'}{note}"
                  + (f"\n    {failed}" if failed else ""))
    print(f"{len(chosen)} mutants, {bad} unexpected, {time.monotonic() - started:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
