"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 1-8 are computed once into comparable plain-data summaries;
criterion 9 recomputes all of them with caching disabled and requires
bit-identical summaries.
"""

import hashlib
import math
import random
import time

import pytest

from earring.caching import reset_caches
from earring.charts import atlas_check
from earring.checks import island_sample, removal_cross_check
from earring.corefree import core_free_scan
from earring.graph import (
    Vertex,
    base_vertex,
    e_set,
    island_data,
    island_of,
    survives,
)
from earring.lifting import endpoint, in_k, lift_word
from earring.words import (
    anchor,
    anchor_length,
    concat,
    format_word,
    invert,
    nth_word,
    reduce_word,
)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


# --- criterion computations -------------------------------------------------

def criterion_1():
    """Base-point structure and the basic K-membership calls."""
    return {
        "e_set_base": sorted(e_set(())),
        "in_k_a3": in_k((3,)),
        "in_k_a1": in_k((1,)),
    }


def criterion_2():
    """Anchor length formula for j <= 1000 and pairwise separation."""
    formula_failures = 0
    cum = 0
    for j in range(1, 1001):
        wlen = len(nth_word(j))
        expected = 2 * cum + 3 * j + wlen
        if anchor_length(j) != expected:
            formula_failures += 1
        cum += wlen
    separation_failures = 0
    rng = random.Random(2)
    pairs = [(rng.randrange(1, 1000), 1000) for _ in range(50)]
    pairs += [tuple(sorted(rng.sample(range(1, 1001), 2))) for _ in range(200)]
    for i, j in pairs:
        gap = anchor_length(j) - anchor_length(i)
        if gap < len(nth_word(j)) + len(nth_word(i)) + 3:
            separation_failures += 1
    return {
        "formula_failures": formula_failures,
        "separation_failures": separation_failures,
        "pairs": len(pairs),
    }


def _sample_surviving_words(count, max_len, seed):
    rng = random.Random(seed)
    sample = set()
    while len(sample) < count:
        if rng.random() < 0.3:
            v = Vertex.make(anchor(rng.randrange(1, 31)))
        else:
            v = base_vertex()
        budget = rng.randrange(0, max_len + 1)
        while len(v.word) < max_len and budget > 0:
            labels = sorted(v.e_set)
            i = rng.choice(labels)
            v = v.step(i if rng.random() < 0.5 else -i)[1]
            budget -= 1
        if len(v.word) <= max_len:
            sample.add(v.word)
    return sorted(sample)


def criterion_3():
    """Rule-based e_set against the first-principles survival test on
    10^4 surviving words of length <= 40."""
    words = _sample_surviving_words(10_000, 40, seed=3)
    mismatches = []
    for v in words:
        rule = e_set(v)
        top = max(rule) + 2
        first_principles = set()
        for i in range(1, top + 1):
            fwd = survives(reduce_word(v + (i,)))
            bwd = survives(reduce_word(v + (-i,)))
            if fwd and bwd:
                first_principles.add(i)
        if first_principles != set(rule):
            mismatches.append(v)
    return {
        "words": len(words),
        "mismatches": len(mismatches),
        "digest": _digest(words),
    }


def criterion_4():
    """Zero disagreements between the closed-form removal pattern and
    the prose rule for all islands j <= 20 at radius 2."""
    per_island = []
    disagreements = 0
    for j in range(1, 21):
        report = removal_cross_check(j, 2)
        disagreements += len(report.disagreements)
        per_island.append((j, report.examined, report.removed))
    return {"disagreements": disagreements, "per_island": tuple(per_island)}


def criterion_5():
    """Island disjointness, one-step closure under high labels, and
    survival of the anchored edge-paths, for all islands j <= 50."""
    owners = {}
    disjoint_failures = 0
    closure_failures = 0
    zpath_failures = 0
    for j in range(1, 51):
        for v in island_sample(j, 4):
            prev = owners.setdefault(v, j)
            if prev != j:
                disjoint_failures += 1
            if island_of(v) != j:
                disjoint_failures += 1
            for i in e_set(v):
                if i < 3:
                    continue
                for letter in (i, -i):
                    w = reduce_word(v + (letter,))
                    if island_of(w) != j:
                        closure_failures += 1
        for z in island_data(j).path:
            if not survives(z.word):
                zpath_failures += 1
    return {
        "islands": 50,
        "vertices": len(owners),
        "disjoint_failures": disjoint_failures,
        "closure_failures": closure_failures,
        "zpath_failures": zpath_failures,
    }


def _random_words(count, seed, max_len=12, max_index=5):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(0, max_len + 1)
        w = []
        for _ in range(n):
            i = rng.randrange(1, max_index + 1)
            w.append(i if rng.random() < 0.5 else -i)
        out.append(tuple(w))
    return out

def criterion_6():
    """Lifting laws: endpoint invariance under cancelling-pair
    insertions, the concatenation law, and K subgroup closure."""
    words = _random_words(1000, seed=6)
    rng = random.Random(66)
    insertion_failures = 0
    for w in words:
        base_end = endpoint(w).word
        for _ in range(100):
            pos = rng.randrange(0, len(w) + 1)
            i = rng.randrange(1, 6)
            pair = (i, -i) if rng.random() < 0.5 else (-i, i)
            w2 = w[:pos] + pair + w[pos:]
            if endpoint(w2).word != base_end:
                insertion_failures += 1
    concat_failures = 0
    for u, v in zip(words[:500], words[500:]):
        left = endpoint(concat(u, v))
        right = lift_word(v, start=endpoint(u)).endpoint
        if left != right:
            concat_failures += 1
    # K members: any word followed by the tree path from its lift
    # endpoint back to the base point
    members = [concat(w, invert(endpoint(w).word)) for w in words]
    member_failures = sum(1 for m in members if not in_k(m))
    closure_failures = 0
    for u, v in zip(members, members[1:] + members[:1]):
        if not in_k(concat(u, v)):
            closure_failures += 1
        if not in_k(invert(u)):
            closure_failures += 1
    return {
        "insertion_failures": insertion_failures,
        "concat_failures": concat_failures,
        "member_failures": member_failures,
        "closure_failures": closure_failures,
        "digest": _digest([endpoint(w).word for w in words]),
    }


def criterion_7():
    """Witness certificates for every essential word of weight <= 5."""
    report = core_free_scan(5)
    memberships = {e.in_k for e in report.entries if e.essential}
    return {
        "checked": report.checked,
        "skipped": report.skipped,
        "failures": len(report.failures),
        "memberships": sorted(memberships),
        "entries": _digest([(e.j, e.in_k, e.verdict) for e in report.entries]),
    }


def criterion_8():
    """Sampled atlas properties at 1000 points."""
    report = atlas_check(1000, seed=0)
    return {
        "samples": report.samples,
        "round_trips": report.round_trips,
        "overlaps": report.overlaps,
        "failures": len(report.failures),
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
}


def _run_all():
    results = {}
    for n, fn in CRITERIA.items():
        start = time.monotonic()
        results[n] = fn()
        results[n] = (results[n], round(time.monotonic() - start, 2))
    return results


@pytest.fixture(scope="module")
def warm():
    reset_caches()
    return _run_all()


def _report(capsys, n, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1(warm, capsys):
    r, secs = warm[1]
    ok = r["e_set_base"] == [1, 2] and r["in_k_a3"] and not r["in_k_a1"]
    _report(capsys, 1, ok, f"base e_set={r['e_set_base']}, in_k(a3)={r['in_k_a3']}, in_k(a1)={r['in_k_a1']} [{secs}s]")


def test_criterion_2(warm, capsys):
    r, secs = warm[2]
    ok = r["formula_failures"] == 0 and r["separation_failures"] == 0
    _report(capsys, 2, ok, f"anchor formula j<=1000, {r['pairs']} separation pairs, failures={r['formula_failures']}+{r['separation_failures']} [{secs}s]")


def test_criterion_3(warm, capsys):
    r, secs = warm[3]
    ok = r["words"] >= 10_000 and r["mismatches"] == 0
    _report(capsys, 3, ok, f"e_set vs first-principles on {r['words']} words, mismatches={r['mismatches']} [{secs}s]")


def test_criterion_4(warm, capsys):
    r, secs = warm[4]
    examined = sum(e for _, e, _ in r["per_island"])
    ok = r["disagreements"] == 0 and examined > 0
    _report(capsys, 4, ok, f"removal-rule crosscheck j<=20 radius 2, {examined} vertices, disagreements={r['disagreements']} [{secs}s]")


def test_criterion_5(warm, capsys):
    r, secs = warm[5]
    ok = r["disjoint_failures"] == r["closure_failures"] == r["zpath_failures"] == 0
    _report(capsys, 5, ok, f"islands j<=50, {r['vertices']} vertices: disjoint={r['disjoint_failures']} closure={r['closure_failures']} zpath={r['zpath_failures']} failures [{secs}s]")


def test_criterion_6(warm, capsys):
    r, secs = warm[6]
    ok = (r["insertion_failures"] == r["concat_failures"] == r["member_failures"]
          == r["closure_failures"] == 0)
    _report(capsys, 6, ok, f"lifting laws on 1000 words x 100 insertions, failures={r['insertion_failures']}+{r['concat_failures']}+{r['member_failures']}+{r['closure_failures']} [{secs}s]")


def test_criterion_7(warm, capsys):
    r, secs = warm[7]
    ok = r["failures"] == 0 and r["checked"] == 112 and r["memberships"] == [False, True]
    _report(capsys, 7, ok, f"witness scan weight<=5: {r['checked']} checked, {r['skipped']} skipped, failures={r['failures']}, both K-memberships seen={r['memberships'] == [False, True]} [{secs}s]")


def test_criterion_8(warm, capsys):
    r, secs = warm[8]
    ok = r["failures"] == 0 and r["samples"] == 1000 and r["overlaps"] > 0
    _report(capsys, 8, ok, f"atlas check 1000 samples, {r['round_trips']} round trips, {r['overlaps']} overlaps, failures={r['failures']} [{secs}s]")


def test_criterion_9(warm, capsys, monkeypatch):
    monkeypatch.setenv("EARRING_CACHE_BYTES", "0")
    try:
        reset_caches()
        start = time.monotonic()
        cold = _run_all()
        secs = round(time.monotonic() - start, 2)
    finally:
        monkeypatch.undo()
        reset_caches()
    diffs = [n for n in CRITERIA if cold[n][0] != warm[n][0]]
    ok = not diffs
    _report(capsys, 9, ok, f"cache-disabled rerun of criteria 1-8 identical, differing={diffs or 'none'} [{secs}s]")
