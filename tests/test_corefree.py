import time

import pytest

from earring import corefree, words
from earring.caching import reset_caches
from earring.corefree import core_free_scan, midpoint_structure_check, witness_conjugator
from earring.graph import base_vertex, island_data
from earring.lifting import in_k
from earring.words import (anchor, anchor_length, invert, nth_word, reduce_word, weight,
                           zigzag_prefix)


def _fields(cert):
    return (cert.word, cert.j, cert.beta, cert.midpoint.word, cert.verdict,
            cert.conjugate_endpoint.word)


class TestWitnessConjugator:
    def test_a3(self):
        cert = witness_conjugator((3,))
        assert cert.j == 9
        assert cert.beta == anchor(9)
        assert cert.midpoint.word == anchor(9)
        assert cert.verdict
        assert cert.conjugate_endpoint != base_vertex()

    def test_a1_member_of_k_complement_still_witnessed(self):
        # the construction works whether or not the word itself lies in K
        cert = witness_conjugator((1,))
        assert not in_k((1,))
        assert cert.verdict

    def test_unreduced_but_essential_word(self):
        cert = witness_conjugator((2, 1, -1))
        assert cert.verdict
        assert cert.word == (2, 1, -1)

    def test_spelling_bound_leaves_the_certificate(self, monkeypatch):
        # MAX_LIFT_LETTERS bounds only how vertices are written; the conjugate
        # of a_3 has 2 anchor_length(9) + 1 = 105 letters
        from earring import words
        before = _fields(witness_conjugator((3,)))
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 100)
        assert _fields(witness_conjugator((3,))) == before

    @pytest.mark.parametrize("w", [(12,), (40,), nth_word(10 ** 100)])
    def test_far_indices_answer_quickly(self, w):
        t0 = time.process_time()
        cert = witness_conjugator(w)
        assert cert.verdict is True
        assert cert.midpoint.depth == cert.midpoint.ray_len == cert.beta.length
        assert cert.beta.length == anchor_length(cert.j)
        assert cert.beta[:5] == (1, 2, 1, 2, 1)
        assert cert.turn.depth <= cert.beta.length + len(w)
        assert time.process_time() - t0 < 1

    def test_beta_is_a_lazy_ray_prefix(self):
        cert = witness_conjugator((12,))
        assert len(cert.beta) == 777_124_938
        assert cert.beta[-3:] == (2, 1, 2)
        assert cert.beta[1] == 2 and cert.beta[777_124_936] == 1
        small = witness_conjugator((3,)).beta
        assert small == anchor(9) and anchor(9) == small
        assert small != anchor(9)[:-1] and small != anchor(8)
        assert tuple(small) == zigzag_prefix(52) and small[::2] == (1,) * 26

    def test_null_word_rejected(self):
        with pytest.raises(ValueError):
            witness_conjugator((1, -1))

    def test_far_endpoint_is_refused_before_beta_is_spelled(self, monkeypatch):
        # witness 12's endpoint is 777,124,938 steps past its turn
        cert = witness_conjugator((12,))
        t0 = time.process_time()
        with pytest.raises(ValueError, match="777124938 steps"):
            cert.conjugate_endpoint
        assert time.process_time() - t0 < 0.1
        # the bound is MAX_LIFT_LETTERS, read when the endpoint is
        from earring import words
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 100)
        with pytest.raises(ValueError, match="595 steps"):
            witness_conjugator((2, 1, -1)).conjugate_endpoint
        assert witness_conjugator((3,)).conjugate_endpoint.depth == 105

    def test_far_trace_is_refused_before_beta_is_spelled(self, monkeypatch):
        # the trace of witness 12 has 2 * 777,124,938 + 1 steps
        cert = witness_conjugator((12,))
        t0 = time.process_time()
        with pytest.raises(ValueError, match="has 1554249877 steps"):
            cert.trace
        assert time.process_time() - t0 < 0.1
        # the bound is MAX_LIFT_LETTERS, read when the trace is
        from earring import words
        cert = witness_conjugator((3,))
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 104)
        with pytest.raises(ValueError, match="has 105 steps"):
            cert.trace
        monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 105)
        assert len(cert.trace.word) == 105

    def test_endpoint_is_lift_of_full_conjugate(self):
        cert = witness_conjugator((3,))
        gamma = cert.beta + cert.word + invert(cert.beta)
        assert cert.trace.projection() == gamma
        assert not in_k(gamma)

    def test_verdict_equals_conjugate_outside_k(self):
        for w in [(1,), (3,), (2, -1), (1, 1)]:
            cert = witness_conjugator(w)
            gamma = cert.beta + w + invert(cert.beta)
            assert cert.verdict == (not in_k(gamma))


class TestMidpointStructure:
    @pytest.mark.parametrize("w", [(3,), (1,), (2, 1, -1), (1, 2, 3)])
    def test_lift_follows_edge_path(self, w):
        cert = witness_conjugator(w)
        report = midpoint_structure_check(cert)
        assert report.ok
        assert report.stays_on_island
        assert len(report.records) == len(w)

    def test_final_record_is_conjugate_midstate(self):
        cert = witness_conjugator((3,))
        report = midpoint_structure_check(cert)
        letter, kind, at, agree = report.records[-1]
        assert letter == 3
        assert kind == "tree"
        assert at.word == reduce_word(anchor(9) + (3,))
        assert agree

    @pytest.mark.parametrize("w", [(12,), (40,), (12, 3)])
    def test_far_witnesses_answer_quickly(self, w):
        # |beta| is 777,124,938 letters for (12,): the check compares
        # vertices by identity, and spells none.  Only plain values are
        # asserted, since a failing assert would show the report, whose
        # vertices spell their words
        t0 = time.process_time()
        report = midpoint_structure_check(witness_conjugator(w))
        ok, stays, count = report.ok, report.stays_on_island, len(report.records)
        assert (ok, stays, count) == (True, True, len(w))
        assert time.process_time() - t0 < 1

    def test_records_agree_with_spelled_words(self):
        # the midpoint twin: each record's agree against the spelled
        # comparison of the vertex's word with the island's z_path
        checked = 0
        j = 1
        while weight(nth_word(j)) <= 6:
            w = nth_word(j)
            j += 1
            if not reduce_word(w):
                continue
            cert = witness_conjugator(w)
            data = island_data(cert.j)
            report = midpoint_structure_check(cert)
            prev = cert.midpoint.word
            for i, (letter, kind, at, agree) in enumerate(report.records):
                if abs(letter) <= data.level:
                    spelled = kind == "tree" and at.word == data.z_path[i + 1]
                else:
                    spelled = kind == "loop" and at.word == prev
                assert agree == spelled, (w, i)
                prev = at.word
            checked += 1
        assert checked == 542


class TestScan:
    def test_weight_three(self):
        report = core_free_scan(3)
        assert len(report.entries) == 8
        assert report.checked == 6
        assert report.skipped == 2
        assert report.failures == ()
        assert report.ok

    def test_skipped_entries_are_null_words(self):
        report = core_free_scan(3)
        for entry in report.entries:
            if not entry.essential:
                assert reduce_word(entry.word) == ()
                assert entry.in_k is None
                assert entry.verdict is None
            else:
                assert entry.verdict is True

    def test_both_membership_outcomes_occur(self):
        report = core_free_scan(4)
        values = {e.in_k for e in report.entries if e.essential}
        assert values == {True, False}

    def test_too_small_weight_rejected(self):
        with pytest.raises(ValueError):
            core_free_scan(1)

    def test_no_word_is_refused(self):
        report = core_free_scan(4)
        assert report.checked == 26 and report.skipped == 4
        assert all(e.verdict is True for e in report.entries if e.essential)

    def test_an_unreachable_weight_is_refused_at_once(self):
        t0 = time.process_time()
        with pytest.raises(ValueError, match="^the word index stops at weight 384$"):
            core_free_scan(words.MAX_WEIGHT + 16)
        assert time.process_time() - t0 < 1.0

    def test_the_weight_is_an_index(self):
        with pytest.raises(TypeError):
            core_free_scan(5.0)
        # True is the weight 1
        with pytest.raises(ValueError, match="^max_weight must be >= 2$"):
            core_free_scan(True)

    def test_benchmark_contract(self, monkeypatch):
        # the scan certifies each essential word through the module's
        # witness_conjugator, in index order, and each certificate lifts its
        # word once through the module's lift_word; perfbench reads both
        calls = []
        conjugate, lift = corefree.witness_conjugator, corefree.lift_word

        def counted_conjugate(w):
            calls.append([w, 0])
            cert = conjugate(w)
            calls[-1].append(cert.j)
            return cert

        def counted_lift(*args, **kwargs):
            calls[-1][1] += 1
            return lift(*args, **kwargs)

        monkeypatch.setattr(corefree, "witness_conjugator", counted_conjugate)
        monkeypatch.setattr(corefree, "lift_word", counted_lift)
        report = core_free_scan(5)
        assert len(calls) == report.checked == 112
        assert all(lifts == 1 for _, lifts, _ in calls)
        js = [j for _, _, j in calls]
        assert js == sorted(set(js))
        assert [(w, j) for w, _, j in calls] == [(e.word, e.j) for e in report.entries
                                                 if e.essential]
        assert [e.j for e in report.entries] == list(range(1, len(report.entries) + 1))
        assert all(e.word == nth_word(e.j) for e in report.entries)


def _twin(w, j):
    """The definitional lift: beta . w . beta^-1 spelled, lifted from the
    base point one letter at a time; returns |beta| and the steps."""
    beta = anchor(j)
    v = base_vertex()
    steps = []
    for letter in beta + w + invert(beta):
        kind, v = v.step(letter)
        steps.append((letter, kind, v))
    return len(beta), steps


class TestDefinitionalTwin:
    """The segment lift of a witness against the letter-by-letter lift of
    the spelled conjugate, for every essential j <= 300."""

    def test_every_essential_word_to_300(self):
        # words are spelled at every step up to j = 60; past it a step is
        # compared by identity, since spelling all of them would read about
        # 3 * 10^8 letters: the replay and the twin run in one trie, with no
        # reset between them, and a word has one live vertex there, so `is`
        # is word equality
        checked = 0
        try:
            for j in range(1, 301):
                w = nth_word(j)
                if not reduce_word(w):
                    continue
                cert = witness_conjugator(w)
                n, steps = _twin(w, j)
                end = steps[-1][2]
                assert cert.verdict == (end != base_vertex())
                assert cert.midpoint.word == steps[n - 1][2].word
                assert cert.conjugate_endpoint.word == end.word
                replay = cert.trace.steps
                assert len(replay) == len(steps)
                for step, (letter, kind, at) in zip(replay, steps):
                    assert (step.letter, step.kind) == (letter, kind)
                    assert step.at is at
                    if j <= 60:
                        assert step.at.word == at.word
                checked += 1
                # the twin's lift keeps about 2|beta| trie vertices
                reset_caches()
        finally:
            reset_caches()
        assert checked == 286
