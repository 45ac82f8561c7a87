import pytest

from earring.corefree import core_free_scan, midpoint_structure_check, witness_conjugator
from earring.graph import base_vertex
from earring.lifting import in_k
from earring.words import anchor, anchor_length, invert, reduce_word


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

    def test_lift_length_bound(self, monkeypatch):
        # |beta w beta^-1| = 2 anchor_length(9) + 1 for w = a_3, j = 9
        from earring import corefree
        n = 2 * anchor_length(9) + 1
        monkeypatch.setattr(corefree, "MAX_LIFT_LETTERS", n)
        assert witness_conjugator((3,)).verdict
        monkeypatch.setattr(corefree, "MAX_LIFT_LETTERS", n - 1)
        with pytest.raises(ValueError, match=f"beta. = {anchor_length(9)} "):
            witness_conjugator((3,))

    def test_null_word_rejected(self):
        with pytest.raises(ValueError):
            witness_conjugator((1, -1))

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
        letter, kind, at_word, agree = report.records[-1]
        assert letter == 3
        assert kind == "tree"
        assert at_word == reduce_word(anchor(9) + (3,))
        assert agree


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

    def test_words_over_the_lift_limit_are_refused(self, monkeypatch):
        from earring import corefree
        full = core_free_scan(4)
        assert full.refused == 0
        monkeypatch.setattr(corefree, "MAX_LIFT_LETTERS", 100)
        report = core_free_scan(4)
        refused = [e for e in report.entries
                   if e.essential and 2 * anchor_length(e.j) + len(e.word) > 100]
        assert refused and refused[0].j == 9
        assert report.refused == len(refused)
        assert report.checked == full.checked - len(refused)
        assert report.skipped == full.skipped
        assert report.ok
        for entry, before in zip(report.entries, full.entries):
            assert (entry.j, entry.word, entry.essential, entry.in_k) == \
                (before.j, before.word, before.essential, before.in_k)
            assert entry.verdict is (None if entry in refused else before.verdict)
