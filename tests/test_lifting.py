import time

import pytest
from hypothesis import given, settings, strategies as st

from earring.graph import Vertex, base_vertex, e_set, ray_vertex
from earring.lifting import endpoint, in_k, lift_word
from earring.words import anchor, anchor_length, concat, index_of, invert, reduce_word

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
word_st = st.lists(letters, max_size=14).map(tuple)


class TestLiftWord:
    def test_empty_word_stays_at_base(self):
        trace = lift_word(())
        assert trace.endpoint is base_vertex()
        assert trace.steps == ()

    def test_low_letters_are_tree_steps(self):
        trace = lift_word((1, 2))
        assert [s.kind for s in trace.steps] == ["tree", "tree"]
        assert trace.endpoint.word == (1, 2)

    def test_high_letter_at_base_is_loop(self):
        trace = lift_word((3,))
        assert trace.steps[0].kind == "loop"
        assert trace.endpoint is base_vertex()

    def test_projection_recovers_the_word(self):
        for w in [(), (3,), (1, 2, -1), (1, 1, -1, 5, 2)]:
            assert lift_word(w).projection() == w

    def test_start_vertex(self):
        v = Vertex.make(anchor(9))
        trace = lift_word((3,), start=v)
        assert trace.start is v
        assert trace.steps[0].kind == "tree"
        assert trace.endpoint.word == anchor(9) + (3,)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            lift_word((0,))


class TestIslandLine:
    def test_long_power_along_a_line_is_linear(self):
        # every vertex of a_5^r from the anchor of a_5 lies on the island's
        # line with s = 5; no step spells the vertex's growing final run
        j = index_of((5,))
        t0 = time.process_time()
        hit = endpoint((5,) * 100000, ray_vertex(anchor_length(j))).hit
        assert time.process_time() - t0 < 5
        assert (hit.j, hit.kind, hit.s, hit.r) == (125, "L", 5, 100000)


class TestLowLetters:
    """a_1 and a_2 are tree labels at every vertex, so `Vertex.step`
    takes them without locating an island; this checks that shortcut
    against the labels the vertex and `classify` give."""

    @given(st.integers(min_value=0, max_value=50),
           st.lists(st.integers(min_value=-6, max_value=6).filter(bool), max_size=12),
           st.lists(st.sampled_from([1, -1, 2, -2]), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_steps_are_free_reduction(self, j, walk, u):
        start = endpoint(tuple(walk), start=Vertex.make(anchor(j)) if j else base_vertex())
        trace = lift_word(tuple(u), start=start)
        at = start
        for step in trace.steps:
            assert abs(step.letter) in at.e_set
            assert abs(step.letter) in e_set(at.word)
            assert step.kind == "tree"
            at = step.at
        assert trace.endpoint.word == reduce_word(start.word + tuple(u))


class TestEndpoint:
    def test_matches_trace(self):
        for w in [(), (1,), (3,), (1, 2, 3, -2)]:
            assert endpoint(w) is lift_word(w).endpoint

    @given(word_st)
    def test_insertion_of_cancelling_pair(self, w):
        # inserting a_i a_i^{-1} anywhere never moves the endpoint
        for pos in range(0, len(w) + 1, max(1, len(w) // 3)):
            for i in (1, 3):
                w2 = w[:pos] + (i, -i) + w[pos:]
                assert endpoint(w2) == endpoint(w)

    @given(word_st, word_st)
    def test_concatenation_law(self, u, v):
        assert endpoint(concat(u, v)) == lift_word(v, start=endpoint(u)).endpoint

    @given(word_st)
    def test_reduction_invariance(self, w):
        assert endpoint(reduce_word(w)) == endpoint(w)

    @given(word_st)
    def test_determinism(self, w):
        assert endpoint(w) == endpoint(w)


class TestInK:
    def test_examples(self):
        assert in_k((3,))
        assert not in_k((1,))
        assert in_k(())
        assert in_k((1, 2, -2, -1))

    def test_anchored_conjugate_leaves_k(self):
        b = anchor(9)
        assert not in_k(reduce_word(b + (3,) + invert(b)))

    @given(word_st, word_st)
    def test_closed_under_product_and_inverse(self, u, v):
        if in_k(u) and in_k(v):
            assert in_k(concat(u, v))
        if in_k(u):
            assert in_k(invert(u))

    @given(word_st)
    def test_membership_is_endpoint_at_base(self, w):
        assert in_k(w) == (endpoint(w) is base_vertex())
