import random
import re
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from earring.caching import reset_caches
from earring.graph import Vertex, base_vertex, e_set, ray_vertex
from earring.lifting import RayPrefix, endpoint, in_k, lift_ray_inverse, lift_word
from earring.words import (
    anchor, anchor_length, concat, index_of, invert, ray_run, reduce_word, zigzag_prefix,
)

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

    def test_int_enum_letter_refused(self):
        # an IntEnum member equals its value, so it would become the
        # letter of a trie vertex
        A = IntEnum("A", {"three": 3})
        reset_caches()
        with pytest.raises(ValueError, match="^" + re.escape(
                "invalid letter <A.three: 3>: letters are nonzero ints") + "$"):
            lift_word((A.three,))
        assert [type(x) for x in Vertex.make((1, 2, 1, 1)).word] == [int] * 4

    def test_start_vertex(self):
        v = Vertex.make(anchor(9))
        trace = lift_word((3,), start=v)
        assert trace.start is v
        assert trace.steps[0].kind == "tree"
        assert trace.endpoint.word == anchor(9) + (3,)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            lift_word((0,))

    def test_each_step_is_at_the_vertex_after_it(self):
        v = Vertex.make(anchor(9))
        for w in [(1,), (3, 2, -3), (1, 2, 3, -1, 5), (-1, 3, 3, -2)]:
            for start in (base_vertex(), v):
                trace = lift_word(w, start=start)
                assert [s.at for s in trace.steps] == [endpoint(w[:i + 1], start)
                                                       for i in range(len(w))]


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


class TestRayPrefix:
    """`RayPrefix(n)` indexes as the spelled `zigzag_prefix(n)` does, by
    Python's own index rules, and spells only the letters asked for."""

    BOUNDS = (None, -10, -2, 0, 1, 3, 10)

    @pytest.mark.parametrize("n", range(9))
    def test_int_indices(self, n):
        ray, spelled = RayPrefix(n), zigzag_prefix(n)
        for i in range(-n - 3, n + 3):
            if -n <= i < n:
                assert ray[i] == spelled[i], i
            else:
                with pytest.raises(IndexError, match="^ray prefix index out of range$"):
                    ray[i]

    @pytest.mark.parametrize("n", range(9))
    def test_slices(self, n):
        ray, spelled = RayPrefix(n), zigzag_prefix(n)
        for start in self.BOUNDS:
            for stop in self.BOUNDS:
                for step in (None, 1, 2, -1, -3):
                    assert ray[start:stop:step] == spelled[start:stop:step], (start, stop, step)

    def test_a_float_index_is_refused(self):
        with pytest.raises(TypeError):
            RayPrefix(5)[2.0]

    def test_a_far_prefix_spells_only_what_is_asked(self):
        # the conjugator of witness 40 has about 2.4 * 10^41 letters
        n = anchor_length(index_of((40,)))
        ray = RayPrefix(n)
        t0 = time.process_time()
        last, tail, inner = ray[-1], ray[-3:], ray[10 ** 40:10 ** 40 + 4]
        assert time.process_time() - t0 < 0.1
        assert (last, tail, inner) == ((n - 1) % 2 + 1, ray_run(n - 3, n), (1, 2, 1, 2))


def _random_vertex(rng):
    """A vertex near the zig-zag ray: a ray vertex, or an island's anchor,
    followed by a short walk along tree edges."""
    if rng.random() < 0.5:
        v = ray_vertex(rng.randrange(70))
    else:
        v = ray_vertex(anchor_length(rng.randrange(1, 40)))
    for _ in range(rng.randrange(12)):
        i = rng.choice(sorted(v.e_set))
        v = v.step(i if rng.random() < 0.5 else -i)[1]
    return v


class TestLiftRayInverse:
    """The segment rule for R[:n]^{-1} against its definitional twin: the
    letter-by-letter lift, every letter a tree step."""

    def test_twin_of_the_letter_by_letter_lift(self):
        rng = random.Random(24)
        for _ in range(2000):
            v, n = _random_vertex(rng), rng.randrange(60)
            u, m = lift_ray_inverse(v, n)
            spelled = invert(zigzag_prefix(n))
            assert endpoint(spelled[:n - m], v) is u, (v, n)
            assert endpoint(spelled, v).word == u.word + invert(zigzag_prefix(m)), (v, n)

    def test_a_negative_length_is_refused(self):
        with pytest.raises(ValueError):
            lift_ray_inverse(ray_vertex(3), -1)

    def test_a_fractional_length_is_refused(self):
        with pytest.raises(TypeError):
            lift_ray_inverse(ray_vertex(3), 2.5)
