"""Trie vertices against the word-level oracles, over exhaustive bounded
domains, and the memory a long lift takes."""

import gc
import random
import tracemalloc
import weakref
from itertools import permutations

import pytest

from earring.caching import reset_caches
from earring.corefree import core_free_scan, witness_conjugator
from earring.graph import (
    IslandData,
    Vertex,
    base_vertex,
    classify,
    e_set,
    island_data,
    ray_agreement,
    ray_vertex,
    survives,
)
from earring.charts import _random_point, charts_containing, local_inverse, q_point
from earring.lifting import endpoint, lift_ray_inverse, lift_word
from earring.words import (anchor, anchor_length, index_of, invert, nth_word, reduce_word,
                           zigzag_prefix)


def _check_vertex(v, w):
    """Everything a trie vertex carries, against the oracles on its word;
    returns the word-level e_set."""
    assert v.word == w
    assert v.ray_len == ray_agreement(w)
    assert v.hit == classify(w)
    assert survives(w)
    labels = e_set(w)
    assert v.e_set == labels
    assert Vertex.make(w) == v
    return labels


def _check_steps(v, w, top):
    """Every step kind at v for the labels a_1 .. a_top, against survival
    of both neighbours: a label is a tree label when both survive."""
    for i in range(1, top + 1):
        fwd, bwd = reduce_word(w + (i,)), reduce_word(w + (-i,))
        tree = survives(fwd) and survives(bwd)
        for letter, nb in ((i, fwd), (-i, bwd)):
            kind, u = v.step(letter)
            assert kind == ("tree" if tree else "loop")
            assert u.word == (nb if tree else w)


def _lift_domain():
    """Every vertex of the lifts of beta . w . beta^-1, essential j <= 60,
    checked against a lift kept as a tuple with the word-level e_set."""
    count = 0
    for j in range(1, 61):
        word = nth_word(j)
        if not reduce_word(word):
            continue
        beta = anchor(j)
        v, w = base_vertex(), ()
        labels = e_set(w)
        for letter in beta + word + invert(beta):
            kind, v = v.step(letter)
            if abs(letter) in labels:
                assert kind == "tree"
                w = w[:-1] if w and w[-1] == -letter else w + (letter,)
            else:
                assert kind == "loop"
            labels = _check_vertex(v, w)
            count += 1
    return count


def _ball(center, radius, top):
    """The surviving vertices within `radius` tree steps of center, over
    the letters a_1^{+-1} .. a_top^{+-1}, found by walking the trie."""
    start = Vertex.make(center)
    seen = {center: start}
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for i in range(1, top + 1):
                for letter in (i, -i):
                    kind, u = v.step(letter)
                    if kind == "tree" and u.word not in seen:
                        seen[u.word] = u
                        nxt.append(u)
        frontier = nxt
    return seen


def _ball_domains():
    count = 0
    for w, v in _ball((), 5, 4).items():
        _check_vertex(v, w)
        _check_steps(v, w, 4)
        count += 1
    for j in range(1, 21):
        data = island_data(j)
        for z in sorted(data.z_set):
            for w, v in _ball(z, 3, data.level + 1).items():
                _check_vertex(v, w)
                _check_steps(v, w, data.level + 1)
                count += 1
    return count


@pytest.fixture
def cache_off(monkeypatch):
    monkeypatch.setenv("EARRING_CACHE_BYTES", "0")
    try:
        reset_caches()
        yield
    finally:
        monkeypatch.undo()
        reset_caches()


class TestTrieAgainstWords:
    def test_lifts(self):
        assert _lift_domain() > 10_000

    def test_balls(self):
        assert _ball_domains() > 1_000

    def test_lifts_cache_off(self, cache_off):
        assert _lift_domain() > 10_000

    def test_balls_cache_off(self, cache_off):
        assert _ball_domains() > 1_000

    def test_old_vertices_still_answer_after_a_reset(self):
        # a reset starts a new trie: a vertex made before it keeps its word,
        # its answers and its steps, but it is not the vertex of its word in
        # the new trie, since `==` is `is`; across a reset, compare .word
        w = reduce_word(anchor(9) + (3, 3))
        v = Vertex.make(w)
        reset_caches()
        assert v.word == w
        assert v.hit == classify(w) and v.hit.kind == "L"
        assert v.e_set == e_set(w)
        assert v.step(-3)[1].word == anchor(9) + (3,)
        assert v.step(3)[1].word == w + (3,)
        assert v.step(4) == ("loop", v)
        assert Vertex.make(v.word).word == v.word
        assert Vertex.make(w) is not v


class TestRayVertices:
    """A ray vertex is made at any depth in O(1), its parent only when
    read, and a ray word has one live vertex however it is reached."""

    def test_one_vertex_per_ray_word(self):
        from earring import graph
        reset_caches()
        n = anchor_length(1000)
        v = Vertex.make(anchor(1000))
        assert v is ray_vertex(n)
        # made without walking the anchor: no parent yet, nothing at the root
        assert graph._PARENT.__get__(v) is None
        assert graph._root._children is None
        assert lift_word(anchor(1000)).endpoint is v
        assert v.parent is Vertex.make(anchor(1000)[:-1])
        assert v.step(-v.letter)[1] is v.parent
        assert v.step(1 if n % 2 == 0 else 2)[1] is ray_vertex(n + 1)
        assert Vertex.make(anchor(1000) + (-1,)).parent is v

    def test_far_ray_vertex(self):
        n = 10 ** 50 + 1
        v = ray_vertex(n)
        assert (v.depth, v.ray_len, v.letter) == (n, n, 1)
        assert v.parent.parent.depth == n - 2 and v.parent.letter == 2
        assert v == ray_vertex(n) and v != ray_vertex(n - 1)
        with pytest.raises(ValueError):
            ray_vertex(-1)

    def test_witness_leaves_nothing_behind(self):
        from earring import graph
        reset_caches()
        cert = witness_conjugator(nth_word(1000))
        assert cert.verdict is True
        mid = weakref.ref(cert.midpoint)
        del cert
        gc.collect()
        assert mid() is None
        assert graph._root._children is None
        assert len(graph._rays) == 0


class TestLazyClassification:
    """A vertex locates its island only when a label above 2 is asked of
    it; the checks above read hit and e_set on every vertex, so they
    compare the lazy classification with `classify` on the word."""

    @pytest.fixture
    def locate_calls(self, monkeypatch):
        from earring import graph
        calls = []
        inner = graph._locate

        def counted(*args):
            calls.append(args[:2])
            return inner(*args)

        reset_caches()
        monkeypatch.setattr(graph, "_locate", counted)
        return calls

    def test_anchor_lift_locates_nothing(self, locate_calls):
        trace = lift_word(anchor(1000))
        assert all(step.kind == "tree" for step in trace.steps)
        assert trace.endpoint.word == anchor(1000)
        assert locate_calls == []

    def test_witness_locates_only_in_the_middle(self, locate_calls):
        w = nth_word(1000)
        cert = witness_conjugator(w)
        assert cert.verdict is True
        assert len(locate_calls) <= len(w) + 2


class TestMemoryScaling:
    def test_long_witness_lift_is_linear_in_memory(self):
        # |gamma| = 19,132; the quadratic lift needed about 1.5 GB here
        w = nth_word(1000)
        assert index_of(w) == 1000
        reset_caches()
        tracemalloc.start()
        try:
            cert = witness_conjugator(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(cert.trace.steps) == 19_132
        assert cert.verdict is True
        assert peak <= 60 * 2**20

    def test_island_data_is_held_by_its_users(self):
        # the weight-7 scan locates 1,537 islands; the memo of recent builds
        # is cleared whole at 1,024 entries, and the rest is held by the
        # vertices whose hits located it
        reset_caches()
        core_free_scan(7)
        gc.collect()
        assert sum(isinstance(o, IslandData) for o in gc.get_objects()) <= 1_024


def _walk(w):
    """The vertex of the surviving word w, reached by stepping its letters
    from the base point."""
    v = base_vertex()
    for letter in w:
        kind, v = v.step(letter)
        assert kind == "tree"
    return v


class TestChildSlot:
    """A vertex keeps its only child in a slot and makes a table when a
    second child arrives.  Every vertex stays one live object however it
    is reached, and a path costs one object per vertex."""

    def test_one_object_per_word(self):
        reset_caches()
        balls = [_ball((), 4, 4)]
        for j in range(1, 11):
            data = island_data(j)
            for z in sorted(data.z_set):
                balls.append(_ball(z, 3, data.level + 1))
        count = 0
        for ball in balls:
            for w, v in ball.items():
                assert Vertex.make(w) is v
                assert _walk(w) is v
                count += 1
        assert count > 1_000

    @pytest.mark.parametrize("word", [
        (),                                 # the base point
        (-1, 2),                            # off the ray and off every island
        anchor(9),                          # a ray vertex with e_set {1, 2, 3}
        anchor(9) + (3,),                   # the Z vertex off the ray
        anchor(9) + (3, 3),                 # strictly on a line, s = 3
    ])
    def test_children_in_every_order(self, word):
        for order in permutations((1, -1, 2, -2, 3, -3)):
            reset_caches()
            v = Vertex.make(word)
            made = {}
            for letter in order:
                kind, u = v.step(letter)
                if kind == "tree" and letter != -v.letter:
                    made[letter] = u
                # a child keeps its object once a sibling arrives
                for x, child in made.items():
                    assert v.step(x)[1] is child
            assert len(made) >= 3
            for x, child in made.items():
                assert Vertex.make(word + (x,)) is child
                assert child.parent is v
                assert child.word == word + (x,)

    def test_a_path_costs_one_object_per_vertex(self):
        # a reduced word over a_1^{+-1}, a_2^{+-1} that leaves the ray at
        # once: every letter is a tree step to a new vertex below the last
        rng = random.Random(9)
        w = [-1]
        while len(w) < 100_000:
            letter = rng.choice((1, -1, 2, -2))
            if letter != -w[-1]:
                w.append(letter)
        w = tuple(w)
        reset_caches()
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            end = lift_word(w).endpoint
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        gc.collect()
        tracked = len(gc.get_objects()) - objects
        assert end.depth == len(w) and end.ray_len == 0
        assert size <= 160 * len(w)
        assert tracked <= 1.1 * len(w)
        reset_caches()


class TestOneObjectByEveryRoute:
    """A word has one live vertex in the current trie, whichever route
    reaches it: the letter-by-letter step, `Vertex.make`, a segment rule
    or a chart.  This is what makes `==` on vertices the identity test."""

    def test_witness_replay_meets_its_certificate(self):
        checked = 0
        for j in range(1, 61):
            w = nth_word(j)
            if not reduce_word(w):
                continue
            cert = witness_conjugator(w)
            n = len(cert.beta)
            at = (cert.trace.start,) + tuple(step.at for step in cert.trace.steps)
            assert at[n] is cert.midpoint
            assert at[2 * n + len(w) - cert.unwind] is cert.turn
            assert at[-1] is cert.conjugate_endpoint
            checked += 1
        assert checked == 54

    def test_anchor_by_every_route(self):
        for j in (1, 9, 60, 1000):
            v = Vertex.make(anchor(j))
            assert endpoint(anchor(j)) is v
            assert ray_vertex(anchor_length(j)) is v

    def test_segment_rule_meets_the_steps(self):
        rng = random.Random(17)
        for j in range(1, 61):
            w = nth_word(j)
            v = endpoint(w, ray_vertex(anchor_length(j)))
            for n in (1, 2, rng.randrange(1, anchor_length(j) + 3)):
                u, m = lift_ray_inverse(v, n)
                assert endpoint(invert(zigzag_prefix(n))[:n - m], v) is u

    def test_atlas_round_trip_returns_the_same_vertices(self):
        rng = random.Random(5)
        for _ in range(300):
            p = _random_point(rng)
            for c in charts_containing(p):
                back = local_inverse(c, q_point(p))
                if p.is_vertex:
                    assert back.vertex is p.vertex is c.owner
                    continue
                assert back.edge.base is p.edge.base
                assert back.edge.terminal is p.edge.terminal
                if c.tag == "vertex":
                    assert c.owner in (p.edge.base, p.edge.terminal)

    def test_equality_is_identity(self):
        from earring import graph
        assert Vertex.__eq__ is object.__eq__ and Vertex.__hash__ is object.__hash__
        assert "__eq__" not in vars(graph._RayVertex)
        assert "__hash__" not in vars(graph._RayVertex)

    def test_far_ray_vertex_is_its_parent_s_child(self):
        v = ray_vertex(10 ** 50 + 1)
        assert v.parent.step(1)[1] is v
