"""Trie vertices against the word-level oracles, over exhaustive bounded
domains, and the memory a long lift takes."""

import gc
import operator
import random
import tracemalloc
import weakref
from itertools import compress, count, cycle, permutations, product

import pytest

from earring import caching, graph
from earring.caching import reset_caches
from earring.corefree import core_free_scan, witness_conjugator
from earring.graph import (
    IslandData,
    Vertex,
    base_vertex,
    classify,
    e_set,
    island_data,
    island_of,
    ray_agreement,
    ray_vertex,
    survives,
)
from earring.charts import _random_point, charts_containing, local_inverse, q_point
from earring.lifting import endpoint, lift_ray_inverse, lift_word
from earring.words import (anchor, anchor_length, check_word, index_of, invert, is_reduced,
                           nth_word, ray_run, reduce_word, zigzag_prefix)


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
        for z in sorted(z.word for z in data.records):
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

    def test_old_vertices_keep_what_they_read_after_a_reset(self):
        # a reset starts a new trie: a vertex made before it still reads its
        # word, depth and tail, and keeps the answers it has already read,
        # but it is not the vertex of its word in the new trie; re-make it
        w = reduce_word(anchor(9) + (3, 3))
        v = Vertex.make(w)
        hit, labels = v.hit, v.e_set
        reset_caches()
        assert (v.word, v.depth, v.tail) == (w, len(w), w[ray_agreement(w):])
        assert v.hit is hit and v.e_set is labels
        u = Vertex.make(v.word)
        assert u is not v and u is Vertex.make(w)
        assert (u.hit.j, u.hit.kind, u.hit.s, u.hit.r) == (hit.j, hit.kind, hit.s, hit.r)
        assert u.e_set == labels

    def test_an_old_vertex_refuses_a_first_hit_read(self):
        # an old vertex located among the new trie's edge-path vertices would
        # compare them by identity with its own trie's, and answer wrongly:
        # each of the 70 words z a_s^2 (z on Z_j, j < 80, s >= 3) that
        # survive either keeps the hit it read, or refuses a first read
        def key(hit):
            return None if hit is None else (hit.j, hit.kind, hit.s, hit.r)

        reset_caches()
        ws = sorted({reduce_word(z.word + (s, s)) for j in range(1, 80)
                     for z in island_data(j).records for s in range(3, island_data(j).level + 3)})
        ws = [w for w in ws if survives(w)]
        expected = [key(classify(w)) for w in ws]
        reset_caches()
        old = [Vertex.make(w) for w in ws]
        reset_caches()
        refused = 0
        for v, hit in zip(old, expected):
            try:
                assert key(v.hit) == hit, v
            except ValueError:
                with pytest.raises(ValueError, match="reset_caches"):
                    v.e_set
                refused += 1
        assert len(ws) == 70 and refused > 0
        assert [key(Vertex.make(v.word).hit) for v in old] == expected

    def test_an_old_ray_vertex_makes_no_ray_child(self):
        # its child would be registered as the new trie's R[:6], below a
        # second live R[:5]
        old = ray_vertex(5)
        reset_caches()
        with pytest.raises(ValueError, match="reset_caches"):
            old.step(2)
        assert ray_vertex(6).parent is ray_vertex(5)
        assert Vertex.make(zigzag_prefix(6)).parent is Vertex.make(zigzag_prefix(5))

    def test_an_old_vertex_makes_no_child(self):
        # a child made from an old vertex would be located among the new
        # trie's vertices from an old parent: each of the 280 surviving words
        # z a_s^2 x (z on Z_j, j < 80, s >= 3, x = a_1^{+-1} or a_2^{+-1}),
        # stepped by x from its parent made before a reset, is refused
        reset_caches()
        ws = sorted({reduce_word(z.word + (s, s, x)) for j in range(1, 80)
                     for z in island_data(j).records for s in range(3, island_data(j).level + 3)
                     for x in (1, -1, 2, -2)})
        ws = [w for w in ws if survives(w)]
        reset_caches()
        old = [Vertex.make(w[:-1]) for w in ws]
        reset_caches()
        assert len(ws) == 280
        for v, w in zip(old, ws):
            with pytest.raises(ValueError, match="reset_caches"):
                v.step(w[-1])

    def test_an_old_certificate_makes_no_endpoint(self):
        # its endpoint would be a second live vertex of its word
        cert = witness_conjugator(nth_word(175))
        reset_caches()
        with pytest.raises(ValueError, match="reset_caches"):
            cert.conjugate_endpoint
        assert witness_conjugator(nth_word(175)).conjugate_endpoint.depth > 0

    def test_a_reset_makes_a_new_base_point(self):
        reset_caches()
        old = base_vertex()
        reset_caches()
        assert base_vertex() is not old and base_vertex() is Vertex.make(())
        with pytest.raises(ValueError, match="reset_caches"):
            old.e_set
        with pytest.raises(ValueError, match="reset_caches"):
            old.step(1)
        assert old.depth == 0 and old.word == ()

    def test_an_old_vertex_keeps_its_neighbours(self):
        # an old located vertex still steps to the vertices it has already
        # made, and to its parent, as the same objects
        reset_caches()
        v = Vertex.make(reduce_word(anchor(9) + (3, 3)))
        child, up, loop = v.step(1)[1], v.step(-3)[1], v.step(4)
        reset_caches()
        assert v.step(1)[1] is child and v.step(-3)[1] is up and v.step(4) == loop
        assert child.parent is v and up.step(3)[1] is v
        assert Vertex.make(v.word) is not v


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


class TestRayRegistry:
    """`graph._rays` holds a weak reference per live ray vertex: the entry
    goes with the vertex, neither a vertex from before a reset nor one that
    dies after a new vertex of its depth was made drops the new entry, and
    a ray vertex made by a walk is the registered one."""

    def test_entry_goes_with_its_vertex(self):
        from earring import graph
        reset_caches()
        before = len(graph._rays)
        v = ray_vertex(10 ** 6 + 7)
        assert len(graph._rays) == before + 1
        del v
        gc.collect()
        assert len(graph._rays) == before

    def test_old_vertex_keeps_the_new_entry(self):
        from earring import graph
        reset_caches()
        n = 1001
        old = ray_vertex(n)
        reset_caches()
        new = ray_vertex(n)
        assert new is not old
        # the old vertex dies after the new trie registered R[:n]
        del old
        gc.collect()
        assert ray_vertex(n) is new
        assert graph._rays[n]() is new

    def test_a_vertex_made_while_the_old_one_dies_stays(self):
        # every weak reference to a dying vertex is cleared before any of
        # their callbacks runs, and CPython runs the newest callback first:
        # the probe's callback registers a new R[:n] before the registry's
        # callback for the old vertex runs, which must leave that entry
        from earring import graph
        reset_caches()
        n = 1001
        made = []
        old = ray_vertex(n)
        probe = weakref.ref(old, lambda _: made.append(ray_vertex(n)))
        del old
        gc.collect()
        assert probe() is None and len(made) == 1
        assert ray_vertex(n) is made[0]
        assert graph._rays[n]() is made[0]

    def test_walked_ray_child_is_registered(self):
        reset_caches()
        one = base_vertex().step(1)[1]
        two = one.step(2)[1]
        assert ray_vertex(1) is one and ray_vertex(2) is two
        assert two.parent is one


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
        # the weight-7 scan locates 1,537 islands; each one's data hangs on
        # its anchor vertex, and a witness's anchor goes with its
        # certificate.  Only island 1 stays: its anchor R[:4] is on the
        # paths from the base point that the short lifts of in_k walk
        reset_caches()
        core_free_scan(7)
        gc.collect()
        assert sum(isinstance(o, IslandData) for o in gc.get_objects()) <= 1


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
            for z in sorted(z.word for z in data.records):
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


# --- the word-query path against its definition -------------------------------


def _twin(w):
    """The word-query path by its definition: the letters checked, then
    the word checked reduced, then its letters folded one by one by
    `Vertex.step` from the base point, where a loop step means w is pruned.
    The vertex, False for a pruned word, or the refusal's message."""
    try:
        w = check_word(w)
    except ValueError as exc:
        return str(exc)
    if not is_reduced(w):
        return "expected a reduced word"
    v = base_vertex()
    for letter in w:
        kind, v = v.step(letter)
        if kind == "loop":
            return False
    return v


def _queries(w):
    """survives, island_of, e_set and Vertex.make on w: each answer, or
    the message it raises."""
    out = []
    for query in (survives, island_of, e_set, Vertex.make):
        try:
            out.append(query(w))
        except ValueError as exc:
            out.append(str(exc))
    return out


def _expected(node):
    """What the four queries answer for a word whose twin is `node`."""
    if isinstance(node, str):
        return [node] * 4
    if node is False:
        return [False, None, "e_set is defined only for surviving vertices",
                "word does not survive the pruning"]
    hit = node.hit
    return [True, hit.j if hit else None, node.e_set, node]


def _iterator_form(w):
    return next(compress(count(), map(operator.ne, w, cycle((1, 2)))), len(w))


class TestQueryPathAgainstItsDefinition:
    """Every word of up to three letters over a_1^{+-1} .. a_3^{+-1},
    unreduced ones too, grafted onto R[:p] at and around the 64-letter
    blocks that `ray_agreement` compares: the queries give the twin's
    answers, the same vertex object included, on a miss and on a hit."""

    PREFIXES = (0, 1, 2, 63, 64, 65, 127, 128, 129)
    TAILS = [t for n in range(4) for t in product((1, -1, 2, -2, 3, -3), repeat=n)]

    def _check(self):
        pruned = refused = 0
        for p in self.PREFIXES:
            for tail in self.TAILS:
                w = zigzag_prefix(p) + tail
                first = _queries(w)
                node = _twin(w)
                assert first == _expected(node), w
                # the word answered again, from the index when it is on
                assert _queries(w) == first, w
                pruned += node is False
                refused += isinstance(node, str)
        return pruned, refused

    def test_index_on(self):
        reset_caches()
        pruned, refused = self._check()
        assert pruned > 100 and refused > 100
        assert graph._index

    def test_index_off(self):
        reset_caches()
        caching._limit = 0
        try:
            pruned, refused = self._check()
            assert pruned > 100 and refused > 100
            assert graph._index == {}
        finally:
            reset_caches()

    def test_ray_agreement_at_every_mismatch(self):
        for q in range(201):
            ray = 1 if q % 2 == 0 else 2
            for x in (3 - ray, -ray, 3, -3):
                w = zigzag_prefix(q) + (x,) + ray_run(q + 1, q + 80)
                assert ray_agreement(w) == _iterator_form(w) == q, (q, x)

    def test_ray_agreement_of_ray_words(self):
        for n in range(201):
            w = zigzag_prefix(n)
            assert ray_agreement(w) == _iterator_form(w) == n

    def test_ray_agreement_of_a_list(self):
        for q in (0, 63, 64, 65, 200):
            w = list(zigzag_prefix(q)) + [3, 1, 2]
            assert ray_agreement(w) == q
