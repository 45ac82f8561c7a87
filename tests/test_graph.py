import functools
import marshal
import re
import time
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from earring import caching, graph
from earring.caching import reset_caches
from earring.checks import edge_path, formula_removes, in_line, island_sample, removal_cross_check
from earring.graph import (
    Vertex,
    base_vertex,
    classify,
    e_set,
    island_data,
    island_of,
    neighbor,
    ray_agreement,
    ray_vertex,
    survives,
)
from earring.lifting import RayPrefix
from earring.words import (anchor, anchor_length, invert, nth_word, reduce_word, words_of_weight,
                           zigzag_prefix)


class TestIslandData:
    def test_zpath_of_first_island(self):
        d = island_data(1)
        assert d.word == (1,)
        assert tuple(z.word for z in d.path) == ((1, 2, 1, 2), (1, 2, 1, 2, 1))

    def test_zpath_cancellation(self):
        d = island_data(2)
        assert d.word == (-1,)
        assert d.path[1].word == (1, 2, 1, 2, 1, 2, 1, 2)

    def test_zpath_starts_at_anchor(self):
        for j in (1, 7, 23, 60):
            d = island_data(j)
            assert d.path[0].word == anchor(j)
            assert len(d.path) == len(d.word) + 1

    def test_consecutive_zpath_entries_adjacent(self):
        for j in (1, 5, 9, 31):
            d = island_data(j)
            for a, b in zip(d.path, d.path[1:]):
                assert abs(len(a.word) - len(b.word)) == 1

    def test_level(self):
        assert island_data(1).level == 2
        assert island_data(9).level == 3

    def test_bool_index_is_the_int_index(self):
        # True hashes as 1: it must not be stored as island 1's index
        reset_caches()
        assert island_data(True) is island_data(1)
        assert type(island_data(1).j) is int
        assert type(island_of(anchor(1))) is int
        assert type(classify(anchor(1)).j) is int
        assert type(removal_cross_check(True, 1).j) is int
        assert edge_path(True) == edge_path(1)

    def test_float_index_is_refused_memo_or_not(self):
        reset_caches()
        with pytest.raises(TypeError):
            island_data(2.0)
        island_data(2)
        with pytest.raises(TypeError):
            island_data(2.0)
        with pytest.raises(TypeError):
            edge_path(2.0)
        with pytest.raises(ValueError, match="island index must be >= 1"):
            edge_path(0)


class TestInLine:
    def test_same_vertex(self):
        assert in_line((1, 2), (1, 2), 3) == 0

    def test_forward(self):
        assert in_line((1, 2, 3, 3), (1, 2), 3) == 2

    def test_backward_with_cancellation(self):
        assert in_line((1,), (1, 2), 2) == -1

    def test_absent(self):
        assert in_line((1, 2), (2, 1), 3) is None

    def test_bool_letter_is_refused(self):
        with pytest.raises(ValueError):
            in_line((True,), (), 1)
        with pytest.raises(ValueError):
            in_line((), (True,), 1)

    def test_float_letters_are_refused(self):
        with pytest.raises(ValueError):
            in_line((1.0, 1.0), (), 1)
        with pytest.raises(ValueError):
            in_line((1,), (1.0,), 1)

    def test_zero_letter_is_refused(self):
        with pytest.raises(ValueError):
            in_line((0,), (), 1)
        with pytest.raises(ValueError):
            in_line((1,), (0, 1), 1)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=12),
           st.lists(st.sampled_from((1, -1, 2, -2, 3, -3)), max_size=12),
           st.integers(1, 3))
    def test_prefix_cancellation_is_free_reduction(self, v, u, s):
        # v may be unreduced, and u shares a prefix with v half the time
        u = reduce_word(u)
        if len(v) % 2:
            v = list(u[:len(v)]) + v
        d = reduce_word(invert(u) + tuple(v))
        expected = (0 if not d else len(d) if set(d) == {s} else
                    -len(d) if set(d) == {-s} else None)
        assert in_line(v, u, s) == expected

    def test_agrees_with_fast_path(self):
        # the membership oracle's suffix-run shortcut against the definition
        d = island_data(9)
        for z in island_sample(9, 0):
            for s in range(1, d.level + 1):
                for r in range(-4, 5):
                    v = reduce_word(z + ((s,) * r if r > 0 else (-s,) * (-r)))
                    assert in_line(v, z, s) is not None


class TestIslandOf:
    def test_base_point_on_no_island(self):
        assert island_of(()) is None

    def test_anchors(self):
        for j in range(1, 51):
            assert island_of(anchor(j)) == j

    def test_line_vertex(self):
        v = reduce_word(anchor(9) + (3, 3))
        assert island_of(v) == 9

    def test_ray_vertices_between_islands(self):
        # ray prefixes 11 and 12 fall in the gap between the reach of
        # island 2 (lines end at prefix 10) and island 3 (starts at 13)
        from earring.words import zigzag_prefix
        assert island_of(zigzag_prefix(11)) is None
        assert island_of(zigzag_prefix(12)) is None

    def test_ray_vertices_on_island_lines(self):
        # nearby ray prefixes do lie on lines through the islands:
        # prefix 6 = reduce(anchor(1) a_2^-1 ... ) etc.
        from earring.words import zigzag_prefix
        assert island_of(zigzag_prefix(6)) == 1
        assert island_of(zigzag_prefix(7)) == 2


class TestSurvives:
    def test_base_point(self):
        assert survives(())

    def test_bare_high_letter_dies(self):
        assert not survives((3,))
        assert not survives((5,))

    def test_ray_always_survives(self):
        from earring.words import zigzag_prefix
        for n in (1, 10, 100, 500):
            assert survives(zigzag_prefix(n))

    def test_line_vertex_survives(self):
        assert survives(reduce_word(anchor(9) + (3,)))
        assert survives(reduce_word(anchor(9) + (3, 3, 3)))

    def test_leaving_line_with_high_label_dies(self):
        assert not survives(reduce_word(anchor(9) + (3, 4)))

    def test_high_label_at_anchor_dies(self):
        assert not survives(reduce_word(anchor(9) + (4,)))

    def test_unreduced_rejected(self):
        with pytest.raises(ValueError):
            survives((1, -1))

    def test_prefix_closed(self):
        v = reduce_word(anchor(9) + (3, 3))
        for t in range(len(v) + 1):
            assert survives(v[:t])


ENTRY_POINTS = pytest.mark.parametrize(
    "entry", [survives, island_of, e_set, Vertex.make, classify],
    ids=["survives", "island_of", "e_set", "Vertex.make", "classify"])


class TestInputValidation:
    @ENTRY_POINTS
    @pytest.mark.parametrize("bad", [(0,), (True,), (1, False), (1, 2, 0), (1.0,), ("1",)])
    def test_invalid_letters_rejected(self, entry, bad):
        # (True,) hashes equal to (1,): the memos must not answer for it
        entry((1,))
        entry((1, 2))
        with pytest.raises(ValueError, match="invalid letter"):
            entry(bad)

    def test_classify_refuses_a_bool_anchor_letter(self):
        # (True, 2, 1, 2, ...) equals anchor(3) letter by letter
        with pytest.raises(ValueError, match="invalid letter"):
            classify((True, 2) + anchor(3)[2:])

    @ENTRY_POINTS
    @pytest.mark.parametrize("bad", [(1, -1), (1, 2, -2), (3, -3)])
    def test_unreduced_rejected(self, entry, bad):
        with pytest.raises(ValueError, match="reduced"):
            entry(bad)

    @pytest.mark.parametrize("make", [ray_vertex, RayPrefix], ids=["ray_vertex", "RayPrefix"])
    def test_fractional_length_rejected(self, make):
        with pytest.raises(TypeError):
            make(2.5)

    @pytest.mark.parametrize("bad", [2.5, True, 1.0, "1", 0])
    def test_invalid_neighbor_letter_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid letter"):
            neighbor(base_vertex(), bad)


class A(IntEnum):
    one = 1


class I(int):
    pass


def _refusal(x):
    return "^" + re.escape(f"invalid letter {x!r}: letters are nonzero ints") + "$"


class TestIntSubclassLetters:
    """A letter is a plain int: an int subclass compares and hashes equal
    to a plain letter, so it would become the letter of a trie vertex and
    be spelled in every later answer for that word."""

    def test_survives_refuses_an_int_subclass(self):
        reset_caches()
        with pytest.raises(ValueError, match=_refusal(I(3))):
            survives((1, 2, I(3)))
        assert [type(x) for x in Vertex.make((1, 2, 1, 1)).word] == [int] * 4

    def test_make_refuses_an_int_enum(self):
        reset_caches()
        with pytest.raises(ValueError, match=_refusal(A.one)):
            Vertex.make((1, 2, 1, A.one))
        assert [type(x) for x in Vertex.make((1, 2, 1, 1)).word] == [int] * 4


class TestRefusalsIgnoreTheIndex:
    """A word with a bad letter is refused with the same message wherever
    the letter stands, whatever the word index holds, and with the index
    off: (True,), (1.0,) and (A.one,) compare and hash equal to (1,)."""

    WORD = zigzag_prefix(100) + (3, 2, 3)
    # first, inside the ray prefix, at the junction, last
    POSITIONS = (0, 5, 64, 100, 102)
    BAD = (True, False, 1.0, 2.0, A.one, I(1), 0, "1", None, (1,))

    def _refusals(self):
        for x in self.BAD:
            for i in self.POSITIONS:
                with pytest.raises(ValueError, match=_refusal(x)):
                    survives(self.WORD[:i] + (x,) + self.WORD[i + 1:])

    def test_refused_everywhere(self):
        reset_caches()
        self._refusals()

    def test_refused_everywhere_with_the_index_off(self):
        reset_caches()
        caching._limit = 0
        try:
            self._refusals()
            assert graph._index == {}
        finally:
            reset_caches()

    @pytest.mark.parametrize("x", [True, 1.0, 2.0, A.one, I(1), "1", None, (1,)], ids=repr)
    def test_refused_after_the_equal_word_is_indexed(self, x):
        reset_caches()
        for i in self.POSITIONS:
            bad = self.WORD[:i] + (x,) + self.WORD[i + 1:]
            plain = int(x) if isinstance(x, (int, float)) else 1
            good = self.WORD[:i] + (plain,) + self.WORD[i + 1:]
            with pytest.raises(ValueError, match=_refusal(x)):
                survives(bad)
            survives(good)
            assert marshal.dumps(good, 2) in graph._index
            with pytest.raises(ValueError, match=_refusal(x)):
                survives(bad)


class TestStepRefusesBadLetters:
    """`Vertex.step` refuses a letter that is not a nonzero plain int with
    `check_word`'s message, before the trie is touched: a bool, a float or
    an int subclass equal to a letter would otherwise be looked up as that
    letter's child, or made a child and spelled in every later word, and
    0 would answer a loop."""

    @pytest.mark.parametrize("x", TestRefusalsIgnoreTheIndex.BAD, ids=repr)
    def test_refused_with_and_without_the_child(self, x):
        reset_caches()
        v = Vertex.make((2,))
        with pytest.raises(ValueError, match=_refusal(x)):
            v.step(x)
        assert v._children is None
        # now the children by the plain letters 1 and 2 exist
        kids = {y: v.step(y)[1] for y in (1, 2)}
        for step in (v.step, functools.partial(neighbor, v)):
            with pytest.raises(ValueError, match=_refusal(x)):
                step(x)
        assert v._children == kids
        w = Vertex.make((2, 1))
        assert w is kids[1] and [type(y) for y in w.word] == [int, int]


def _answer(w):
    """survives and island_of on w, or the message that refuses it."""
    try:
        return survives(w), island_of(w)
    except ValueError as exc:
        return str(exc)


class TestExactKey:
    """The word index is keyed by each word's marshal encoding: a word
    gets the same answer, or `check_word`'s message, on a miss, on a hit,
    with the index off, and after the plain-int word it stands for is
    indexed."""

    WORD = TestRefusalsIgnoreTheIndex.WORD
    POSITIONS = TestRefusalsIgnoreTheIndex.POSITIONS

    def _answers(self, w, plain):
        reset_caches()
        caching._limit = 0
        try:
            off = _answer(w)
        finally:
            reset_caches()
        miss, hit = _answer(w), _answer(w)
        reset_caches()
        survives(plain)
        after = _answer(w)
        reset_caches()
        return off, miss, hit, after

    # the ends of marshal's 32-bit "i" range and past it, where it writes "l"
    @pytest.mark.parametrize("x", [2**31 - 1, 2**31, -2**31, -2**31 - 1, 2**63, 10**30],
                             ids=repr)
    def test_letters_at_the_32_bit_boundary(self, x):
        for i in self.POSITIONS:
            w = self.WORD[:i] + (x,) + self.WORD[i + 1:]
            assert self._answers(w, w) == ((False, None),) * 4, i
        survives(w)
        assert list(graph._index) == [marshal.dumps(w, 2)]

    def test_a_bool_next_to_a_float(self):
        # "T" is 1 byte and "g" 9: the stride of 5 realigns after them
        for i in self.POSITIONS[:-1]:
            w = self.WORD[:i] + (True, 1.0) + self.WORD[i + 2:]
            plain = self.WORD[:i] + (1, 1) + self.WORD[i + 2:]
            for answer in self._answers(w, plain):
                assert re.match(_refusal(True), answer), (i, answer)

    def test_a_list_and_a_tuple_share_their_vertex(self):
        reset_caches()
        for w in (zigzag_prefix(100), anchor(9), reduce_word(anchor(9) + (3, 3))):
            assert Vertex.make(list(w)) is Vertex.make(w)
            assert survives(list(w)) is survives(w)
        assert len(graph._index) == 3


class TestESet:
    def test_base_point(self):
        assert e_set(()) == {1, 2}

    def test_anchor_nine(self):
        assert e_set(anchor(9)) == {1, 2, 3}

    def test_line_vertex(self):
        assert e_set(reduce_word(anchor(9) + (3, 3))) == {1, 2, 3}

    def test_off_island_ray_vertex(self):
        from earring.words import zigzag_prefix
        assert e_set(zigzag_prefix(11)) == {1, 2}

    def test_requires_survival(self):
        with pytest.raises(ValueError):
            e_set((3,))


class TestNeighbor:
    def test_tree_step_from_base(self):
        kind, v = neighbor(base_vertex(), 1)
        assert kind == "tree"
        assert v.word == (1,)

    def test_loop_at_base(self):
        kind, v = neighbor(base_vertex(), 3)
        assert kind == "loop"
        assert v is base_vertex()

    def test_tree_edges_involutive(self):
        v = Vertex.make(anchor(9))
        for s in sorted(v.e_set):
            _, u = neighbor(v, s)
            _, back = neighbor(u, -s)
            assert back == v

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            neighbor(base_vertex(), 0)


class TestCrossCheck:
    @pytest.mark.parametrize("j", [1, 2, 9])
    def test_no_disagreements(self, j):
        report = removal_cross_check(j, 2)
        assert report.examined > 0
        assert report.disagreements == ()

    def test_far_island_is_cheap(self):
        # the closed form spells a prefix only before a letter of index
        # above 2, not at each of the 3,648 ray letters of the anchor
        t0 = time.process_time()
        report = removal_cross_check(400, 1)
        assert time.process_time() - t0 < 4
        assert (report.examined, report.removed, len(report.disagreements)) == (196, 136, 0)

    @pytest.mark.parametrize("v", [(1, 2, 1, 2, 1, 4, -4), (1, 2, 1, 2, 1, -3, 3), (3, -3)])
    def test_unreduced_word_is_refused(self, v):
        # (1, 2, 1, 2, 1, 4, -4) reduces to the anchor of island 1, which
        # the pattern keeps; read unreduced, its a_4 after the anchor
        # matches the r = 0 branch
        assert not formula_removes(reduce_word(v), 1)
        with pytest.raises(ValueError, match="expected a reduced word"):
            formula_removes(v, 1)

    def test_a1_neighbor_of_zpath_never_removed(self):
        for z in island_sample(1, 0):
            for letter in (1, -1, 2, -2):
                v = reduce_word(z + (letter,))
                if classify(v) is None:
                    assert not formula_removes(v, 1)


class TestDefinitionalLayer:
    """The definitional checks live in `earring.checks`, apart from the fast
    path: `graph` defines none of them, the module imports none of
    `graph`, `lifting` or `corefree` at its top level, and no function of
    it but `removal_cross_check` reaches a name that comes from them."""

    MOVED = ["edge_path", "island_sample", "in_line", "_line_offset", "formula_removes",
             "_removes", "CrossCheckReport", "removal_cross_check"]
    FAST = {"graph", "lifting", "corefree"}

    def test_graph_defines_no_check(self):
        assert [name for name in self.MOVED if hasattr(graph, name)] == []

    def test_checks_reach_no_fast_path_name(self):
        import ast

        from earring import checks
        assert not hasattr(checks, "island_data") and not hasattr(checks, "classify")
        with open(checks.__file__, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        # every name that an import anywhere in checks.py binds from a
        # fast-path module, or to one
        fast = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = set((node.module or "").split("."))
                fast.update(alias.asname or alias.name for alias in node.names
                            if source & self.FAST or alias.name in self.FAST)
            elif isinstance(node, ast.Import):
                fast.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                            if set(alias.name.split(".")) & self.FAST)
        # the cross-check decides membership by the fast path, so the scan
        # above sees its import; no import at the top level binds a name
        # of the fast path
        assert {"classify"} <= fast
        top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
        assert [alias.name for node in top for alias in node.names
                if (alias.asname or alias.name) in fast] == []
        # the module-level definitions, and every name that the functions
        # other than the cross-check read through them
        defs = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs.update((n.id, node) for target in targets for n in ast.walk(target)
                            if isinstance(n, ast.Name))
        roots = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                 and node.name != "removal_cross_check"]
        assert {"edge_path", "island_sample", "in_line", "formula_removes"} <= set(roots)
        reached, todo = set(), roots
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                if name in defs:
                    todo += [n.id for n in ast.walk(defs[name]) if isinstance(n, ast.Name)]
        assert {"_line_offset", "_removes"} <= reached
        assert sorted(reached & fast) == []


# --- sampled invariants ----------------------------------------------------

class TestIslandInvariants:
    def test_disjointness(self):
        owners = {}
        for j in range(1, 51):
            for v in island_sample(j, 6):
                assert owners.setdefault(v, j) == j

    def test_membership_of_samples(self):
        for j in (1, 2, 9, 17, 40):
            for v in island_sample(j, 6):
                assert island_of(v) == j

    def test_island_bound_on_labels(self):
        for j in (1, 9, 17):
            nj = island_data(j).level
            for v in island_sample(j, 6):
                es = e_set(v)
                assert {1, 2} <= es <= set(range(1, nj + 1))

    def test_high_label_neighbors_stay_on_island(self):
        for j in (9, 17, 40):
            for v in island_sample(j, 3):
                for i in e_set(v):
                    if i < 3:
                        continue
                    for letter in (i, -i):
                        w = reduce_word(v + (letter,))
                        assert island_of(w) == j

    def test_zpath_in_pruned_tree(self):
        for j in range(1, 41):
            for z in island_data(j).path:
                assert survives(z.word)


def _near_islands(jmax, radius):
    """Every reduced word within `radius` letters over a_1 .. a_{n_j+1} of
    the Z vertices, and of the line vertices with r in {+-1, +-2}, of the
    islands j <= jmax."""
    out = set()
    for j in range(1, jmax + 1):
        top = island_data(j).level + 1
        letters = [x for i in range(1, top + 1) for x in (i, -i)]
        frontier = island_sample(j, 2)
        out |= frontier
        for _ in range(radius):
            frontier = {reduce_word(v + (x,)) for v in frontier for x in letters}
            out |= frontier
    return out


class TestIslandOfAgainstClassify:
    def test_exhaustive_near_islands(self):
        # island_of reads the trie vertex, classify the word's letters; a
        # pruned word must lie on no island
        words = _near_islands(20, 2)
        pruned = 0
        for w in words:
            hit = classify(w)
            assert island_of(w) == (hit.j if hit else None)
            if not survives(w):
                pruned += 1
                assert hit is None
        assert len(words) > 10_000 and pruned > 6_000


class TestIslandHit:
    def test_hits_against_definitions(self):
        # a Z hit's word is on the edge-path; an L hit's word is
        # reduce(u . a_s^r) by the definitional line test, off the path
        words = _near_islands(20, 2)
        kinds = {"Z": 0, "L": 0}
        for w in words:
            hit = classify(w)
            if hit is None:
                continue
            kinds[hit.kind] += 1
            zset = island_sample(hit.j, 0)
            if hit.kind == "Z":
                assert w in zset and hit.u is None
            else:
                assert hit.u in zset and w not in zset
                assert hit.s <= hit.data.level
                assert in_line(w, hit.u, hit.s) == hit.r
        assert len(words) == 10_049
        assert kinds == {"Z": 51, "L": 600}

    def test_far_line_hit_answers_quickly(self):
        # R[:n] a_12 a_12 with n = 777,124,938: the hit names its line base
        # by its vertex; reading hit.u would spell n letters
        t0 = time.process_time()
        j = 41_501_135
        n = anchor_length(j)
        v = ray_vertex(n).step(12)[1].step(12)[1]
        hit = v.hit
        assert (hit.j, hit.kind, hit.s, hit.r) == (j, "L", 12, 2)
        assert hit.data.records[hit.k] is ray_vertex(n)
        assert time.process_time() - t0 < 1


def _queries(words):
    """The answers of the four word entry points, pruned words included."""
    out = []
    for w in words:
        alive = survives(w)
        out.append((alive, island_of(w),
                    sorted(e_set(w)) if alive else None,
                    Vertex.make(w).word if alive else None))
    return out


class TestCacheContract:
    """EARRING_CACHE_BYTES bounds the word index; capping it changes no
    answer."""

    CAP = 65_536

    @staticmethod
    def _words():
        """Words within two letters over a_1 .. a_4 of the anchors j <= 30
        and of their prefixes one letter shorter."""
        letters = [x for i in range(1, 5) for x in (i, -i)]
        tails = [()] + [(x,) for x in letters] + [(x, y) for x in letters
                                                  for y in letters if x != -y]
        words = []
        for j in range(1, 31):
            a = anchor(j)
            for cut in (0, 1):
                words += [reduce_word(a[:len(a) - cut] + t) for t in tails]
        return list(dict.fromkeys(words))

    def test_capped_index_stays_under_cap(self, monkeypatch):
        words = self._words()
        assert len(words) >= 2_000
        try:
            reset_caches()
            expected = _queries(words)
            monkeypatch.setenv("EARRING_CACHE_BYTES", str(self.CAP))
            reset_caches()
            costs = 0
            for w, want in zip(words, expected):
                assert _queries([w]) == [want]
                assert graph._index_bytes <= self.CAP
                assert len(graph._index) * 128 <= graph._index_bytes
                costs += 128 + 8 * len(w)
            # the index was cleared many times over
            assert costs > 10 * self.CAP
        finally:
            monkeypatch.undo()
            reset_caches()

    def test_zero_cap_keeps_index_empty(self, monkeypatch):
        words = self._words()[:300]
        try:
            reset_caches()
            expected = _queries(words)
            monkeypatch.setenv("EARRING_CACHE_BYTES", "0")
            reset_caches()
            assert _queries(words) == expected
            assert graph._index == {} and graph._index_bytes == 0
        finally:
            monkeypatch.undo()
            reset_caches()

    def test_oversize_entry_leaves_index_as_is(self, monkeypatch):
        # a word whose entry alone costs more than the cap is answered
        # without clearing what the index holds
        from earring.words import zigzag_prefix
        long_word = zigzag_prefix(9000)
        assert 128 + 8 * len(long_word) > self.CAP
        try:
            reset_caches()
            want = survives(long_word)
            monkeypatch.setenv("EARRING_CACHE_BYTES", str(self.CAP))
            reset_caches()
            for j in range(1, 30):
                survives(anchor(j))
            kept, kept_bytes = dict(graph._index), graph._index_bytes
            assert kept and kept_bytes <= self.CAP
            assert survives(long_word) == want
            assert graph._index == kept and graph._index_bytes == kept_bytes
        finally:
            monkeypatch.undo()
            reset_caches()


class TestLabelSymmetry:
    def test_in_out_symmetry(self):
        samples = [(), anchor(1), anchor(9), reduce_word(anchor(9) + (3, 3))]
        from earring.words import zigzag_prefix
        samples += [zigzag_prefix(n) for n in (3, 6, 11)]
        for v in samples:
            hit = classify(v)
            top = island_data(hit.j).level + 2 if hit else 4
            for i in range(1, top + 1):
                fwd = survives(reduce_word(v + (i,)))
                bwd = survives(reduce_word(v + (-i,)))
                assert fwd == bwd == (i in e_set(v))


class TestRayAgreement:
    @given(st.lists(st.integers(min_value=-3, max_value=3).filter(bool), max_size=40).map(tuple))
    def test_matches_naive(self, w):
        p = 0
        while p < len(w) and w[p] == (1 if p % 2 == 0 else 2):
            p += 1
        assert ray_agreement(w) == p


@functools.lru_cache(maxsize=None)
def _spelled_island(j):
    """The edge-path words of island j from the definitional twin, the
    reductions of anchor(j) . w_j[:i] for 0 <= i <= |w_j|, and the level
    n_j."""
    return island_sample(j, 0), edge_path(j)[1]


def _definitional_island(v):
    """(j, kind) for the reduced word v, or None, from the definitions
    alone: v is an edge-path vertex z of island j (kind 'Z'), or
    reduce(z^-1 . v) is a nonzero power of one a_s with s <= n_j (kind
    'L'), as `in_line` defines it.  Every island j with anchor_length(j) -
    2|w_j| - 1 <= |v| is tried, and v may lie on one at most."""
    found = []
    j = 1
    while anchor_length(j) - 2 * len(nth_word(j)) - 1 <= len(v):
        path, level = _spelled_island(j)
        if v in path:
            found.append((j, "Z"))
        else:
            for z in path:
                d = reduce_word(invert(z) + v)
                if d and len(set(d)) == 1 and abs(d[0]) <= level:
                    found.append((j, "L"))
                    break
        j += 1
    assert len(found) <= 1, (v, found)
    return found[0] if found else None


class TestDefinitionalMembership:
    """Island membership from `classify` against `_definitional_island`,
    which spells every island from its anchor and word and uses none of
    the trie, the anchor index or the two-candidate window."""

    def test_exhaustive_near_edge_paths(self):
        # every reduced word of length <= 2 over a_1 .. a_5, grafted onto
        # every edge-path vertex of the islands j <= 30
        letters = [x for i in range(1, 6) for x in (i, -i)]
        grafts = [()] + [(x,) for x in letters] + [(x, y) for x in letters for y in letters
                                                   if x != -y]
        words = {reduce_word(z + g) for j in range(1, 31) for z in _spelled_island(j)[0]
                 for g in grafts}
        kinds = {"Z": 0, "L": 0, None: 0}
        disagreements = []
        for v in sorted(words):
            hit = classify(v)
            fast = (hit.j, hit.kind) if hit else None
            slow = _definitional_island(v)
            kinds[slow and slow[1]] += 1
            if fast != slow:
                disagreements.append((v, fast, slow))
        assert not disagreements, (len(disagreements), disagreements[:3])
        assert len(words) == 7_078
        assert kinds == {"Z": 80, "L": 456, None: 6_542}


class TestEdgePathTwin:
    """Every edge-path vertex island_data(j).path[i] of every j of weight
    <= 8 against the free reduction of anchor(j) . w_j[:i], computed from
    the words layer alone by `checks.edge_path`."""

    def test_weight_8(self):
        reset_caches()
        t0 = time.process_time()
        j = 0
        for wt in range(2, 9):
            for wj in words_of_weight(wt):
                j += 1
                twin, level = edge_path(j)
                data = island_data(j)
                path = data.path
                assert len(path) == len(twin) and data.level == level, j
                for i, (z, (p, tail)) in enumerate(zip(path, twin)):
                    assert (z.depth, z.ray_len, z.tail) == (p + len(tail), p, tail), (j, i)
        assert j == 17_254
        reset_caches()
        assert time.process_time() - t0 < 2.0

    def test_records_weight_6(self):
        # the spelled edge-path, the words of island_data(j).records,
        # against the twin's; at weight 7 spelling them alone takes
        # 2.1 * 10^8 letters, in about 3 s of CPU
        reset_caches()
        j = 0
        for wt in range(2, 7):
            for _ in words_of_weight(wt):
                j += 1
                assert {z.word for z in island_data(j).records} == island_sample(j, 0), j
        assert j == 578
        reset_caches()
