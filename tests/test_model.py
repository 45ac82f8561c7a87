"""A stateful model of the trie contract.

A `RuleBasedStateMachine` interleaves what the pointwise tests of the
trie check one at a time: making vertices near the anchors, stepping
from held vertices (of the current trie, or of one before a reset),
making ray vertices, changing the word index's byte cap, resetting the
caches, and dropping vertices so that the weak ray registry loses them.
After each rule it checks the contract stated in `earring.caching`:

- every held vertex spells the word it was made for, in plain ints;
- every held vertex of the current trie is `Vertex.make` of its word;
- only a vertex from before a reset may raise on a step, and then with
  the staleness message;
- a word with a bool, float or IntEnum letter is refused with the same
  message by every word query, whatever the word index holds;
- `survives` and `e_set` give the same answers for every held word, and
  every word the model asked about, with the word index emptied and
  capped at 0;
- a held vertex of the current trie lies on the island, or on none, that
  `_definitional_island` of tests/test_graph.py finds from the
  definitions alone.

Tier-1 runs a fixed, derandomized set of examples.  A longer run:

    PYTHONPATH=src:tests python -c "from test_model import run; run(1000)"
"""

import functools
import gc
from enum import IntEnum

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant, precondition,
                                 rule, run_state_machine_as_test)

from earring import caching, graph
from earring.caching import reset_caches
from earring.graph import Vertex, e_set, island_of, ray_vertex, survives
from earring.words import anchor, anchor_length, reduce_word, zigzag_prefix
from test_graph import _definitional_island

ANCHORS = (1, 2, 9, 31, 40)
LIMITS = (None, 0, 256, 4096)
MAX_HELD = 24

# members equal to the letters 1..6, which a trie must never take as letters
Letter = IntEnum("Letter", {f"a{i}": i for i in range(1, 7)})

letters = st.integers(1, 6).flatmap(lambda i: st.sampled_from((i, -i)))


def _bad_variants(x: int) -> list:
    """Values equal to the letter x that are not plain ints."""
    out = [float(x)]
    if x == 1:
        out.append(True)
    if x > 0:
        out.append(Letter(x))
    return out


# a word's island is fixed, and the invariant asks each held word after every step
_island = functools.cache(_definitional_island)


def _answers(w):
    """(survives(w), e_set(w)), with None for the e_set of a pruned word."""
    alive = survives(w)
    return alive, e_set(w) if alive else None


class TrieModel(RuleBasedStateMachine):
    """Held vertices, each with the word it was made for and the number of
    the trie (counted in resets) it was made in."""

    @initialize()
    def fresh_trie(self):
        reset_caches()
        self.trie = 0
        self.held = []
        self.asked = []

    def _ask(self, w):
        self.asked.append(w)
        del self.asked[:-MAX_HELD]

    def _hold(self, v, w):
        self.held.append((v, w, self.trie))
        del self.held[:-MAX_HELD]

    @rule(j=st.sampled_from(ANCHORS), shift=st.integers(-3, 3),
          tail=st.lists(letters, max_size=4))
    def make(self, j, shift, tail):
        w = reduce_word(zigzag_prefix(anchor_length(j) + shift) + tuple(tail))
        self._ask(w)
        if survives(w):
            v = Vertex.make(w)
            assert v.word == w
            self._hold(v, w)
        else:
            assert island_of(w) is None

    @precondition(lambda self: self.held)
    @rule(pick=st.integers(0, MAX_HELD - 1), x=letters)
    def step(self, pick, x):
        v, w, trie = self.held[pick % len(self.held)]
        self._ask(reduce_word(w + (x,)))
        try:
            kind, u = v.step(x)
        except ValueError as exc:
            assert trie != self.trie, (w, x, exc)
            assert str(exc) == graph._STALE
            return
        assert u.word == (reduce_word(w + (x,)) if kind == "tree" else w)
        if kind == "loop":
            assert u is v
        if trie == self.trie:
            self._hold(u, u.word)

    @rule(n=st.one_of(st.integers(0, 12), st.sampled_from(ANCHORS).map(anchor_length)))
    def ray(self, n):
        v = ray_vertex(n)
        assert v.word == zigzag_prefix(n)
        self._hold(v, v.word)

    @rule(limit=st.sampled_from(LIMITS))
    def set_limit(self, limit):
        caching._limit = limit

    @rule()
    def reset(self):
        reset_caches()
        self.trie += 1

    @rule(drop=st.sets(st.integers(0, MAX_HELD - 1), max_size=MAX_HELD))
    def drop(self, drop):
        self.held = [h for k, h in enumerate(self.held) if k not in drop]
        gc.collect()

    @rule(j=st.sampled_from(ANCHORS), pick=st.integers(0, MAX_HELD), data=st.data())
    def bad_letter(self, j, pick, data):
        # a held word, or an anchor, with one letter replaced by an equal
        # value that is not a plain int
        w = self.held[pick][1] if pick < len(self.held) else anchor(j)
        if not w:
            return
        i = data.draw(st.integers(0, len(w) - 1))
        bad = data.draw(st.sampled_from(_bad_variants(w[i])))
        word = w[:i] + (bad,) + w[i + 1:]
        message = f"invalid letter {bad!r}: letters are nonzero ints"
        for query in (survives, island_of, e_set, Vertex.make):
            try:
                query(word)
            except ValueError as exc:
                assert str(exc) == message, (query.__name__, exc)
            else:
                raise AssertionError(f"{query.__name__} answered {word[:8]}...")

    @invariant()
    def held_vertices_spell_their_words(self):
        for v, w, trie in self.held:
            got = v.word
            assert got == w
            assert all(type(x) is int for x in got), got
            if trie == self.trie:
                assert Vertex.make(w) is v, w

    @invariant()
    def answers_ignore_the_index_and_match_the_definitions(self):
        words = [w for _, w, _ in self.held] + self.asked
        expected = [_answers(w) for w in words]
        # a cap of 0 stores nothing, but an entry stored before still
        # answers, so the queries run against an empty index
        saved = caching._limit, graph._index, graph._index_bytes
        caching._limit, graph._index, graph._index_bytes = 0, {}, 0
        try:
            assert [_answers(w) for w in words] == expected
        finally:
            caching._limit, graph._index, graph._index_bytes = saved
        for v, w, trie in self.held:
            if trie == self.trie:
                hit = v.hit
                assert ((hit.j, hit.kind) if hit is not None else None) == _island(w), w

    def teardown(self):
        caching._limit = None
        reset_caches()


SETTINGS = settings(max_examples=30, stateful_step_count=30, derandomize=True, deadline=None)

TestTrieModel = TrieModel.TestCase
TestTrieModel.settings = SETTINGS


def run(examples: int) -> None:
    """The model at `examples` examples, derandomized, as a plain call."""
    run_state_machine_as_test(TrieModel, settings=settings(SETTINGS, max_examples=examples))
