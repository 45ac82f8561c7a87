import gc
import importlib.util
import itertools
import os
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from earring import words
from earring.caching import reset_caches
from earring.words import (
    anchor,
    anchor_index,
    anchor_length,
    anchor_window,
    check_word,
    concat,
    cumulative_length,
    format_word,
    index_of,
    invert,
    is_reduced,
    nth_word,
    parse_word,
    reduce_word,
    weight,
    word_length,
    words_of_weight,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
word_st = st.lists(letters, max_size=12).map(tuple)


def naive_reduce(w):
    # independent oracle: delete one cancelling pair at a time, to fixpoint
    w = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i:i + 2]
                changed = True
                break
    return tuple(w)


class TestReduce:
    def test_empty(self):
        assert reduce_word(()) == ()

    def test_single_cancellation(self):
        assert reduce_word((1, -1)) == ()

    def test_inner_cancellation(self):
        assert reduce_word((1, 2, -2, 3)) == (1, 3)
        assert naive_reduce((1, 2, -2, 3)) == (1, 3)

    @given(word_st)
    def test_matches_naive_oracle(self, w):
        assert reduce_word(w) == naive_reduce(w)

    @given(word_st)
    def test_idempotent(self, w):
        assert reduce_word(reduce_word(w)) == reduce_word(w)

    @given(word_st)
    def test_word_times_inverse_cancels(self, w):
        assert reduce_word(concat(w, invert(w))) == ()

    @given(word_st)
    def test_result_is_reduced(self, w):
        assert is_reduced(reduce_word(w))

    @given(word_st)
    def test_is_reduced_matches_naive_oracle(self, w):
        assert is_reduced(w) == (naive_reduce(w) == w)


class TestConcatInvert:
    def test_invert_empty(self):
        assert invert(()) == ()

    def test_invert_pair(self):
        assert invert((1, 2)) == (-2, -1)

    def test_concat_does_not_reduce(self):
        assert concat((1,), (-1,)) == (1, -1)


class TestEnumeration:
    def test_first_words(self):
        assert nth_word(1) == (1,)
        assert nth_word(2) == (-1,)
        assert nth_word(3) == (2,)

    def test_a3_is_ninth(self):
        assert index_of((3,)) == 9
        assert nth_word(9) == (3,)

    def test_index_of_inverts_enumeration(self):
        for j in range(1, 10_001):
            assert index_of(nth_word(j)) == j

    def test_index_of_rejects_empty(self):
        with pytest.raises(ValueError):
            index_of(())

    def test_nth_word_rejects_zero(self):
        with pytest.raises(ValueError):
            nth_word(0)

    @pytest.mark.parametrize("f", [nth_word, word_length, cumulative_length, anchor_length])
    def test_non_integer_index_rejected(self, f):
        with pytest.raises(TypeError):
            f(2.5)

    def test_length_steps_bounded(self):
        # consecutive lengths never jump up by more than one
        prev = len(nth_word(1))
        for j in range(2, 3000):
            cur = len(nth_word(j))
            assert cur <= prev + 1
            prev = cur

    def test_weights_nondecreasing(self):
        prev = weight(nth_word(1))
        for j in range(2, 3000):
            cur = weight(nth_word(j))
            assert cur >= prev
            prev = cur


def reference_words():
    """The canonical enumeration spelled out word by word, by weight, then
    length, then lexicographically under a_1 < a_1^-1 < a_2 < ...: the
    definition the closed forms are checked against."""
    wt = 2
    while True:
        for length in range(1, wt):
            m = wt - length
            for digits in itertools.product(range(2 * m), repeat=length):
                if max(digits) >= 2 * m - 2:
                    yield tuple(d // 2 + 1 if d % 2 == 0 else -(d // 2 + 1) for d in digits)
        wt += 1


class TestWordsOfWeight:
    """The sweep generator against the spelled-out definition and the
    random-access twins, word for word."""

    def test_matches_reference_and_index_arithmetic(self):
        reference = reference_words()
        j = 0
        for wt in range(2, 10):
            for w in words_of_weight(wt):
                j += 1
                assert w == next(reference), (wt, j)
                assert nth_word(j) == w and index_of(w) == j, (wt, j)
            # the weight ends where the index arithmetic says it does
            assert weight(nth_word(j + 1)) == wt + 1, wt
        assert j == 108_004


FAR = [10**12, 41_501_135, 4 * 10**39]


class TestClosedForm:
    def test_matches_reference_enumeration(self):
        total = 0
        for j, w in zip(range(1, 10**5 + 1), reference_words()):
            assert nth_word(j) == w
            assert index_of(w) == j
            assert word_length(j) == len(w)
            assert anchor_length(j) == 2 * total + 3 * j + len(w)
            total += len(w)
            assert cumulative_length(j) == total

    @pytest.mark.parametrize("j", FAR)
    def test_far_round_trip(self, j):
        assert index_of(nth_word(j)) == j

    @pytest.mark.parametrize("j", FAR)
    def test_far_anchor_step(self, j):
        gap = anchor_length(j + 1) - anchor_length(j)
        assert gap == len(nth_word(j)) + 3 + len(nth_word(j + 1))

    def test_anchor_index_matches_scan(self):
        # walk p upward, moving j past every anchor at or before p
        j, top = 0, anchor_length(20_000)
        for p in range(top + 1):
            while anchor_length(j + 1) <= p:
                j += 1
            assert anchor_index(p) == j
        assert j == 20_000

    @pytest.mark.parametrize("j", FAR)
    def test_far_anchor_index(self, j):
        assert anchor_index(anchor_length(j)) == j
        assert anchor_index(anchor_length(j) - 1) == j - 1


def _perfbench_reference():
    """perfbench/reference.py, written from the ordering rule in the words
    module's docstring and not from its code."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench",
                        "reference.py")
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFarIndexAgainstReference:
    """The index arithmetic past the words that TestClosedForm spells,
    against an independent closed form."""

    def test_index_arithmetic(self):
        ref = _perfbench_reference()
        # 300 seeded indices, even in log scale over [10^5, 10^12), and a far one
        rng = random.Random(19)
        sample = [int(10 ** rng.uniform(5, 12)) for _ in range(300)] + [4 * 10**39]
        assert min(sample) >= 10**5
        for j in sample:
            w = ref.nth_word(j)
            assert nth_word(j) == w, j
            assert index_of(w) == j, j
            assert cumulative_length(j) == ref.cumulative_length(j), j
            n = ref.anchor_length(j)
            assert anchor_length(j) == n, j
            assert (anchor_index(n), anchor_index(n - 1)) == (j, j - 1), j


def _class_bounds(max_weight):
    """(length, m, first index, last index) of every class of weight up to
    max_weight, in enumeration order, counted from the class sizes."""
    before = 0
    for wt in range(2, max_weight + 1):
        for length in range(1, wt):
            m = wt - length
            count = (2 * m) ** length - (2 * m - 2) ** length
            yield length, m, before + 1, before + count
            before += count


class TestClassBoundaries:
    """Ranking and unranking at the edges of the (length, m) classes, where
    the first high digit is the last letter or the first, and in the m = 1
    classes, where every digit is high."""

    def test_first_and_last_word_of_every_class(self):
        ref = _perfbench_reference()
        for length, m, first, last in _class_bounds(40):
            # a_1^(length-1) a_m, and (a_m^-1)^length
            lo = (1,) * (length - 1) + (m,) if m > 1 else (1,) * length
            hi = (-m,) * length
            assert ref.nth_word(first) == lo and ref.nth_word(last) == hi, (length, m)
            assert (nth_word(first), nth_word(last)) == (lo, hi), (length, m)
            assert (index_of(lo), index_of(hi)) == (first, last), (length, m)

    def test_every_word_of_the_m1_classes(self):
        for length, m, first, last in _class_bounds(13):
            if m == 1:
                spelled = list(itertools.product((1, -1), repeat=length))
                assert len(spelled) == last - first + 1
                for j, w in enumerate(spelled, first):
                    assert nth_word(j) == w
                    assert index_of(w) == j

    def test_heavy_round_trip(self):
        ref = _perfbench_reference()
        # a_1^k, a_k, and a_k^-1 a_1^(k-2), of weights 100 to 199
        heavy = [(1,) * 99, (1,) * 198, (100,), (199,), (-60,) + (1,) * 58,
                 (-100,) + (1,) * 98, (2, -150, 150, 1)]
        # CPU time, which other processes on the machine do not move
        t0 = time.process_time()
        for w in heavy:
            assert 100 <= weight(w) <= 200
            j = index_of(w)
            assert nth_word(j) == w and ref.nth_word(j) == w
        assert time.process_time() - t0 < 2.0


def _three_call_window(p):
    """The window rule by anchor_index, anchor_length and word_length: the
    last anchor at or before p if it is within |w_j| + 1 of p, else the
    next one if it is, else None."""
    j = anchor_index(p)
    if j == 0 or p - anchor_length(j) > word_length(j) + 1:
        j += 1
        if anchor_length(j) - p > word_length(j) + 1:
            return None
    return j, anchor_length(j)


class TestAnchorWindow:
    """anchor_window, one class lookup per candidate, against the rule it
    replaces, which looks each candidate up three times."""

    def test_every_position_below_weight_8(self):
        first = sum(last - f + 1 for *_, f, last in _class_bounds(7)) + 1
        assert weight(nth_word(first)) == 8 and weight(nth_word(first - 1)) == 7
        found = set()
        for p in range(anchor_length(first)):
            near = anchor_window(p)
            assert near == _three_call_window(p), p
            found.add(near and near[0])
        # the windows tile the ray from p = 2: only p = 0 and 1 have none
        assert anchor_window(0) is anchor_window(1) is None
        assert found == {None} | set(range(1, first + 1))

    def test_around_far_anchors_and_class_boundaries(self):
        rng = random.Random(32)
        js = [int(10 ** rng.uniform(5, 12)) for _ in range(2000)] + FAR
        for _, _, first, last in _class_bounds(40):
            js += [first, last]
        for j in js:
            a, n = anchor_length(j), word_length(j)
            for p in range(a - n - 3, a + n + 4):
                assert anchor_window(p) == _three_call_window(p), (j, p)
            # the window is |w_j| + 1 either side of the anchor, and the
            # neighbours' windows start right past it
            assert anchor_window(a - n - 1) == anchor_window(a + n + 1) == (j, a), j
            before = (j - 1, anchor_length(j - 1)) if j > 1 else None
            assert anchor_window(a - n - 2) == before, j
            assert anchor_window(a + n + 2) == (j + 1, anchor_length(j + 1)), j


class TestWeightBound:
    """The class table stops at words.MAX_WEIGHT: a heavier word, or an
    index past the words it lists, raises ValueError before the table
    grows."""

    @pytest.mark.parametrize("w", [(words.MAX_WEIGHT,), (1,) * words.MAX_WEIGHT,
                                   (2, -1000), (99999999999999999999,)])
    def test_index_of_refuses_a_heavier_word_at_once(self, w):
        classes = len(words._classes)
        t0 = time.process_time()
        with pytest.raises(ValueError, match=f"weight {weight(w)};"):
            index_of(w)
        assert time.process_time() - t0 < 0.1
        assert len(words._classes) == classes

    def test_the_bound_is_the_table_weight(self, monkeypatch):
        nth_word(100)
        top = sum(words._classes[-1][:2])  # the weight of the last class
        last = words._firsts[-1]           # the words of weight <= top
        monkeypatch.setattr(words, "MAX_WEIGHT", top)
        assert index_of(nth_word(last)) == last
        assert weight(nth_word(last)) == top
        for far in (lambda: nth_word(last + 1), lambda: index_of((top,)),
                    lambda: anchor_index(anchor_length(last) + 10**6)):
            with pytest.raises(ValueError, match=f"stops at weight {top}"):
                far()
        assert words._firsts[-1] == last

    def test_both_ends_of_the_letter_table(self):
        # the heaviest class reads table entries 764 and 765, a_383 and its
        # inverse; every letter the index takes is the entry at its digit
        j = index_of((383,))
        assert nth_word(j) == (383,) and nth_word(j + 1) == (-383,)
        assert len(words._LETTERS) == 2 * words.MAX_WEIGHT
        for i in range(1, words.MAX_WEIGHT + 1):
            for x in (i, -i):
                assert words._LETTERS[2 * x - 2 if x > 0 else -2 * x - 1] == x
        assert next(words_of_weight(words.MAX_WEIGHT)) == (383,)
        with pytest.raises(ValueError, match=f"stops at weight {words.MAX_WEIGHT}"):
            next(words_of_weight(words.MAX_WEIGHT + 1))
        reset_caches()  # the table of weight 384 holds about 52 MB


class TestClassTableReset:
    def test_reset_caches_drops_the_class_table(self):
        reset_caches()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index_of((words.MAX_WEIGHT - 1,))  # the heaviest word the index takes
            grown = tracemalloc.get_traced_memory()[0] - before
            reset_caches()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown > 20 * 2**20
        assert kept <= 2**20
        assert (len(words._classes), words._firsts) == (0, [0])
        assert nth_word(10) == (-3,) and index_of((-3,)) == 10


class TestAnchor:
    def test_first_anchor(self):
        assert anchor(1) == (1, 2, 1, 2)
        assert anchor_length(1) == 4

    def test_second_anchor_length(self):
        assert anchor_length(2) == 9

    def test_length_formula(self):
        for j in range(1, 200):
            expected = 2 * sum(len(nth_word(i)) for i in range(1, j)) + 3 * j + len(nth_word(j))
            assert anchor_length(j) == expected
            assert len(anchor(j)) == expected

    def test_alternation(self):
        for j in (1, 5, 40):
            a = anchor(j)
            assert a[0] == 1
            assert all(a[p] == (1 if p % 2 == 0 else 2) for p in range(len(a)))

    def test_separation(self):
        # anchors of distinct islands leave at least three ray edges between them
        for i in range(1, 30):
            for j in range(i + 1, 31):
                gap = anchor_length(j) - anchor_length(i)
                assert gap >= len(nth_word(j)) + len(nth_word(i)) + 3


class TestTextFormat:
    def test_round_trip(self):
        assert parse_word("1 -2, 3") == (1, -2, 3)
        assert parse_word("e") == ()
        assert format_word(()) == "e"
        assert format_word((1, -2)) == "1 -2"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            parse_word("0")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_word("a b")


class TestCheckWord:
    def test_valid_letters_pass(self):
        assert check_word([1, -2, 3]) == (1, -2, 3)

    @pytest.mark.parametrize("bad", [(0,), (True,), (1, False), (1.0,), ("1",)])
    def test_invalid_letters_rejected(self, bad):
        with pytest.raises(ValueError):
            check_word(bad)

    def test_index_of_refuses_an_int_enum(self):
        # an IntEnum member is an int subclass and equals its value: it is
        # not a letter, here or in the trie
        from enum import IntEnum
        from earring.graph import Vertex
        A = IntEnum("A", {"three": 3})
        reset_caches()
        with pytest.raises(ValueError, match=r"^invalid letter <A\.three: 3>: letters are "
                                             r"nonzero ints$"):
            index_of((A.three,))
        assert [type(x) for x in Vertex.make((1, 2, 1, 1)).word] == [int] * 4
