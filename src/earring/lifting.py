"""Combinatorial lifting of finite edge-words and membership in the
subgroup K of loops whose lift returns to the base point.

Each letter of a word is traversed as a tree edge when its label belongs
to the current vertex's tree-label set, and as a loop otherwise; the
lift is the deterministic fold of that step rule.  A step neither copies
nor hashes the vertex word, so a lift is linear in the word's length.
Labels 1 and 2 are tree labels at every vertex, so a step by a_1^{+-1} or
a_2^{+-1} is plain free reduction; only a step by a higher letter makes
the current vertex locate its island, once.  The same fact lets a run of
the zig-zag ray, or of its inverse, be lifted as one segment: see
`lift_ray_inverse`.  `RayPrefix` is such a ray prefix, kept as its length.
A `LiftTrace` keeps only its start, word and endpoint: its per-letter
steps are replayed from the start on each read.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from typing import NamedTuple, Optional

from .graph import Vertex, base_vertex, ray_vertex
from .words import Word, _ray_letter, check_word, ray_run, zigzag_prefix


class LiftStep(NamedTuple):
    letter: int
    kind: str        # 'tree' or 'loop'
    at: Vertex       # position after the step


def _fold(w: Word, cur: Vertex) -> Vertex:
    """The endpoint of the lift of w from cur, one step per letter."""
    for letter in w:
        _, cur = cur.step(letter)
    return cur


class LiftTrace(NamedTuple):
    """The lift of `word` from `start`, a named tuple of start, word and
    endpoint.  `steps` replays the lift with the same step rule on each
    read; nothing of it is kept."""

    start: Vertex
    word: Word
    endpoint: Vertex

    @property
    def steps(self) -> tuple:
        """One LiftStep per letter of the word."""
        out = []
        cur = self.start
        for letter in self.word:
            kind, cur = cur.step(letter)
            out.append(LiftStep(letter, kind, cur))
        return tuple(out)

    def projection(self) -> Word:
        """The traversed labels; equals the input word."""
        return self.word


def lift_word(w: Word, start: Optional[Vertex] = None) -> LiftTrace:
    """The unique lift of the edge-word w from the given start vertex."""
    w = check_word(w)
    origin = start if start is not None else base_vertex()
    return LiftTrace(origin, w, _fold(w, origin))


def endpoint(w: Word, start: Optional[Vertex] = None) -> Vertex:
    """Final vertex of the lift of w."""
    return _fold(check_word(w), start if start is not None else base_vertex())


def in_k(w: Word) -> bool:
    """True iff the lift of w from the base point ends at the base point."""
    return endpoint(w) is base_vertex()


def lift_ray_inverse(v: Vertex, n: int) -> tuple:
    """The lift of R[:n]^{-1} from v, R = a_1 a_2 a_1 ... the zig-zag ray,
    as (u, m): it ends at the vertex whose word is u.word + R[:m]^{-1},
    the free reduction of v.word + R[:n]^{-1}.  Every letter is a tree
    step, so only the cancellation is computed: letter by letter through
    v's letters past its ray agreement, then in one step along the ray.
    Making that end vertex takes m more steps; see `endpoint`."""
    m = operator.index(n)  # the letters of R[:n]^{-1} not yet lifted
    if m < 0:
        raise ValueError("a ray prefix has a length >= 0")
    while m and v.depth > v.ray_len and v.letter == _ray_letter(m - 1):
        v = v.parent
        m -= 1
    # on the ray, v = R[:q] ends in R[q-1], which cancels R[m-1]^{-1}
    # exactly when q and m have the same parity; then so do the letters
    # before both
    if m and v.depth == v.ray_len and (v.depth - m) % 2 == 0:
        c = min(v.depth, m)
        return ray_vertex(v.depth - c), m - c
    return v, m


class RayPrefix(Sequence):
    """The ray prefix R[:n] = a_1 a_2 a_1 ... of length n, kept as its
    length: indexing and slicing spell only the letters asked for, and it
    equals the spelled tuple.  Hashing it spells it, to agree with that
    tuple's hash."""

    __slots__ = ("length",)

    def __init__(self, n: int):
        n = operator.index(n)
        if n < 0:
            raise ValueError("a ray prefix has a length >= 0")
        self.length = n

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i):
        # range applies Python's index rules: negative indices, bounds,
        # __index__ and every slice
        try:
            r = range(self.length)[i]
        except IndexError:
            raise IndexError("ray prefix index out of range") from None
        if isinstance(r, int):
            return _ray_letter(r)
        return ray_run(r.start, r.stop) if r.step == 1 else tuple(map(_ray_letter, r))

    def __iter__(self):
        return iter(zigzag_prefix(self.length))

    def __eq__(self, other):
        if isinstance(other, RayPrefix):
            return self.length == other.length
        if isinstance(other, tuple):
            return len(other) == self.length and other == zigzag_prefix(self.length)
        return NotImplemented

    def __hash__(self):
        return hash(zigzag_prefix(self.length))

    def __add__(self, other):
        return zigzag_prefix(self.length) + tuple(other)

    def __repr__(self):
        return f"RayPrefix({self.length})"
