"""Combinatorial lifting of finite edge-words and membership in the
subgroup K of loops whose lift returns to the base point.

Each letter of a word is traversed as a tree edge when its label belongs
to the current vertex's tree-label set, and as a loop otherwise; the
lift is the deterministic fold of that step rule.  A step neither copies
nor hashes the vertex word, so a lift is linear in the word's length.
Labels 1 and 2 are tree labels at every vertex, so a step by a_1^{+-1} or
a_2^{+-1} is plain free reduction; only a step by a higher letter makes
the current vertex locate its island, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .graph import Vertex, base_vertex
from .words import Word, check_word


class LiftStep(NamedTuple):
    letter: int
    kind: str        # 'tree' or 'loop'
    at: Vertex       # position after the step


@dataclass(frozen=True)
class LiftTrace:
    start: Vertex
    steps: tuple     # of LiftStep, one per input letter

    @property
    def endpoint(self) -> Vertex:
        return self.steps[-1].at if self.steps else self.start

    def projection(self) -> Word:
        """Read the traversed labels back off; equals the input word."""
        return tuple(s.letter for s in self.steps)


def lift_word(w: Word, start: Optional[Vertex] = None) -> LiftTrace:
    """The unique lift of the edge-word w from the given start vertex."""
    w = check_word(w)
    origin = start if start is not None else base_vertex()
    cur = origin
    steps = []
    for letter in w:
        kind, cur = cur.step(letter)
        steps.append(LiftStep(letter, kind, cur))
    return LiftTrace(origin, tuple(steps))


def endpoint(w: Word, start: Optional[Vertex] = None) -> Vertex:
    """Final vertex of the lift of w."""
    w = check_word(w)
    cur = start if start is not None else base_vertex()
    for letter in w:
        _, cur = cur.step(letter)
    return cur


def in_k(w: Word) -> bool:
    """True iff the lift of w from the base point ends at the base point."""
    return endpoint(w) == base_vertex()
