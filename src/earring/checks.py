"""Definitional checks of the pruned graph: the island twin `edge_path`
and `island_sample`, the line test `in_line`, the closed-form removal
pattern `formula_removes`, and the cross-check of that pattern against
the prose removal rule.

They are kept apart from the fast path in `graph` on purpose, as slow
twins to test it against, and are loaded on first use: `import earring`
does not load this module.  Every function is built from `words` alone,
and the module imports nothing from `graph`, `lifting` or `corefree`:
the cross-check decides island membership from the island's own
spelled words.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import NamedTuple, Optional

from . import words
from .words import (Word, _ray_letter, anchor_length, check_index, check_word, invert,
                    is_reduced, nth_word, reduce_word, zigzag_prefix)


# --- the island twin ---------------------------------------------------------

def edge_path(j: int) -> tuple:
    """(path, n_j) for island j: path holds the free reductions of
    R[:n] . w_j[:i], i = 0..|w_j|, in walk order with repeats, R the
    zig-zag ray and n = anchor_length(j), each as (ray-prefix length p,
    tail): the reduced word is R[:p] followed by the tail, whose first
    letter is not R's letter p.  The anchor is never spelled."""
    j = operator.index(j)  # True is island 1, and 2.0 is refused
    if j < 1:
        raise ValueError("island index must be >= 1")
    wj = nth_word(j)
    p, tail = anchor_length(j), []
    path = [(p, ())]
    for x in wj:
        if tail:
            if x == -tail[-1]:
                tail.pop()
            else:
                tail.append(x)
        elif p and x == -_ray_letter(p - 1):
            p -= 1          # cancels R's letter p - 1
        elif x == _ray_letter(p):
            p += 1          # is R's letter p
        else:
            tail.append(x)
        path.append((p, tuple(tail)))
    return tuple(path), max(2, max(map(abs, wj)))


def island_sample(j: int, extent: int) -> set:
    """The spelled words of island j's edge-path, and each word
    reduce(z . a_s^r) on their lines, s <= n_j and 0 < |r| <= extent: the
    edge-path alone at extent 0.  Raises ValueError, before it spells
    anything, when the sample may hold more than words.MAX_LIFT_LETTERS
    letters."""
    path, nj = edge_path(j)
    # each edge-path vertex z and the words on its 2 n_j lines: at most
    # 1 + 2 n_j extent words of at most |z| + extent letters each
    letters = sum((1 + 2 * nj * extent) * (p + len(tail) + extent) for p, tail in set(path))
    if letters > words.MAX_LIFT_LETTERS:
        raise ValueError(f"the sample of island {operator.index(j)} at extent {extent} would "
                         f"spell up to {letters} letters, more than {words.MAX_LIFT_LETTERS}")
    zset = {zigzag_prefix(p) + tail for p, tail in set(path)}
    return zset | {reduce_word(z + (x,) * r) for z in zset for s in range(1, nj + 1)
                   for x in (s, -s) for r in range(1, extent + 1)}


def in_line(v: Word, u: Word, s: int) -> Optional[int]:
    """The r with v = reduce(u · a_s^r), or None.

    Deliberately implemented from the definition (reduce u^{-1}v and test
    for a pure power of a_s) rather than via the ray shortcuts, so it can
    serve as an independent check on them.  The common prefix of u and v,
    found at C speed, cancels first: that is free reduction too.
    """
    check_index(s, "line direction must be >= 1")
    v, u = check_word(v), check_word(u)
    if not is_reduced(u):
        raise ValueError("in_line expects a reduced base vertex")
    return _line_offset(v, u, s)


def _line_offset(v: Word, u: Word, s: int) -> Optional[int]:
    """`in_line` on words it would accept, unchecked."""
    c = next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v)))
    d = reduce_word(invert(u[c:]) + v[c:])
    if not d:
        return 0
    if all(x == s for x in d):
        return len(d)
    if all(x == -s for x in d):
        return -len(d)
    return None


# --- cross-check of the two removal rules ----------------------------------

def formula_removes(v: Word, j: int) -> bool:
    """Match of the closed-form removal pattern for island j: v is the
    reduction of z . a_s^{+-r} . a_k^{+-1} . g with z on the island's
    edge-path, the vertex one step into the power off the edge-path, and
    either r = 0 with k > n_j, or r != 0 with s <= n_j and k outside
    {1, 2, s}.  v must be a reduced word.

    Only the edge-path words z with |z| <= |v| + |w_j| are spelled: a
    match reads u = v[:t], |u| <= |v| - 1, and either u = z or u =
    reduce(z . a_s^r), whose power cancels at most z's final run, which
    has at most |tail| + 1 <= |w_j| + 1 letters."""
    v = check_word(v)
    if not is_reduced(v):
        raise ValueError("expected a reduced word")
    path, nj = edge_path(j)
    reach = len(v) + len(path) - 1  # |v| + |w_j|
    zset = {zigzag_prefix(p) + tail for p, tail in set(path) if p + len(tail) <= reach}
    return _removes(v, zset, nj)


def _removes(v: Word, zset, nj: int) -> bool:
    """`formula_removes` on a reduced word, with island j's edge-path
    spelled as zset, unchecked.  The power may cancel into the spelling
    of z, so its reduction u is located with the definitional line test
    rather than by literal prefix matching; u . a_k^{+-1} itself never
    cancels and is therefore a literal prefix of v.  Both branches need
    k > 2 (n_j >= 2), so u = v[:t] is tried only where v[t] has index
    above 2."""
    for t in (t for t, x in enumerate(v) if abs(x) > 2):
        u, k = v[:t], abs(v[t])
        if u in zset:
            # r = 0 branch; the next vertex carries an index-k letter
            # with k > n_j, hence lies off the edge-path automatically
            if k > nj:
                return True
        # r != 0 branch: u strictly on a line through the edge-path
        elif any(_line_offset(u, z, s) for z in zset for s in range(1, nj + 1) if s != k):
            return True
    return False


class CrossCheckReport(NamedTuple):
    j: int
    radius: int
    examined: int
    removed: int
    disagreements: tuple

    @property
    def ok(self) -> bool:
        return not self.disagreements


# The bound on the words the cross-check's search may examine, as
# predicted before it starts.  Near island 9, radius 4 examines 400,160
# words (prediction 406,782) in 15-18 s of CPU at 260 MB (Python 3.11.7,
# 2 cores) and still answers; a search of 2^20 words holds about 0.7 GB;
# radius 5 predicts 4,251,528 words and is refused.
MAX_CROSSCHECK_WORDS = 2 ** 20


def removal_cross_check(j: int, radius: int) -> CrossCheckReport:
    """Compare the closed-form pattern with the prose rule (remove the
    distance-1 neighbors of the island not connected by an a_1/a_2 edge,
    then everything they separate) on all reduced words within the given
    edge-distance of a bounded sample of island vertices: the edge-path,
    and each line through it out to radius + 2 steps.  Island membership
    is read from the island's own spelled words, its lines out to
    2 radius + 2 steps: every word the search reaches that lies on the
    island lies that near its edge-path."""
    if j < 1 or radius < 1:
        raise ValueError("island index and radius must be >= 1")
    nj = edge_path(j)[1]
    j = operator.index(j)
    sample = island_sample(j, radius + 2)
    kmax = nj + 2
    # each word has at most 2 kmax - 1 neighbors away from where the
    # search came from; refuse a search that may examine too many words
    bound = len(sample) * (2 * kmax - 1) ** radius
    if bound > MAX_CROSSCHECK_WORDS:
        raise ValueError(f"the cross-check of island {j} at radius {radius} would examine "
                         f"up to {bound} words, more than {MAX_CROSSCHECK_WORDS}")
    island = island_sample(j, 2 * radius + 2)
    zset = island_sample(j, 0)

    def tree_neighbors(w: Word):
        if w:
            yield w[:-1], abs(w[-1])
        for i in range(1, kmax + 1):
            for letter in (i, -i):
                if not w or w[-1] != -letter:
                    yield w + (letter,), i

    examined = 0
    removed = 0
    disagreements = []
    # BFS outward from the sample at depth 0; record each vertex's gateway
    # label, the label of the edge by which its distance-1 ancestor leaves
    # the island
    frontier: list[tuple] = [(y, 0, None) for y in sorted(sample)]
    seen = set(sample)
    while frontier:
        next_frontier = []
        for w, depth, gateway_label in frontier:
            if depth:
                examined += 1
                prose = gateway_label not in (1, 2)
                # the search makes reduced words only
                formula = _removes(w, zset, nj)
                if prose != formula:
                    disagreements.append((w, prose, formula))
                if formula:
                    removed += 1
            if depth < radius:
                for nb, label in tree_neighbors(w):
                    if nb in seen:
                        continue
                    seen.add(nb)
                    if nb not in island:
                        next_frontier.append((nb, depth + 1, gateway_label or label))
        frontier = next_frontier
    return CrossCheckReport(j, radius, examined, removed, tuple(disagreements))
