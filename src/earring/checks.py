"""Definitional checks of the pruned graph: the line test `in_line`, the
closed-form removal pattern `formula_removes`, and the cross-check of
that pattern against the prose removal rule.

They are kept apart from the fast path in `graph` on purpose, as slow
twins to test it against, and are loaded on first use: `import earring`
does not load this module.  `in_line` is built from `words` alone;
`formula_removes` reads the island's edge-path from `graph.island_data`,
and the cross-check decides island membership with `graph.classify`.
"""

from __future__ import annotations

import operator
from itertools import compress, count
from typing import NamedTuple, Optional

from . import words
from .graph import classify, island_data
from .words import Word, check_index, check_word, invert, is_reduced, reduce_word


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
    {1, 2, s}.  The power may cancel into the spelling of z, so its
    reduction u is located with the definitional line test `in_line`
    rather than by literal prefix matching; u . a_k^{+-1} itself never
    cancels and is therefore a literal prefix of v.  Both branches need
    k > 2 (n_j >= 2), so u = v[:t] is tried only where v[t] has index
    above 2.  v is checked once, and each prefix goes to `in_line`'s test
    unchecked."""
    v = check_word(v)
    data = island_data(j)
    zset = data.z_set
    nj = data.level
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


def removal_cross_check(j: int, radius: int) -> CrossCheckReport:
    """Compare the closed-form pattern with the prose rule (remove the
    distance-1 neighbors of the island not connected by an a_1/a_2 edge,
    then everything they separate) on all reduced words within the given
    edge-distance of a bounded sample of island vertices: the edge-path,
    and each line through it out to radius + 2 steps."""
    if j < 1 or radius < 1:
        raise ValueError("island index and radius must be >= 1")
    data = island_data(j)
    # the sample holds each edge-path vertex z and the words on its 2 n_j
    # lines out to radius + 2 steps: at most 1 + 2 n_j (radius + 2) words
    # of at most |z| + radius + 2 letters each; refuse before spelling them
    reach = radius + 2
    letters = sum((1 + 2 * data.level * reach) * (z.depth + reach) for z in data.records)
    if letters > words.MAX_LIFT_LETTERS:
        raise ValueError(f"the cross-check of island {j} at radius {radius} would spell "
                         f"up to {letters} letters, more than {words.MAX_LIFT_LETTERS}")
    sample = set(data.z_set)
    for z in data.z_set:
        for s in range(1, data.level + 1):
            for r in range(1, radius + 3):
                sample.add(reduce_word(z + (s,) * r))
                sample.add(reduce_word(z + (-s,) * r))
    kmax = data.level + 2

    def tree_neighbors(w: Word):
        if w:
            yield w[:-1], abs(w[-1])
        for i in range(1, kmax + 1):
            for letter in (i, -i):
                if not w or w[-1] != -letter:
                    yield w + (letter,), i

    def in_island(w: Word) -> bool:
        hit = classify(w)
        return hit is not None and hit.j == j

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
                formula = formula_removes(w, j)
                if prose != formula:
                    disagreements.append((w, prose, formula))
                if formula:
                    removed += 1
            if depth < radius:
                for nb, label in tree_neighbors(w):
                    if nb in seen:
                        continue
                    seen.add(nb)
                    if not in_island(nb):
                        next_frontier.append((nb, depth + 1, gateway_label or label))
        frontier = next_frontier
    return CrossCheckReport(data.j, radius, examined, removed, tuple(disagreements))
