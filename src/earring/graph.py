"""Lazy oracle for the pruned graph: island membership, survival of a
reduced word under the pruning rules, incident tree-edge labels, and the
cross-check between the closed-form removal pattern and the prose rule.

No infinite portion of the graph is ever materialized; every question is
answered from the word alone.
"""

from __future__ import annotations

import operator
import weakref
from functools import cached_property
from itertools import compress, count, cycle
from typing import NamedTuple, Optional

from . import words
from .caching import cache_limit, on_reset
from .words import (
    Word,
    _ray_letter,
    anchor_index,
    anchor_length,
    check_word,
    format_ray_word,
    invert,
    is_reduced,
    nth_word,
    ray_run,
    reduce_word,
    word_length,
    zigzag_prefix,
)


def ray_agreement(w: Word) -> int:
    """Length of the longest common prefix of w with the infinite
    zig-zag ray a_1 a_2 a_1 a_2 ...: the position of the first letter
    that differs from the ray's, found by C-level iterators."""
    return next(compress(count(), map(operator.ne, w, cycle((1, 2)))), len(w))


# --- island data -----------------------------------------------------------
# An edge-path vertex z of island j is held as a record (len, ray_len, tail):
# z = R[:ray_len] + tail, with R the zig-zag ray and tail empty or starting
# off the ray.  The path walks |w_j| letters from the anchor, so ray_len is
# within |w_j| of anchor_length(j) and every tail has at most |w_j| letters.
# A word has one record, so records are equal exactly when their words are.

class _IslandFields(NamedTuple):
    j: int
    word: Word
    level: int          # n_j = max(2, max index in word)
    anchor_len: int
    path: tuple         # |word|+1 records, with repeats
    records: tuple      # deduplicated, in word order
    max_len: int        # longest edge-path vertex


class IslandData(_IslandFields):
    """Everything attached to enumeration index j: the word, the length
    of its anchor, the level n_j, and the anchored edge-path vertices.  A
    named tuple of its fields; the vertices are kept as records, and
    `z_path` and `z_set` spell them out on first read.  `bases` strips
    each record of its final run on the first line test.  A vertex's
    island hit holds its island's data, so the data lives as long as the
    vertices that located it.  The repr leaves out `path`, `records` and
    `max_len`."""

    def __repr__(self):
        return (f"IslandData(j={self.j!r}, word={self.word!r}, level={self.level!r}, "
                f"anchor_len={self.anchor_len!r})")

    @cached_property
    def bases(self) -> tuple:
        """(s, b, base) per record, by `_strip`."""
        return tuple(map(_strip, self.records))

    @cached_property
    def z_path(self) -> tuple:
        spelled = {rec: zigzag_prefix(rec[1]) + rec[2] for rec in self.records}
        return tuple(spelled[rec] for rec in self.path)

    @cached_property
    def z_set(self) -> frozenset:
        return frozenset(self.z_path)


def _suffix_run(w: Word) -> int:
    """Length of the maximal constant-letter suffix run of w."""
    if not w:
        return 0
    last = w[-1]
    n = len(w)
    r = 1
    while r < n and w[n - 1 - r] == last:
        r += 1
    return r


def _strip(rec: tuple) -> tuple:
    """(s, b, base) for the edge-path vertex z with record rec: z = base .
    a_s^b, b signed, and base, also a record, does not end in a_s^{+-1}.
    The ray alternates, so z's final run reaches at most one letter back
    into it."""
    n, p, tail = rec
    w = ray_run(max(p - 1, 0), p) + tail
    run = _suffix_run(w)
    m = n - run
    return abs(w[-1]), run if w[-1] > 0 else -run, (m, min(p, m), tail[:max(0, m - p)])


# j -> IslandData, a memo of recent builds for the repeats of one walk: it
# is cleared whole when it reaches _ISLAND_MEMO entries
_ISLAND_MEMO = 1024
_islands: dict = {}


def island_data(j: int) -> IslandData:
    j = operator.index(j)  # True and 2.0 hash as the memo keys 1 and 2
    if j < 1:
        raise ValueError("island index must be >= 1")
    cached = _islands.get(j)
    if cached is not None:
        return cached
    wj = nth_word(j)
    level = max(2, max(abs(x) for x in wj))
    n = p = anchor_length(j)
    tail: Word = ()
    path = [(n, p, tail)]
    for x in wj:
        # free cancellation of z . x, with z = R[:p] + tail
        if tail:
            tail = tail[:-1] if tail[-1] == -x else tail + (x,)
        elif n and _ray_letter(n - 1) == -x:
            p -= 1
        elif x == _ray_letter(n):
            p += 1
        else:
            tail = (x,)
        n = p + len(tail)
        path.append((n, p, tail))
    # every record starts with R[:common], so the rest orders them as words
    common = min(rec[1] for rec in path)

    def rest(rec):
        return ray_run(common, rec[1]) + rec[2]

    records = tuple(sorted(set(path), key=rest))
    data = IslandData(j, wj, level, path[0][0], tuple(path), records,
                      max(rec[0] for rec in records))
    if len(_islands) >= _ISLAND_MEMO:
        _islands.clear()
    _islands[j] = data
    return data


class IslandHit(NamedTuple):
    """Membership certificate: v lies in island `j`, either on the
    anchored edge-path (kind 'Z') or strictly on a line through it (kind
    'L'), v = reduce(u . a_s^r).  The hit holds its island's data and the
    index k of u among `data.records`; `u` is spelled only when read,
    since it has about anchor_length(j) letters."""

    data: IslandData
    kind: str                 # 'Z' or 'L'
    s: Optional[int] = None   # line direction for kind 'L'
    k: Optional[int] = None   # index of the line base u in data.records
    r: Optional[int] = None   # signed offset along the line

    @property
    def j(self) -> int:
        return self.data.j

    @property
    def u(self) -> Optional[Word]:
        """The line base vertex for kind 'L', spelled; None for kind 'Z'."""
        if self.k is None:
            return None
        _, p, tail = self.data.records[self.k]
        return zigzag_prefix(p) + tail


def _match_island(data: IslandData, n: int, p: int, run: int, last: int,
                  mid: Word) -> Optional[IslandHit]:
    """Island membership of v in island j = data.j, where v has length n,
    ray agreement p, and ends in a run of `run` letters `last`, and mid is
    v[p:n-run].  v is a Z vertex z, or lies on a line reduce(z . a_s^r)
    with r != 0 and s <= n_j.  Strip each word of its final run, z =
    base(z) . a_t^b and v = base(v) . a_{|last|}^c: v is on that line
    exactly when base(v) = base(z) with s = t = |last|, or base(v) = z with
    s = |last| (not t), or v = base(z) with s = t, and r = c - b with the
    run of a letter other than a_s counted as 0.  The hit names the first
    such z in `data.records`.  v's own record is spelled only when n <=
    data.max_len: a longer v is neither an edge-path vertex nor the
    stripped base of one, so its record would match nothing."""
    vrec = (n, p, mid + (last,) * (n - p - len(mid))) if n <= data.max_len else None
    if vrec in data.records:
        return IslandHit(data, "Z")
    m = n - run
    vbase = (m, min(p, m), mid)
    c = run if last > 0 else -run
    for k, (t, b, base) in enumerate(data.bases):
        if base == vbase and t == abs(last):
            s, r = t, c - b
        elif vbase == data.records[k]:
            s, r = abs(last), c
        elif base == vrec:
            s, r = t, -b
        else:
            continue
        if s <= data.level:
            return IslandHit(data, "L", s, k, r)
    return None


def _locate(n: int, p: int, run: int, last: int, middle) -> Optional[IslandHit]:
    """Island hit of the reduced word v of length n with ray
    agreement p, whose final constant-letter run has `run` letters
    `last`; middle() gives v[p:n-run].  The word rule behind `classify`
    and the trie rule behind `Vertex` both come here."""
    # every vertex of island j agrees with the zig-zag ray on a prefix
    # within |w_j| + 1 of anchor_length(j), and consecutive anchors are
    # |w_j| + 3 + |w_{j+1}| apart: only the last anchor at or before p
    # or the next one can be that close, and at most one of them is
    j = anchor_index(p)
    if j == 0 or p - anchor_length(j) > word_length(j) + 1:
        j += 1
        if anchor_length(j) - p > word_length(j) + 1:
            return None
    data = island_data(j)
    # every island vertex is z or reduce(z . a_s^r) with the power inside
    # v's final run, so v[:n-run] fits inside some z; with p near the
    # anchor length this bounds |mid| by 2|w_j| + 1
    if n - run > data.max_len:
        return None
    return _match_island(data, n, p, run, last, middle())


def classify(v: Word) -> Optional[IslandHit]:
    """Island membership of a reduced word, or None: the word-level twin
    of `Vertex.hit`, which reads the word's letters instead of the
    trie."""
    if not v:
        return None
    if not is_reduced(v):
        raise ValueError("island membership is defined only for reduced words")
    n = len(v)
    p = ray_agreement(v)
    run = _suffix_run(v)
    return _locate(n, p, run, v[-1], lambda: v[p:n - run])


def island_of(v: Word) -> Optional[int]:
    """The unique island index containing v, or None.  A pruned word lies
    on no island: every island vertex survives the pruning."""
    node = _vertex_of(v)
    hit = node and node.hit
    return hit.j if hit else None


def in_line(v: Word, u: Word, s: int) -> Optional[int]:
    """The r with v = reduce(u · a_s^r), or None.

    Deliberately implemented from the definition (reduce u^{-1}v and test
    for a pure power of a_s) rather than via the ray shortcuts, so it can
    serve as an independent check on them.  The common prefix of u and v,
    found at C speed, cancels first: that is free reduction too.
    """
    if s < 1:
        raise ValueError("line direction must be >= 1")
    v, u = check_word(v), check_word(u)
    if not is_reduced(u):
        raise ValueError("in_line expects a reduced base vertex")
    c = next(compress(count(), map(operator.ne, u, v)), min(len(u), len(v)))
    d = reduce_word(invert(u[c:]) + v[c:])
    if not d:
        return 0
    if all(x == s for x in d):
        return len(d)
    if all(x == -s for x in d):
        return -len(d)
    return None


# --- tree labels and survival ----------------------------------------------

_label_sets: dict = {}


def _labels(hit: Optional[IslandHit]) -> frozenset:
    """Labels of the tree edges at a surviving vertex with island hit
    `hit`: {1,2} off-island, {1..n_j} on the anchored edge-path, {1,2,s}
    strictly on a line.  One shared set per distinct value."""
    if hit is None:
        key = (1, 2)
    elif hit.kind == "Z":
        key = tuple(range(1, hit.data.level + 1))
    else:
        key = (1, 2, hit.s)
    labels = _label_sets.get(key)
    if labels is None:
        labels = _label_sets[key] = frozenset(key)
    return labels


# a_1 and a_2 are tree labels at every surviving vertex, so a step by one
# of these letters needs no island
_LOW_LETTERS = frozenset((1, -1, 2, -2))


def _descend(v: Word) -> Optional["Vertex"]:
    """The trie vertex of the reduced word v, or None if v is pruned.

    The removed vertices of an island are reduce(z . a_s^{+-r} . a_k . g)
    with z on the anchored edge-path; the power may cancel into z, but its
    reduction u = reduce(z . a_s^{+-r}) ends in a letter of index 1, 2 or
    s, so the step a_k (k outside {1,2,s}) never cancels and u . a_k is a
    literal prefix of v.  Hence v survives exactly when each of its letters
    is a tree step from the prefix before it, and it is pruned at the
    first loop of `Vertex.step`.  The letters of v's ray agreement are a_1
    and a_2, tree labels everywhere, so that prefix is taken in one step."""
    p = ray_agreement(v)
    node = _ray(p)
    for x in v[p:]:
        kind, node = node.step(x)
        if kind == "loop":
            return None
    return node


# The word index: reduced word -> its trie vertex, or False if it is
# pruned.  It is the one table under the byte cap (see `caching`), at an
# estimated 128 bytes plus 8 per letter of each key, and is cleared
# whole when the next entry would pass the cap.
_index: dict = {}
_index_bytes = 0


def _vertex_of(v: Word):
    """The trie vertex of the reduced word v, or False if v is pruned."""
    global _index_bytes
    # validate first: (True,) hashes equal to (1,)
    v = check_word(v)
    node = _index.get(v)
    if node is not None:
        return node
    if not is_reduced(v):
        raise ValueError("expected a reduced word")
    node = _descend(v) or False
    cost = 128 + 8 * len(v)
    limit = cache_limit()
    if cost > limit:
        # an entry the index will not keep leaves it as it is
        return node
    if _index_bytes + cost > limit:
        _index.clear()
        _index_bytes = 0
    _index[v] = node
    _index_bytes += cost
    return node


def survives(v: Word) -> bool:
    """True iff the reduced word v is a vertex of the pruned tree."""
    return _vertex_of(v) is not False


def e_set(v) -> frozenset:
    """Labels of the tree edges at a surviving vertex: {1,2} off-island,
    {1..n_j} on the anchored edge-path, {1,2,s} strictly on a line."""
    if isinstance(v, Vertex):
        return v.e_set
    node = _vertex_of(v)
    if node is False:
        raise ValueError("e_set is defined only for surviving vertices")
    return node.e_set


# --- trie vertices -----------------------------------------------------------


def _letters(node: "Vertex", stop: int) -> Word:
    """node.word[stop:], read by walking up from node."""
    out = []
    while node.depth > stop:
        out.append(node.letter)
        node = node.parent
    out.reverse()
    return tuple(out)


class Vertex:
    """A surviving vertex: a node of the trie of visited vertices, rooted
    at the base point.  Each node derives its depth, ray agreement and
    final constant-letter run from its parent and its letter, so a step
    costs O(1) and never copies the word; `word` is spelled out only when
    asked for.  The island is located on the first read of `e_set` or
    `hit`, and a step by a_1^{+-1} or a_2^{+-1} never reads them, since
    {1, 2} is in every vertex's e_set.

    A vertex is one of two kinds.  The vertices R[:n] of the zig-zag ray,
    n >= 0, are `_RayVertex` nodes made by `ray_vertex` at any depth in
    O(1); the base point is R[:0].  Every other vertex is a child, made
    here from its parent and its letter.

    `step` is the one step rule: every letter applied to a vertex goes
    through it, except in the two segment rules, `ray_vertex` and
    `lifting.lift_ray_inverse`, and in `island_data`'s record arithmetic,
    which the midpoint check compares the lift with.

    `_children` holds None, the only child (which knows its own letter),
    or a dict letter -> child once the vertex branches: most vertices on a
    path have one child, so most vertices are one object, not a node and
    a table.  A child once made stays the same object.

    A word has one live vertex in the current trie: only `_child` makes a
    child, and only `_ray` a ray vertex.  So `==` is `is`, and a vertex
    hashes by identity.  `reset_caches()` starts a new trie, so a vertex
    made before it is not the vertex of its word made after it; across a
    reset, compare `.word`."""

    __slots__ = ("parent", "letter", "depth", "ray_len", "run", "run_start",
                 "_hit", "_e_set", "_children")

    def __init__(self, parent: "Vertex", letter: int):
        # a child made here leaves the ray or is already off it
        self.parent = parent
        self.letter = letter
        self.depth = parent.depth + 1
        self.ray_len = parent.ray_len
        if letter == parent.letter:
            self.run = parent.run + 1
            self.run_start = parent.run_start
        else:
            self.run = 1
            # the vertex before the final run, kept only off the ray: the
            # letters it spells for _locate start at ray_len
            self.run_start = parent if parent.depth > parent.ray_len else None
        self._hit = self._e_set = self._children = None

    def _classify(self) -> frozenset:
        """Locate the island, store the hit and its labels, and return the
        labels.  Both depend on the word alone, so this runs at most once
        per node."""
        start, p = self.run_start, self.ray_len
        self._hit = hit = _locate(self.depth, p, self.run, self.letter,
                                  lambda: _letters(start, p) if start is not None else ())
        self._e_set = labels = _labels(hit)
        return labels

    @property
    def e_set(self) -> frozenset:
        """Labels of the tree edges at this vertex."""
        labels = self._e_set
        return labels if labels is not None else self._classify()

    @property
    def tail(self) -> Word:
        """The letters of the word past its ray agreement."""
        return _letters(self, self.ray_len)

    @property
    def word(self) -> Word:
        return zigzag_prefix(self.ray_len) + self.tail

    @property
    def hit(self) -> Optional[IslandHit]:
        """Island membership certificate, as `classify` gives it."""
        if self._e_set is None:
            self._classify()
        return self._hit

    @staticmethod
    def make(word: Word) -> "Vertex":
        """The vertex of a reduced word that survives the pruning."""
        v = _vertex_of(word)
        if v is False:
            raise ValueError("word does not survive the pruning")
        return v

    def _child(self, letter: int) -> "Vertex":
        """The child by `letter`, made on first request: the one place a
        child is looked up or made."""
        kids = self._children
        if kids.__class__ is dict:
            node = kids.get(letter)
            if node is not None:
                return node
        elif kids is not None and kids.letter == letter:
            return kids
        n = self.depth
        if self.ray_len == n and letter == _ray_letter(n):
            node = _ray(n + 1, self)
        else:
            node = Vertex(self, letter)
        if kids is None:
            self._children = node
        elif kids.__class__ is dict:
            kids[letter] = node
        else:
            # a second child: the first keeps its object, now in a table
            self._children = {kids.letter: kids, letter: node}
        return node

    def step(self, letter: int):
        """One edge traversal: ('tree', neighbor) if the label is a tree
        label here, else ('loop', self)."""
        if letter not in _LOW_LETTERS and abs(letter) not in self.e_set:
            return ("loop", self)
        if letter == -self.letter:
            return ("tree", self.parent)
        return ("tree", self._child(letter))

    def __repr__(self):
        tail = " ".join(map(str, self.tail))
        return f"Vertex({format_ray_word(self.ray_len, tail, 0, self.depth)})"


# the parent slot, which a ray vertex fills on first read
_PARENT = Vertex.parent


class _RayVertex(Vertex):
    """The vertex R[:depth] of the zig-zag ray, depth >= 0, made without
    its parent: one of the two kinds of vertex, beside the children that
    `Vertex` makes.  The base point is R[:0]; its letter and final run are
    0 and it has no parent.  It steps by `Vertex.step`, the one step rule,
    which only `ray_vertex`, `lift_ray_inverse` and `island_data`'s record
    arithmetic bypass.  It is made only by `_ray`, which registers it, so
    it is the one live vertex of its ray word and compares by identity."""

    __slots__ = ("__weakref__",)

    def __init__(self, depth: int, parent: Optional[Vertex] = None):
        _PARENT.__set__(self, parent)
        self.letter = depth and _ray_letter(depth - 1)
        self.depth = self.ray_len = depth
        self.run = min(depth, 1)
        self.run_start = self._hit = self._e_set = self._children = None

    @property
    def parent(self) -> Optional[Vertex]:
        node = _PARENT.__get__(self)
        if node is None and self.depth:
            node = _ray(self.depth - 1)
            _PARENT.__set__(self, node)
        return node


# depth -> the live ray vertex of that depth.  Weak, so that a witness's
# ray vertex and what hangs below it go when the certificate goes; a ray
# vertex on a path from the base point is kept by its parent's children.
_rays = weakref.WeakValueDictionary()


def _ray(depth: int, parent: Optional[Vertex] = None) -> Vertex:
    """The vertex R[:depth]; parent, when given, is R[:depth - 1].  The
    one constructor of ray vertices, so a ray word has one live vertex and
    `==` on ray vertices is `is`."""
    if depth == 0:
        return _root
    node = _rays.get(depth)
    if node is None:
        node = _rays[depth] = _RayVertex(depth, parent)
    return node


def ray_vertex(n: int) -> Vertex:
    """The vertex R[:n] = a_1 a_2 a_1 ... of the zig-zag ray, in O(1): its
    letters are a_1 and a_2, tree labels everywhere, so it survives."""
    n = operator.index(n)  # a float depth would spell float letters
    if n < 0:
        raise ValueError("a ray vertex has a depth >= 0")
    return _ray(n)


_root = _RayVertex(0)


@on_reset
def _drop_caches() -> None:
    global _index_bytes
    _root._children = None
    _rays.clear()
    _index.clear()
    _index_bytes = 0
    _islands.clear()


def base_vertex() -> Vertex:
    """The base point: the empty word."""
    return _root


def neighbor(v: Vertex, letter: int):
    """Spec-level neighbor operation; see Vertex.step."""
    check_word((letter,))
    return v.step(letter)


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
    above 2."""
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
        elif any(in_line(u, z, s) for z in zset for s in range(1, nj + 1) if s != k):
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
    letters = sum((1 + 2 * data.level * reach) * (n + reach) for n, _, _ in data.records)
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
