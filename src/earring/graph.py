"""Lazy oracle for the pruned graph: island membership, survival of a
reduced word under the pruning rules, and incident tree-edge labels.  The
definitional checks of these rules are in `earring.checks`.

No infinite portion of the graph is ever materialized; every question is
answered from the word alone.
"""

from __future__ import annotations

import marshal
import operator
import weakref
from collections import namedtuple
from functools import cached_property
from itertools import compress, count, cycle
from typing import Optional

from .caching import cache_limit
from .words import (
    Word,
    _ray_letter,
    anchor_index,
    anchor_length,
    check_word,
    format_ray_word,
    is_reduced,
    nth_word,
    word_length,
    zigzag_prefix,
)


# 64 letters of the zig-zag ray, from an even position
_RAY_BLOCK = (1, 2) * 32


def ray_agreement(w: Word) -> int:
    """Length of the longest common prefix of w with the infinite
    zig-zag ray a_1 a_2 a_1 a_2 ...: the position of the first letter
    that differs from the ray's.  Whole blocks of 64 ray letters are
    skipped by one C-level tuple comparison each, and only the first
    block that differs is searched letter by letter, by C-level
    iterators; each pass slices its own block, so the cost is linear."""
    i = 0
    # tuple(): a list's slice never equals the block
    while tuple(w[i:i + 64]) == _RAY_BLOCK:
        i += 64
    return next(compress(count(i), map(operator.ne, w[i:i + 64], cycle((1, 2)))), len(w))


# --- island data -----------------------------------------------------------
# The anchored edge-path Z_j is a path in the trie: island_data walks w_j
# from the anchor vertex R[:anchor_length(j)] by tree steps, so each
# edge-path vertex is the one live vertex of its word, and two of them are
# the same vertex exactly when they are the same object.

# the fields, in order:
#   j
#   word
#   level        n_j = max(2, max index in word)
#   anchor_len
#   path         |word|+1 vertices, with repeats
#   records      the distinct vertices of path, in walk order
#   max_len      depth of the longest edge-path vertex
_IslandFields = namedtuple("_IslandFields", "j word level anchor_len path records max_len")


class IslandData(_IslandFields):
    """Everything attached to enumeration index j: the word, the length
    of its anchor, the level n_j, and the anchored edge-path vertices,
    which are trie vertices; `records` holds each once, in walk order.  A
    named tuple of its fields; `z_set` spells the words of `records` on
    first read, and `bases` strips each vertex of its final run on the
    first line test.  The data hangs on its anchor vertex as that vertex's
    island hit, and every vertex's hit holds its island's data, so it lives
    as long as the anchor or a vertex that located it.  The repr leaves out
    `path`, `records` and `max_len`."""

    def __repr__(self):
        return (f"IslandData(j={self.j!r}, word={self.word!r}, level={self.level!r}, "
                f"anchor_len={self.anchor_len!r})")

    @cached_property
    def bases(self) -> tuple:
        """(t, b, base(z)) per vertex z of `records`: z = base(z) . a_t^b,
        b signed, and base(z) does not end in a_t^{+-1}."""
        return tuple((abs(z.letter), z.run if z.letter > 0 else -z.run, _base(z))
                     for z in self.records)

    @cached_property
    def z_set(self) -> frozenset:
        return frozenset(z.word for z in self.records)


def _base(v: "Vertex") -> "Vertex":
    """The vertex before v's final run: `run_start`, or the ray vertex
    where the run starts when it starts on the ray."""
    start = v.run_start
    return start if start is not None else _ray(v.depth - v.run)


def island_data(j: int) -> IslandData:
    j = operator.index(j)  # True is island 1, and 2.0 is refused
    if j < 1:
        raise ValueError("island index must be >= 1")
    # the anchor is a Z vertex of its own island, so its hit holds the data
    z = _ray(anchor_length(j))
    if z._hit is not None:
        return z._hit.data
    wj = nth_word(j)
    path = [z]
    for x in wj:
        # every letter of w_j is a tree label on Z_j: the tree half of `step`
        z = z.parent if x == -z.letter else z._child(x)
        path.append(z)
    records = tuple(dict.fromkeys(path))
    data = IslandData(j, wj, max(2, max(map(abs, wj))), path[0].depth, tuple(path),
                      records, max(z.depth for z in records))
    path[0]._hit = IslandHit(data, "Z")
    return data


# the fields, in order:
#   data         the island's IslandData
#   kind         'Z' or 'L'
#   s            line direction for kind 'L'; None for kind 'Z'
#   k            index of the line base u in data.records; None for kind 'Z'
#   r            signed offset along the line; None for kind 'Z'
class IslandHit(namedtuple("IslandHit", "data kind s k r", defaults=(None, None, None))):
    """Membership certificate: v lies in island `j`, either on the
    anchored edge-path (kind 'Z') or strictly on a line through it (kind
    'L'), v = reduce(u . a_s^r).  The hit holds its island's data and the
    index k of the line base u among `data.records`, the edge-path
    vertices in walk order; `u` is spelled only when read, since it has
    about anchor_length(j) letters.  A named tuple with no `__dict__`."""

    __slots__ = ()

    @property
    def j(self) -> int:
        return self.data.j

    @property
    def u(self) -> Optional[Word]:
        """The line base vertex for kind 'L', spelled; None for kind 'Z'."""
        return None if self.k is None else self.data.records[self.k].word


def _match_island(data: IslandData, v: "Vertex") -> Optional[IslandHit]:
    """Island membership of the vertex v in island j = data.j.  v is a Z
    vertex z, or lies on a line reduce(z . a_s^r) with r != 0 and s <=
    n_j.  Strip each vertex of its final run, z = base(z) . a_t^b and v =
    base(v) . a_{|last|}^c, b and c signed: v is on that line exactly when
    base(v) is base(z) with s = t = |last|, or base(v) is z with s = |last|
    (not t), or v is base(z) with s = t, and r = c - b with the run of a
    letter other than a_s counted as 0.  A word has one live vertex, so
    `is` compares words and nothing is spelled.  The hit names the first
    such z in `data.records`."""
    if v in data.records:
        return IslandHit(data, "Z")
    vbase = _base(v)
    last = v.letter
    c = v.run if last > 0 else -v.run
    for k, (t, b, base) in enumerate(data.bases):
        if base is vbase and t == abs(last):
            s, r = t, c - b
        elif vbase is data.records[k]:
            s, r = abs(last), c
        elif base is v:
            s, r = t, -b
        else:
            continue
        if s <= data.level:
            return IslandHit(data, "L", s, k, r)
    return None


def _locate(v: "Vertex") -> Optional[IslandHit]:
    """Island hit of the trie vertex v: the one island rule, behind
    `Vertex.hit` and so behind `classify`."""
    # every vertex of island j agrees with the zig-zag ray on a prefix
    # within |w_j| + 1 of anchor_length(j), and consecutive anchors are
    # |w_j| + 3 + |w_{j+1}| apart: only the last anchor at or before p
    # or the next one can be that close, and at most one of them is
    p = v.ray_len
    j = anchor_index(p)
    if j == 0 or p - anchor_length(j) > word_length(j) + 1:
        j += 1
        if anchor_length(j) - p > word_length(j) + 1:
            return None
    data = island_data(j)
    # every island vertex is z or reduce(z . a_s^r) with the power inside
    # v's final run, so base(v) fits inside some z
    if v.depth - v.run > data.max_len:
        return None
    return _match_island(data, v)


def classify(v: Word) -> Optional[IslandHit]:
    """Island membership of a reduced word, or None: the hit of its trie
    vertex, as `Vertex.hit` gives it, and None for a pruned word, since
    every island vertex survives the pruning."""
    node = _vertex_of(v)
    return node.hit if node else None


def island_of(v: Word) -> Optional[int]:
    """The unique island index containing v, or None, by `classify`."""
    hit = classify(v)
    return hit.j if hit else None


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


def _descend(v: Word, p: int) -> Optional["Vertex"]:
    """The trie vertex of the reduced word v, or None if v is pruned; p
    is v's ray agreement, `ray_agreement(v)`.

    The removed vertices of an island are reduce(z . a_s^{+-r} . a_k . g)
    with z on the anchored edge-path; the power may cancel into z, but its
    reduction u = reduce(z . a_s^{+-r}) ends in a letter of index 1, 2 or
    s, so the step a_k (k outside {1,2,s}) never cancels and u . a_k is a
    literal prefix of v.  Hence v survives exactly when each of its letters
    is a tree step from the prefix before it, and it is pruned at the
    first loop of `Vertex.step`.  The letters of v's ray agreement are a_1
    and a_2, tree labels everywhere, so that prefix is taken in one step,
    and only the letters past it are read here."""
    node = _ray(p)
    for x in v[p:]:
        kind, node = node.step(x)
        if kind == "loop":
            return None
    return node


# The word index: reduced word -> its trie vertex, or False if it is
# pruned, keyed by the word's marshal encoding at version 2.  That writes
# a tuple as "(" and a 4-byte length, and each plain int as "i" and 4
# bytes, or "l" and its digits past 32 bits; a bool as "T" or "F", a
# float as "g", and it refuses an int subclass, so equal keys mean equal
# letters of equal types.  From version 3 on, marshal may write
# back-references, so equal words could get different bytes.  The index
# is the one table under the byte cap (see `caching`), at an estimated
# 128 bytes plus 8 per letter of each word, and is cleared whole when the
# next entry would pass the cap.
_index: dict = {}
_index_bytes = 0


def _vertex_of(v: Word):
    """The trie vertex of the reduced word v, or False if v is pruned.

    A key of the index is the exact encoding of a checked word, plain
    nonzero ints and reduced, and only a word of the same plain ints has
    that encoding: a hit encodes v once and hashes and compares bytes,
    with no pass over the letters.  On a miss, a type byte "i" every 5
    bytes proves that every letter is a plain int of 32 bits, since each
    type byte stands 5 bytes after the last only while every earlier
    letter was an "i"; any other word, with a big int, a bool, a float or
    a letter marshal refuses, goes to `check_word`.  The miss then reads
    the ray agreement p by block comparisons; R[:p] is nonzero and
    reduced, so the zero check runs on v[p:] and the reduction check on
    v[p - 1:], the junction letter and the tail.  A bad letter is refused
    first, then a zero, then an unreduced word."""
    global _index_bytes
    v = tuple(v)
    try:
        key = marshal.dumps(v, 2)
    except ValueError:
        # an int subclass, or a letter marshal cannot write: the stride
        # check below then sends v to check_word
        key = b""
    node = _index.get(key)
    if node is not None:
        return node
    if key[5::5] != b"i" * len(v):
        check_word(v)
    p = ray_agreement(v)
    check_word(v[p:])
    if not is_reduced(v[p - 1:] if p else v):
        raise ValueError("expected a reduced word")
    node = _descend(v, p) or False
    cost = 128 + 8 * len(v)
    limit = cache_limit()
    if cost > limit:
        # an entry the index will not keep leaves it as it is
        return node
    if _index_bytes + cost > limit:
        _index.clear()
        _index_bytes = 0
    _index[key] = node
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


# the token of the current trie, which every vertex carries: a vertex made
# before `reset_caches()` holds an older one (see `caching`)
_trie = object()

_STALE = ("a vertex made before reset_caches() is not in the new trie; "
          "re-make it with Vertex.make(v.word)")


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
    `lifting.lift_ray_inverse`.  `island_data` walks an edge-path with
    its tree half, `parent` or `_child`, since every letter of w_j is a
    tree label on Z_j.

    `_children` holds None, the only child (which knows its own letter),
    or a dict letter -> child once the vertex branches: most vertices on a
    path have one child, so most vertices are one object, not a node and
    a table.  A child once made stays the same object.

    A word has one live vertex in the current trie: only `_child` makes a
    child, and only `_ray` a ray vertex.  So `==` is `is`, and a vertex
    hashes by identity.  Each vertex carries the trie it was made in,
    `_trie`: a child its parent's, a ray vertex the current one.  A vertex
    from before `reset_caches()` keeps what it has, and refuses to locate
    its island or make a vertex; `earring.caching` states that contract."""

    __slots__ = ("parent", "letter", "depth", "ray_len", "run", "run_start",
                 "_hit", "_e_set", "_children", "_trie")

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
        self._hit = self._children = self._e_set = None
        self._trie = parent._trie

    def _classify(self) -> frozenset:
        """Locate the island, store the hit and its labels, and return the
        labels.  Both depend on the word alone, so this runs at most once
        per node, and only on a node of the current trie."""
        if self._trie is not _trie:
            raise ValueError(_STALE)
        self._hit = hit = _locate(self)
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
        child is looked up or made, and only in the current trie."""
        kids = self._children
        if kids.__class__ is dict:
            node = kids.get(letter)
            if node is not None:
                return node
        elif kids is not None and kids.letter == letter:
            return kids
        if self._trie is not _trie:
            raise ValueError(_STALE)
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
    which only the segment rules `ray_vertex` and `lift_ray_inverse`
    bypass.  It is made only by `_ray`, which registers a weak reference
    to it, so it is the one live vertex of its ray word and compares by
    identity; `__weakref__` is its one slot beyond a child's."""

    __slots__ = ("__weakref__",)

    def __init__(self, depth: int, parent: Optional[Vertex] = None):
        _PARENT.__set__(self, parent)
        self.letter = depth and _ray_letter(depth - 1)
        self.depth = self.ray_len = depth
        self.run = min(depth, 1)
        self.run_start = self._hit = self._children = self._e_set = None
        self._trie = _trie

    @property
    def parent(self) -> Optional[Vertex]:
        node = _PARENT.__get__(self)
        if node is None and self.depth:
            # the live R[:depth - 1] of the current trie, even for a ray
            # vertex from before a reset, so no trie check is needed
            node = _ray(self.depth - 1)
            _PARENT.__set__(self, node)
        return node


# depth -> a weak reference to the live ray vertex of that depth, in a
# plain dict: registering a vertex and dropping its entry run no Python
# code but `_forget`.  Weak, so that a witness's ray vertex and what hangs
# below it go when the certificate goes; a ray vertex on a path from the
# base point is kept by its parent's children.  A dying vertex's weak
# references are all cleared before any of their callbacks runs, so an
# earlier callback may register a new vertex of that depth first: the
# dead vertex's reference deletes the entry only while it is still the
# entry.  `reset_caches()` drops the references with the entries, and a
# dropped reference calls nothing.
_rays: dict = {}


class _RayRef(weakref.ref):
    __slots__ = ("depth",)


def _forget(ref: _RayRef) -> None:
    """The callback of a dead ray vertex's reference: drop its entry,
    unless a newer vertex of that depth holds it.  It must not raise, as
    Python only prints what a weakref callback raises."""
    if _rays.get(ref.depth) is ref:
        del _rays[ref.depth]


def _ray(depth: int, parent: Optional[Vertex] = None) -> Vertex:
    """The vertex R[:depth]; parent, when given, is R[:depth - 1].  The
    one constructor of ray vertices, so a ray word has one live vertex and
    `==` on ray vertices is `is`.  It registers the vertex by a weak
    reference that knows its depth (see `_rays`)."""
    if depth == 0:
        return _root
    ref = _rays.get(depth)
    node = ref() if ref is not None else None
    if node is None:
        node = _RayVertex(depth, parent)
        ref = _rays[depth] = _RayRef(node, _forget)
        ref.depth = depth
    return node


def ray_vertex(n: int) -> Vertex:
    """The vertex R[:n] = a_1 a_2 a_1 ... of the zig-zag ray, in O(1): its
    letters are a_1 and a_2, tree labels everywhere, so it survives."""
    n = operator.index(n)  # a float depth would spell float letters
    if n < 0:
        raise ValueError("a ray vertex has a depth >= 0")
    return _ray(n)


_root = _RayVertex(0)


def _drop_caches() -> None:
    """Start a new trie, with a new token and base point, and empty the
    word index."""
    global _index_bytes, _trie, _root
    _trie = object()
    _root = _RayVertex(0)
    _rays.clear()
    _index.clear()
    _index_bytes = 0


def base_vertex() -> Vertex:
    """The base point: the empty word."""
    return _root


def neighbor(v: Vertex, letter: int):
    """Spec-level neighbor operation; see Vertex.step."""
    check_word((letter,))
    return v.step(letter)
