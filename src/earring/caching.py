"""The byte cap on the word index, and the reset of all cached state.

The environment variable EARRING_CACHE_BYTES bounds the graph's word
index, the one table keyed by words (word -> trie vertex, or pruned);
its key is the word's exact encoding, `marshal.dumps(word, 2)`, which
tells (True,) and (1.0,) from (1,).  The variable is a whole number of
bytes written in decimal digits, such as 65536; any other value makes
`cache_limit` raise ValueError.  An entry's cost is an estimate, 128
bytes plus 8 per letter of its word, not measured memory; when the next
entry would pass the cap the whole table is cleared, an entry that alone
costs more than the cap is not stored and clears nothing, and 0 keeps
it empty.
Island data is not memoised: it hangs on its anchor vertex as that
vertex's island hit, and each trie vertex's island hit holds its own
island's data.  The trie of visited vertices and the class table of the
word enumeration are not bounded; ray vertices are registered weakly.

The reset contract.  `reset_caches()` drops all of them and starts a new
trie, with a new base point.  Every vertex carries the trie it was made
in: a child its parent's, a ray vertex the one current when it was made.
A vertex from an older trie keeps its word (`.word`, `.depth`, `.tail`),
every answer it has read (`hit`, `e_set`) and every neighbour it has
made; whatever it would have to locate or make, a first `hit` or `e_set`
read or a step to a new vertex, raises ValueError, since it would be
compared with, or become, a vertex of the new trie.  Re-make it with
`Vertex.make(v.word)`.

Caches are transparent: every result is recomputable, so capping or
disabling them never changes observable behavior.
"""

from __future__ import annotations

import os

_DEFAULT_LIMIT = 1024 * 2**20

_limit: int | None = None


def cache_limit() -> int:
    global _limit
    if _limit is None:
        text = os.environ.get("EARRING_CACHE_BYTES", str(_DEFAULT_LIMIT))
        if not text.strip().isdecimal():
            raise ValueError(f"EARRING_CACHE_BYTES must be a whole number of bytes "
                             f"in decimal digits, such as 65536, not {text!r}")
        _limit = int(text)
    return _limit


def reset_caches() -> None:
    """Drop the class table, the word index and the trie; the byte cap is
    read again from the environment on its next use."""
    global _limit
    # graph imports this module, so it is imported here, when called
    from . import graph, words
    words._drop_classes()
    graph._drop_caches()
    _limit = None
