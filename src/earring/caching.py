"""The byte cap on the word index, and the reset of all cached state.

The environment variable EARRING_CACHE_BYTES bounds the graph's word
index, the one table keyed by words (word -> trie vertex, or pruned).
It is a whole number of bytes written in decimal digits, such as 65536;
any other value makes `cache_limit` raise ValueError.  Its cost is an
estimate, 128 bytes plus 8 per letter of each key; when the next entry
would pass the cap the whole table is cleared, an entry that alone costs
more than the cap is not stored and clears nothing, and 0 keeps it empty.
Island data is memoised in a table cleared whole at 1,024 entries, and
each trie vertex's island hit holds its own island's data.  The trie of
visited vertices and the class table of the word enumeration are not
bounded; ray vertices are registered weakly.  `reset_caches()` drops all
of them, so it starts a new trie: a vertex made before it still answers
and steps, but vertices compare by identity, so across a reset compare
their `.word`.  Caches are transparent: every result is recomputable, so
capping or disabling them never changes observable behavior.
"""

from __future__ import annotations

import os

_DEFAULT_LIMIT = 1024 * 2**20

_limit: int | None = None
_resets: list = []


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
    """Drop everything registered with `on_reset`; the byte cap is read
    again from the environment on its next use."""
    global _limit
    for fn in _resets:
        fn()
    _limit = None


def on_reset(fn):
    """Register fn to be called by reset_caches."""
    _resets.append(fn)
    return fn
