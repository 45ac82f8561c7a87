"""Capped memoization shared by the graph oracles.

The environment variable EARRING_CACHE_BYTES bounds the total approximate
memory used by cross-call memo tables (0 disables them entirely).  When
the budget is exceeded, the largest table is dropped and recomputed on
demand.  Caches are transparent: every result is recomputable, so capping
or disabling them never changes observable behavior.
"""

from __future__ import annotations

import os

_DEFAULT_LIMIT = 1024 * 2**20

_limit: int | None = None
_spent = 0
_memos: list["Memo"] = []
_resets: list = []


def cache_limit() -> int:
    global _limit
    if _limit is None:
        _limit = int(os.environ.get("EARRING_CACHE_BYTES", str(_DEFAULT_LIMIT)))
    return _limit


def reset_caches(limit: int | None = None) -> None:
    """Clear all memo tables and everything registered with `on_reset`.
    With `limit` given, pin the byte cap; otherwise it is re-read from
    the environment on next use."""
    global _limit, _spent
    for m in _memos:
        m._d.clear()
        m._spent = 0
    for fn in _resets:
        fn()
    _spent = 0
    _limit = limit


def on_reset(fn):
    """Register fn to be called by reset_caches: for state that is not
    under the byte cap but is dropped with the memos."""
    _resets.append(fn)
    return fn


class Memo:
    """A dict-backed memo honoring the global byte cap."""

    __slots__ = ("_d", "_spent")

    def __init__(self) -> None:
        self._d: dict = {}
        self._spent = 0
        _memos.append(self)

    def get(self, key, default=None):
        return self._d.get(key, default)

    def put(self, key, value) -> None:
        global _spent
        limit = cache_limit()
        if limit <= 0:
            return
        cost = 128 + 8 * (len(key) if isinstance(key, tuple) else 1)
        while _spent + cost > limit:
            victim = max(_memos, key=lambda m: m._spent)
            if victim._spent == 0:
                return
            victim._d.clear()
            _spent -= victim._spent
            victim._spent = 0
        self._d[key] = value
        self._spent += cost
        _spent += cost

    def __contains__(self, key) -> bool:
        return key in self._d
