"""Closed-form reference for the canonical word enumeration.

Written from the ordering rule in the words module's docstring, not from
its code, so the benchmark can check `nth_word`, `index_of` and
`anchor_length` against an independent computation without enumerating.
Words are ordered by weight (length + max generator index), then length,
then lexicographically under a_1 < a_1^-1 < a_2 < a_2^-1 < ...
"""

from __future__ import annotations


def _classes():
    """(length, max index) classes in enumeration order, with their sizes."""
    wt = 2
    while True:
        for length in range(1, wt):
            m = wt - length
            yield length, m, (2 * m) ** length - (2 * m - 2) ** length
        wt += 1


def _locate(j: int):
    """Class of the j-th word, its rank inside the class, and the total
    length of all words in earlier classes."""
    if j < 1:
        raise ValueError("enumeration index must be >= 1")
    before = 0
    for length, m, count in _classes():
        if j <= count:
            return length, m, j - 1, before
        j -= count
        before += count * length
    raise AssertionError("unreachable")


def nth_word(j: int) -> tuple:
    """The j-th word, by unranking inside its class."""
    length, m, r, _ = _locate(j)
    size, low = 2 * m, 2 * m - 2
    out = []
    high = False
    for p in range(length):
        rem = length - 1 - p
        for d in range(size):
            hit = high or d >= low
            c = size ** rem if hit else size ** rem - low ** rem
            if r < c:
                out.append(d // 2 + 1 if d % 2 == 0 else -(d // 2 + 1))
                high = hit
                break
            r -= c
    return tuple(out)


def cumulative_length(j: int) -> int:
    """|w_1| + ... + |w_j| (0 for j = 0)."""
    if j == 0:
        return 0
    length, _, r, before = _locate(j)
    return before + (r + 1) * length


def anchor_length(j: int) -> int:
    """2(|w_1|+...+|w_{j-1}|) + 3j + |w_j|."""
    return 2 * cumulative_length(j - 1) + 3 * j + _locate(j)[0]


def class_end(max_weight: int) -> int:
    """Index of the last word of weight at most max_weight."""
    total = 0
    for wt in range(2, max_weight + 1):
        total += sum((2 * (wt - n)) ** n - (2 * (wt - n) - 2) ** n for n in range(1, wt))
    return total


def reduce_word(w) -> tuple:
    out: list = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)
