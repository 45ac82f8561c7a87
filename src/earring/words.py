"""Free-group words over the countable alphabet a_1, a_2, a_3, ...

A letter is a nonzero int: k > 0 encodes a_k, k < 0 encodes a_k^{-1}.
A word is a tuple of letters; the empty tuple is the empty word and
prints as `e`.  Unreduced words are first-class citizens.

The module also fixes one canonical enumeration w_1, w_2, ... of all
non-empty words: order by weight(w) = len(w) + max generator index,
within a weight by increasing length, within a length lexicographically
under a_1 < a_1^{-1} < a_2 < a_2^{-1} < ...  Anchor words are the
alternating a_1 a_2 a_1 a_2 ... prefixes of prescribed length used to
graft each enumerated word onto the zig-zag ray.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator, Optional

Letter = int
Word = tuple  # tuple[int, ...]


def check_word(w: Word) -> Word:
    """Validate letters (nonzero ints, not bools); return w unchanged."""
    for x in w:
        # bool is an int subclass; the type test keeps plain ints fast
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)) or x == 0:
            raise ValueError(f"invalid letter {x!r}: letters are nonzero ints")
    return tuple(w)


def reduce_word(w: Word) -> Word:
    """Fully cancel adjacent inverse pairs; idempotent."""
    out: list = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(w: Word) -> bool:
    # pairs (w[i+1], -w[i]), compared at C speed
    return all(map(operator.ne, w[1:], map(operator.neg, w)))


def concat(u: Word, v: Word) -> Word:
    """Plain concatenation; does not reduce."""
    return tuple(u) + tuple(v)


def invert(w: Word) -> Word:
    """Formal inverse: reverse and flip every sign."""
    return tuple(-x for x in reversed(w))


def weight(w: Word) -> int:
    """len(w) + max generator index; defined for non-empty words."""
    if not w:
        raise ValueError("weight of the empty word is undefined")
    return len(w) + max(abs(x) for x in w)


def _letter_rank(x: Letter) -> int:
    # a_i -> 2(i-1), a_i^{-1} -> 2(i-1)+1
    return 2 * (abs(x) - 1) + (0 if x > 0 else 1)


def _letter_from_rank(d: int) -> Letter:
    i = d // 2 + 1
    return i if d % 2 == 0 else -i


# --- canonical enumeration -------------------------------------------------

def _class_count(length: int, m: int) -> int:
    """Words of given length over {a_1^±..a_m^±} whose max index is exactly m."""
    return (2 * m) ** length - (2 * m - 2) ** length


def _gen_words() -> Iterator[Word]:
    w = 2
    while True:
        for length in range(1, w):
            m = w - length
            floor_rank = 2 * m - 2
            for digits in itertools.product(range(2 * m), repeat=length):
                if max(digits) >= floor_rank:
                    yield tuple(_letter_from_rank(d) for d in digits)
        w += 1


_words: list[Word] = []
_cum_len: list[int] = [0]  # _cum_len[j] = |w_1| + ... + |w_j|
_gen = _gen_words()


def _extend_to(j: int) -> None:
    while len(_words) < j:
        w = next(_gen)
        _words.append(w)
        _cum_len.append(_cum_len[-1] + len(w))


def nth_word(j: int) -> Word:
    """The j-th word of the canonical enumeration (j >= 1)."""
    if j < 1:
        raise ValueError("enumeration index must be >= 1")
    _extend_to(j)
    return _words[j - 1]


def _lex_rank(w: Word, m: int) -> int:
    """Number of equal-length words over {a_1^±..a_m^±} lex-smaller than w.

    Letters of w may lie outside the alphabet; such prefixes admit no
    continuation and the count is truncated there.
    """
    if m < 1:
        return 0
    size = 2 * m
    total = 0
    n = len(w)
    for p, x in enumerate(w):
        d = _letter_rank(x)
        total += min(d, size) * size ** (n - 1 - p)
        if d >= size:
            break
    return total


def index_of(w: Word) -> int:
    """Inverse of nth_word: nth_word(index_of(w)) == w letter-for-letter."""
    w = check_word(w)
    if not w:
        raise ValueError("the empty word has no enumeration index")
    m = max(abs(x) for x in w)
    length = len(w)
    wt = length + m
    idx = 0
    for wprime in range(2, wt):
        for lp in range(1, wprime):
            idx += _class_count(lp, wprime - lp)
    for lp in range(1, length):
        idx += _class_count(lp, wt - lp)
    idx += _lex_rank(w, m) - _lex_rank(w, m - 1)
    return idx + 1


def cumulative_length(j: int) -> int:
    """|w_1| + |w_2| + ... + |w_j| (0 for j = 0)."""
    if j < 0:
        raise ValueError("index must be >= 0")
    _extend_to(j)
    return _cum_len[j]


def anchor_length(j: int) -> int:
    """2(|w_1|+...+|w_{j-1}|) + 3j + |w_j|."""
    if j < 1:
        raise ValueError("anchor index must be >= 1")
    return 2 * cumulative_length(j - 1) + 3 * j + len(nth_word(j))


_zigzag: tuple = ()


def zigzag_prefix(n: int) -> Word:
    """The first n letters of the infinite ray a_1 a_2 a_1 a_2 ..."""
    global _zigzag
    if len(_zigzag) < n:
        m = max(n, 2 * len(_zigzag), 64)
        _zigzag = tuple(1 if p % 2 == 0 else 2 for p in range(m))
    return _zigzag[:n]


def anchor(j: int) -> Word:
    """The alternating word a_1 a_2 a_1 a_2 ... of length anchor_length(j)."""
    return zigzag_prefix(anchor_length(j))


# --- text format -----------------------------------------------------------

def parse_word(text: str) -> Word:
    """Parse the CLI word format: signed decimal integers separated by
    whitespace or commas; `e` denotes the empty word."""
    s = text.strip()
    if s in ("e", "E"):
        return ()
    tokens = s.replace(",", " ").split()
    if not tokens:
        raise ValueError("empty word text; use `e` for the empty word")
    letters = []
    for tok in tokens:
        try:
            x = int(tok)
        except ValueError:
            raise ValueError(f"non-integer token {tok!r} in word") from None
        if x == 0:
            raise ValueError("0 is not a valid generator index")
        letters.append(x)
    return tuple(letters)


def format_word(w: Word) -> str:
    return "e" if not w else " ".join(str(x) for x in w)
