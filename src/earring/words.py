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

Random access is closed-form: `nth_word` unranks j inside its
(length, max index) class, `index_of` ranks a word, `word_length`,
`cumulative_length` and `anchor_length` sum over classes,
`anchor_index` inverts `anchor_length`, and `anchor_window` finds the
one anchor near a ray position.  No word is stored; the only
table holds one entry per class, about w^2/2 entries for the words of
weight up to w, and it stops at weight MAX_WEIGHT = 384: `index_of`
refuses a word of greater weight, and `nth_word` an index past the words
of weight 384 (about 1.7 * 10^675 of them), with ValueError.  A sweep
walks one weight at a time through `words_of_weight`, which spells the
words of a weight in enumeration order, the twin of `nth_word`.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_right

Letter = int
Word = tuple  # tuple[int, ...]


def check_word(w: Word) -> Word:
    """Validate letters, nonzero plain ints: no bool or other int
    subclass, which would compare and hash equal to a plain letter and so
    could become the letter of a trie vertex; return w as a tuple."""
    w = tuple(w)
    # a word of plain nonzero ints passes at C speed, with no Python loop;
    # a word that is not all plain ints always raises here
    if operator.countOf(map(type, w), int) != len(w) or not all(w):
        for x in w:
            if type(x) is not int or x == 0:
                raise ValueError(f"invalid letter {x!r}: letters are nonzero ints")
    return w


def check_index(i: int, message: str) -> None:
    """Refuse i as the index of a generator a_i unless it is a letter by
    the rule of `check_word` and >= 1; an int below 1 with `message`."""
    if i.__class__ is not int:
        check_word((i,))
    if i < 1:
        raise ValueError(message)


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
    # no adjacent pair x, -x: every sum w[i] + w[i+1] is nonzero, at C speed
    return all(map(operator.add, w, w[1:]))


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
    return len(w) + max(map(abs, w))


# --- canonical enumeration -------------------------------------------------
# The words of one (length, m) class, m the max generator index, all have
# the same length, so positions and letter counts are sums over classes.
# The class table lists the classes in enumeration order, one weight at a
# time, and grows only as far as the largest index asked for: about
# w^2/2 entries reach the words of weight w.

_firsts: list[int] = [0]  # _firsts[k]: words before class k; last: words in the table
_classes: list[tuple] = []  # class k: (length, m, letters before class k)
_first_anchors: list[int] = []  # anchor_length of the first word of class k
_letters_total = 0


def _class_count(length: int, m: int) -> int:
    """Words of given length over {a_1^±..a_m^±} whose max index is exactly m."""
    return (2 * m) ** length - (2 * m - 2) ** length


# The class table stops at this weight.  Reaching it takes about 0.4 s and
# 70 MB and lists 73,536 classes of about 1.7 * 10^675 words; the cost grows
# about as the cube of the weight (weight 600: 1.6 s and 219 MB), so a word
# of a greater weight, or an index past those words, raises ValueError.
MAX_WEIGHT = 384


def _add_weight() -> None:
    global _letters_total
    wt = sum(_classes[-1][:2]) + 1 if _classes else 2
    if wt > MAX_WEIGHT:
        raise ValueError(f"the word index stops at weight {MAX_WEIGHT}")
    for length in range(1, wt):
        m = wt - length
        count = _class_count(length, m)
        _classes.append((length, m, _letters_total))
        _first_anchors.append(2 * _letters_total + 3 * (_firsts[-1] + 1) + length)
        _firsts.append(_firsts[-1] + count)
        _letters_total += count * length


def _drop_classes() -> None:
    """Empty the class table; it grows again as far as the next index asked
    for.  After the words of weight 384 it holds about 52 MB."""
    global _letters_total
    del _firsts[1:], _classes[:], _first_anchors[:]
    _letters_total = 0


def _class_of(j: int) -> tuple:
    """(class of w_j, words of that class before w_j), for j >= 1."""
    j = operator.index(j)  # a float would unrank to float letters
    while _firsts[-1] < j:
        _add_weight()
    k = bisect_right(_firsts, j - 1) - 1
    return _classes[k], j - 1 - _firsts[k]


# Inside a class, a letter is a digit in base 2m, in the order a_1 <
# a_1^{-1} < a_2 < ...: a_i is 2i - 2 and a_i^{-1} is 2i - 1, so x > 0 is
# 2x - 2 and x < 0 is -2x - 1.  The class holds the words of `length`
# digits with a digit >= low = 2m - 2.  Let h be the position of the first
# such digit of w, and P the value of the digits before h in base low.
# Among all words of its length w has the rank H, the value of its digits
# in base 2m (Horner's rule).  The words before it that lack a high digit
# are those whose first h digits, read in base low, are at most P: there
# are (P + 1) * low^(length - h) of them.  So w's rank in its class is
# H - (P + 1) * low^(length - h).
def nth_word(j: int) -> Word:
    """The j-th word of the canonical enumeration (j >= 1)."""
    if j < 1:
        raise ValueError("enumeration index must be >= 1")
    (length, m, _), r = _class_of(j)
    # unrank r, the inverse of the rank above: while no high digit has
    # appeared, a digit d < low leaves part = size^rest - low^rest
    # continuations.  At the first high digit (the last one at the latest)
    # the low * part words whose next digit is low come before, and every
    # digit from there on is free, so those digits are the plain base-2m
    # digits of r - low * part + low * size^rest = r + low^(rest + 1)
    size = 2 * m
    low = size - 2
    out = []
    for rest in range(length - 1, -1, -1):
        part = size ** rest - low ** rest
        if r >= low * part:
            r += low ** (rest + 1)
            break
        d, r = divmod(r, part)
        out.append(~(d >> 1) if d & 1 else (d >> 1) + 1)
    out += [0] * (rest + 1)
    for i in range(length - 1, length - 2 - rest, -1):
        r, d = divmod(r, size)
        out[i] = ~(d >> 1) if d & 1 else (d >> 1) + 1
    return tuple(out)


def index_of(w: Word) -> int:
    """Inverse of nth_word: nth_word(index_of(w)) == w letter-for-letter."""
    w = check_word(w)
    if not w:
        raise ValueError("the empty word has no enumeration index")
    m = max(map(abs, w))
    length = len(w)
    wt = length + m
    if wt > MAX_WEIGHT:
        raise ValueError(f"the word has weight {wt}; the word index stops at weight "
                         f"{MAX_WEIGHT}")
    # the classes of weight wt start at (wt-1)(wt-2)/2 and go by length
    k = (wt - 1) * (wt - 2) // 2 + length - 1
    while len(_classes) <= k:
        _add_weight()
    # rank w inside its class, as above: H - (P + 1) * low^(length - h)
    # with H the Horner value `horner` and P the prefix value `p`
    size = 2 * m
    low = size - 2
    letters = iter(w)
    horner = p = 0
    for h, x in enumerate(letters):
        d = 2 * x - 2 if x > 0 else -2 * x - 1
        horner = horner * size + d
        if d >= low:
            break
        p = p * low + d
    for x in letters:
        horner = horner * size + (2 * x - 2 if x > 0 else -2 * x - 1)
    return _firsts[k] + horner - (p + 1) * low ** (length - h) + 1


def words_of_weight(wt):
    """The words of weight wt in enumeration order: nth_word(j) for the j
    of those words, spelled one after another without unranking any."""
    for length in range(1, wt):
        m = wt - length
        # a_1 < a_1^{-1} < a_2 < ... < a_m^{-1}; the class is the words
        # that use a_m or its inverse
        letters = sum(zip(range(1, m + 1), range(-1, -m - 1, -1)), ())
        for w in itertools.product(letters, repeat=length):
            if m in w or -m in w:
                yield w


def word_length(j: int) -> int:
    """|w_j|, without spelling w_j."""
    if j < 1:
        raise ValueError("enumeration index must be >= 1")
    return _class_of(j)[0][0]


def cumulative_length(j: int) -> int:
    """|w_1| + |w_2| + ... + |w_j| (0 for j = 0)."""
    if j < 0:
        raise ValueError("index must be >= 0")
    if j == 0:
        return 0
    (length, _, before), r = _class_of(j)
    return before + (r + 1) * length


def anchor_length(j: int) -> int:
    """2(|w_1|+...+|w_{j-1}|) + 3j + |w_j|."""
    if j < 1:
        raise ValueError("anchor index must be >= 1")
    (length, _, before), r = _class_of(j)
    # w_1..w_{j-1} are the classes before w_j's and r words of its own
    return 2 * (before + r * length) + 3 * j + length


def anchor_index(p: int) -> int:
    """The largest j with anchor_length(j) <= p, or 0."""
    # the first word past the table anchors at 2 * letters + 3 * (words + 1)
    # plus its length, so once 2 * letters + 3 * words + 4 exceeds p every
    # anchor at or below p is in the table
    while 2 * _letters_total + 3 * _firsts[-1] + 4 <= p:
        _add_weight()
    k = bisect_right(_first_anchors, p) - 1
    if k < 0:
        return 0
    # inside a class of length L consecutive anchors are 2L + 3 apart; past
    # the class's last word the quotient overshoots when the next class has
    # longer words, hence the clamp
    r = (p - _first_anchors[k]) // (2 * _classes[k][0] + 3)
    return _firsts[k] + min(r, _firsts[k + 1] - _firsts[k] - 1) + 1


def anchor_window(p: int):
    """(j, anchor_length(j)) for the island j whose anchor lies within
    |w_j| + 1 of the ray position p, or None.  Consecutive anchors are
    |w_j| + 3 + |w_{j+1}| apart, so only the last anchor at or before p
    or the next one can be that close, and at most one of them is; each
    candidate is read with one class lookup."""
    j = anchor_index(p)
    for j in range(max(j, 1), j + 2):
        (length, _, before), r = _class_of(j)
        a = 2 * (before + r * length) + 3 * j + length
        if abs(p - a) <= length + 1:
            return j, a
    return None


def _ray_letter(p: int) -> Letter:
    """Letter p of the zig-zag ray: a_1 at even p, a_2 at odd p."""
    return 1 if p % 2 == 0 else 2


def ray_run(start: int, stop: int) -> Word:
    """Letters start..stop-1 of the zig-zag ray."""
    n = max(0, stop - start)
    head = _ray_letter(start)
    return (head, 3 - head) * (n // 2) + (head,) * (n % 2)


def zigzag_prefix(n: int) -> Word:
    """The first n letters of the infinite ray a_1 a_2 a_1 a_2 ..."""
    return ray_run(0, n)


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
    return "e" if not w else " ".join(map(str, w))


# The bound on what is spelled or lifted letter by letter.  It bounds:
# - vertex text: `format_ray_word` spells a word of up to this many letters,
#   and writes a longer one in the compact form `ray[p] <letters> ray[m]^-1`,
#   the ray prefix R[:p], the letters past it, and the inverse of a ray
#   prefix R[:m];
# - a witness certificate's `trace` and `conjugate_endpoint`, which are
#   refused past this many steps, before beta is spelled;
# - the sample of `checks.removal_cross_check`, in letters.
# A witness itself takes O(|w|) time and memory at any index.  The witness
# of a_12 (j = 41,501,135) has vertices of 777,124,938 and 1,554,249,877
# letters.
MAX_LIFT_LETTERS = 2 ** 22


def format_ray_word(p: int, tail: str, m: int, letters: int) -> str:
    """The word R[:p] + tail + R[:m]^{-1} of `letters` letters, R = a_1 a_2
    a_1 ... the zig-zag ray and tail the text of the letters between ("" for
    none), written as format_word writes it, or in the compact form when it
    has more than MAX_LIFT_LETTERS letters.  Each ray run is written as one
    repeated block of text, never letter by letter.  The CLI and the vertex
    repr write vertices with it."""
    if letters > MAX_LIFT_LETTERS:
        ray, back = f"ray[{p}] " * (p > 0), f"ray[{m}]^-1 " * (m > 0)
    else:
        ray, back = "1 2 " * (p // 2) + "1 " * (p % 2), "-1 " * (m % 2) + "-2 -1 " * (m // 2)
    return (ray + tail + " " * (tail != "") + back)[:-1] or "e"
