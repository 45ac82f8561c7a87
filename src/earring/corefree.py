"""Witness construction showing, at finite-word scale, that K contains no
nontrivial normal subgroup: conjugating any essential word by the anchor
of its enumeration index yields a word whose lift is not a loop.

The anchor beta = a_1 a_2 a_1 ... uses only a_1 and a_2, so lifting beta
and beta^{-1} is free reduction along the zig-zag ray: a witness lifts
beta as one segment to the ray vertex of depth |beta|, lifts w letter by
letter from there, and computes only the cancellation where beta^{-1}
meets the end of that lift.  It takes time and memory O(|w|) at any
index j; the letter-by-letter lift of beta . w . beta^{-1} is replayed
only when `trace` is read.  The certificate and the reports are named
tuples: they compare by value and are immutable.
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import NamedTuple, Optional

from . import words
from .graph import Vertex, base_vertex, island_data, ray_vertex
from .lifting import LiftTrace, RayPrefix, endpoint, in_k, lift_ray_inverse, lift_word
# nth_word is kept as a name of this module: perfbench/tracer.py wraps it here
from .words import (Word, anchor, anchor_length, check_word, format_word, index_of, invert,
                    nth_word, reduce_word, words_of_weight)


class _CertificateFields(NamedTuple):
    word: Word                  # the essential input word
    j: int                      # its enumeration index
    beta: RayPrefix             # the conjugator (the anchor of index j)
    midpoint: Vertex            # lift position after beta: the ray vertex R[:|beta|]
    turn: Vertex                # the lift of beta . word . beta^{-1} ends at
    unwind: int                 # turn.word + R[:unwind]^{-1}
    verdict: bool               # endpoint differs from the base point


class ConjugationCertificate(_CertificateFields):
    """A named tuple of the witness's fields; the endpoint vertex and the
    letter-by-letter trace are made on first read.  It hashes by its word
    and index, which equal certificates share, so that `beta` is not
    spelled."""

    def __hash__(self):
        return hash((self.word, self.j))

    @cached_property
    def conjugate_endpoint(self) -> Vertex:
        """Lift endpoint of beta . word . beta^{-1}; made on first read, in
        `unwind` steps from `turn`.  Refused with ValueError, before any
        letter is spelled, past MAX_LIFT_LETTERS steps."""
        if self.unwind > words.MAX_LIFT_LETTERS:
            raise ValueError(f"the endpoint lies {self.unwind} steps past the turn; at "
                             f"most {words.MAX_LIFT_LETTERS} are lifted")
        return endpoint(invert(self.beta[:self.unwind]), start=self.turn)

    @cached_property
    def trace(self) -> LiftTrace:
        """The lift of the spelled beta . word . beta^{-1} from the base
        point; its steps replay the lift letter by letter.  Refused with
        ValueError, before beta is spelled, past MAX_LIFT_LETTERS steps."""
        steps = 2 * self.beta.length + len(self.word)
        if steps > words.MAX_LIFT_LETTERS:
            raise ValueError(f"the lift of beta w beta^-1 has {steps} steps; a trace "
                             f"holds at most {words.MAX_LIFT_LETTERS}")
        beta = anchor(self.j)
        return LiftTrace(base_vertex(), beta + self.word + invert(beta),
                         self.conjugate_endpoint)


def witness_conjugator(w: Word) -> ConjugationCertificate:
    """For an essential word w, lift beta . w . beta^{-1} from the base
    point with beta = anchor(index_of(w)) and certify the endpoint is
    not the base point: it is exactly when the lift of w from the ray
    vertex R[:|beta|] ends elsewhere."""
    w = check_word(w)
    if not reduce_word(w):
        raise ValueError("word reduces to the empty word; nothing to certify")
    j = index_of(w)
    n = anchor_length(j)
    mid = ray_vertex(n)
    turn, unwind = lift_ray_inverse(lift_word(w, start=mid).endpoint, n)
    return ConjugationCertificate(
        word=w,
        j=j,
        beta=RayPrefix(n),
        midpoint=mid,
        turn=turn,
        unwind=unwind,
        verdict=bool(unwind or turn.depth),
    )


class MidpointReport(NamedTuple):
    """The middle segment of a witness's lift, one record per letter of
    the word: (letter, kind, the vertex after the step, agree).  A record
    holds the vertex, which spells its word only when `.word` is read."""

    j: int
    records: tuple
    ok: bool
    stays_on_island: bool


def midpoint_structure_check(cert: ConjugationCertificate) -> MidpointReport:
    """Verify that the middle segment of the certificate's lift follows
    the island's anchored edge-path vertex for vertex, and never leaves
    the island before the conjugator unwinds.  The island's edge-path
    vertices are trie vertices, and a word has one live vertex, so a step
    is compared with `is` in O(1) and nothing is spelled: the check
    answers at any index."""
    data = island_data(cert.j)
    middle = lift_word(cert.word, start=cert.midpoint)
    records = []
    ok = True
    stays = True
    for i, step in enumerate(middle.steps):
        at = step.at
        # every letter of w is an island label, as n_j = max(2, max index
        # in w): each step must be a tree step onto the edge-path vertex
        agree = step.kind == "tree" and at is data.path[i + 1]
        ok = ok and agree
        hit = at.hit
        if hit is None or hit.j != cert.j:
            stays = False
        records.append((step.letter, step.kind, at, agree))
    return MidpointReport(cert.j, tuple(records), ok, stays)


class ScanEntry(NamedTuple):
    j: int
    word: Word
    essential: bool
    in_k: Optional[bool]
    verdict: Optional[bool]


class ScanReport(NamedTuple):
    max_weight: int
    entries: tuple
    checked: int
    skipped: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def core_free_scan(max_weight: int) -> ScanReport:
    """Run the witness construction over every essential word of weight
    at most max_weight; report per-word K-membership and any verdict
    failures (expected: none).  The sweep walks one weight at a time
    through `words.words_of_weight` and counts the index j itself, so no
    word is unranked.  A weight past words.MAX_WEIGHT, where the word
    index stops, is refused with ValueError before any word is certified."""
    max_weight = operator.index(max_weight)  # True is 1, and 5.0 is refused
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    if max_weight > words.MAX_WEIGHT:
        raise ValueError(f"the word index stops at weight {words.MAX_WEIGHT}")
    entries = []
    failures = []
    checked = 0
    skipped = 0
    j = 0
    for wt in range(2, max_weight + 1):
        for w in words_of_weight(wt):
            j += 1
            if not reduce_word(w):
                skipped += 1
                entries.append(ScanEntry(j, w, False, None, None))
            else:
                cert = witness_conjugator(w)
                checked += 1
                member = in_k(w)
                entries.append(ScanEntry(j, w, True, member, cert.verdict))
                if not cert.verdict:
                    failures.append((j, format_word(w)))
    return ScanReport(max_weight, tuple(entries), checked, skipped, tuple(failures))
