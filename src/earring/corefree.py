"""Witness construction showing, at finite-word scale, that K contains no
nontrivial normal subgroup: conjugating any essential word by the anchor
of its enumeration index yields a word whose lift is not a loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import Vertex, base_vertex, island_data
from .lifting import LiftTrace, in_k, lift_word
from .words import (Word, anchor, anchor_length, check_word, format_word, index_of, invert,
                    nth_word, reduce_word, weight)


@dataclass(frozen=True)
class ConjugationCertificate:
    word: Word                  # the essential input word
    j: int                      # its enumeration index
    beta: Word                  # the conjugator (the anchor of index j)
    midpoint: Vertex            # lift position after beta
    conjugate_endpoint: Vertex  # lift endpoint of beta · word · beta^{-1}
    verdict: bool               # endpoint differs from the base point
    trace: LiftTrace


# Longest conjugate beta · w · beta^{-1} that witness_conjugator lifts.  A
# lift keeps about 500 bytes per letter (the 439,685 letters of the index
# 17,255 witness add 210 MB, for a peak near 256 MB), so this bounds a
# witness near 2 GB.
MAX_LIFT_LETTERS = 2 ** 22


def _oversize(j: int, w: Word) -> Optional[str]:
    """Why the lift of beta · w · beta^{-1}, with beta = anchor(j), is
    refused, or None when it has at most MAX_LIFT_LETTERS letters."""
    beta_len = anchor_length(j)
    if 2 * beta_len + len(w) <= MAX_LIFT_LETTERS:
        return None
    return (f"the conjugator of index {j} has |beta| = {beta_len} letters, so the lift "
            f"of beta w beta^-1 would take {2 * beta_len + len(w)} steps, over the "
            f"limit of {MAX_LIFT_LETTERS}")


def witness_conjugator(w: Word) -> ConjugationCertificate:
    """For an essential word w, lift beta · w · beta^{-1} from the base
    point with beta = anchor(index_of(w)) and certify the endpoint is
    not the base point.  Raises ValueError, before spelling beta, when
    that word is longer than MAX_LIFT_LETTERS."""
    w = check_word(w)
    if not reduce_word(w):
        raise ValueError("word reduces to the empty word; nothing to certify")
    j = index_of(w)
    refusal = _oversize(j, w)
    if refusal:
        raise ValueError(refusal)
    beta = anchor(j)
    gamma = beta + w + invert(beta)
    trace = lift_word(gamma)
    midpoint = trace.steps[len(beta) - 1].at
    end = trace.endpoint
    return ConjugationCertificate(
        word=w,
        j=j,
        beta=beta,
        midpoint=midpoint,
        conjugate_endpoint=end,
        verdict=end != base_vertex(),
        trace=trace,
    )


@dataclass(frozen=True)
class MidpointReport:
    j: int
    records: tuple   # per letter: (letter, kind, lift word, agree)
    ok: bool
    stays_on_island: bool


def midpoint_structure_check(cert: ConjugationCertificate) -> MidpointReport:
    """Verify that the middle segment of the certificate's lift follows
    the island's anchored edge-path vertex for vertex, and never leaves
    the island before the conjugator unwinds."""
    data = island_data(cert.j)
    middle = lift_word(cert.word, start=cert.midpoint)
    records = []
    ok = True
    stays = True
    prev = cert.midpoint.word
    for i, step in enumerate(middle.steps):
        if abs(step.letter) <= data.level:
            # on-island label: must be a tree step onto the edge-path vertex
            agree = step.kind == "tree" and step.at.word == data.z_path[i + 1]
        else:
            agree = step.kind == "loop" and step.at.word == prev
        ok = ok and agree
        hit = step.at.hit
        if hit is None or hit.j != cert.j:
            stays = False
        records.append((step.letter, step.kind, step.at.word, agree))
        prev = step.at.word
    return MidpointReport(cert.j, tuple(records), ok, stays)


@dataclass(frozen=True)
class ScanEntry:
    j: int
    word: Word
    essential: bool
    in_k: Optional[bool]
    verdict: Optional[bool]


@dataclass(frozen=True)
class ScanReport:
    max_weight: int
    entries: tuple
    checked: int
    skipped: int
    failures: tuple
    refused: int     # essential words whose lift is over MAX_LIFT_LETTERS

    @property
    def ok(self) -> bool:
        return not self.failures


def core_free_scan(max_weight: int) -> ScanReport:
    """Run the witness construction over every essential word of weight
    at most max_weight; report per-word K-membership and any verdict
    failures (expected: none).  A word whose witness lift would be longer
    than MAX_LIFT_LETTERS is refused: its entry has verdict None."""
    if max_weight < 2:
        raise ValueError("max_weight must be >= 2")
    entries = []
    failures = []
    checked = 0
    skipped = 0
    refused = 0
    j = 1
    while True:
        w = nth_word(j)
        if weight(w) > max_weight:
            break
        if not reduce_word(w):
            skipped += 1
            entries.append(ScanEntry(j, w, False, None, None))
        elif _oversize(j, w):
            refused += 1
            entries.append(ScanEntry(j, w, True, in_k(w), None))
        else:
            cert = witness_conjugator(w)
            checked += 1
            member = in_k(w)
            entries.append(ScanEntry(j, w, True, member, cert.verdict))
            if not cert.verdict:
                failures.append((j, format_word(w)))
        j += 1
    return ScanReport(max_weight, tuple(entries), checked, skipped, tuple(failures), refused)
