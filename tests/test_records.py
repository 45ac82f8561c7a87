"""The result records are named tuples: they keep their field names and
order, keyword construction and defaults, reprs, value equality and
hashing, and the attributes they make only on first read."""

import hashlib
import os
import subprocess
import sys

import pytest

from earring import words
from earring.charts import PointH, PointHat, edge_at, atlas_check
from earring.checks import removal_cross_check
from earring.corefree import (ScanReport, core_free_scan, midpoint_structure_check,
                              witness_conjugator)
from earring.graph import base_vertex, island_data, ray_vertex
from earring.lifting import lift_word


def test_reprs_are_pinned():
    # the reprs the reports had as frozen dataclasses, one pin per record,
    # so a record that moves names itself; IslandData's leaves out path,
    # records and max_len, and a midpoint record shows its vertex's word
    reports = {
        "scan": core_free_scan(4),
        "atlas": atlas_check(50, seed=1),
        "crosscheck": removal_cross_check(9, 2),
        "island_data": island_data(9),
        "midpoint": midpoint_structure_check(witness_conjugator((3,))),
    }
    digests = {name: hashlib.sha256(repr(r).encode()).hexdigest()[:16]
               for name, r in reports.items()}
    assert digests == {
        "scan": "6428bfcf490fd612",
        "atlas": "9cedee3190cc5f47",
        "crosscheck": "2e4ae5c11bfade29",
        "island_data": "44b7ef50f5fa25d1",
        "midpoint": "82af0d5a9d6d6681",
    }


def test_long_vertex_reprs_are_compact(monkeypatch):
    # a vertex of more than MAX_LIFT_LETTERS letters is written in the
    # compact form, as the CLI writes it, so no repr spells a far ray
    # prefix; CI checks the reprs at witness 12 under a memory cap
    monkeypatch.setattr(words, "MAX_LIFT_LETTERS", 100)
    cert = witness_conjugator((2, 1, -1))
    assert repr(ray_vertex(1000)) == "Vertex(ray[1000])"
    assert repr(cert) == ("ConjugationCertificate(word=(2, 1, -1), j=78, beta=RayPrefix(595), "
                          "midpoint=Vertex(ray[595]), turn=Vertex(ray[596]), unwind=595, "
                          "verdict=True)")
    assert repr(midpoint_structure_check(cert)) == (
        "MidpointReport(j=78, records=((2, 'tree', Vertex(ray[596]), True), "
        "(1, 'tree', Vertex(ray[597]), True), (-1, 'tree', Vertex(ray[596]), True)), "
        "ok=True, stays_on_island=True)")


def test_certificates_of_one_word_are_equal():
    a, b = witness_conjugator((3, 2, -2)), witness_conjugator((3, 2, -2))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != witness_conjugator((3,))


def test_far_certificate_hashes_without_spelling_beta():
    # beta of a_12 has 777,124,938 letters, about 6 GB spelled: under a
    # 1 GiB address-space cap, a hash that spelled it would raise MemoryError
    code = ("import resource; "
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
            "from earring.corefree import witness_conjugator; "
            "cert = witness_conjugator((12,)); "
            "assert hash(cert) == hash(witness_conjugator((12,)))")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert out.returncode == 0, out.stderr


def test_lazy_attributes_are_made_once():
    cert = witness_conjugator((3, 2, -2))
    assert "trace" not in vars(cert) and "conjugate_endpoint" not in vars(cert)
    assert cert.trace is cert.trace
    assert cert.conjugate_endpoint is cert.conjugate_endpoint
    data = island_data(9)
    assert data.z_set is data.z_set


def test_trace_keeps_no_steps():
    trace = lift_word((1, 2, 3, -1))
    assert not hasattr(trace, "__dict__")
    assert trace.steps == trace.steps


def test_keywords_defaults_and_positions():
    e = edge_at(base_vertex(), 3)
    p = PointHat(edge=e, t=0.5)
    assert p == PointHat.on_edge(e, 0.5) and p.vertex is None
    report = ScanReport(max_weight=2, entries=(), checked=0, skipped=0, failures=())
    assert report.ok
    circle, t = PointH.on_circle(3, 0.5)
    assert (circle, t) == (3, 0.5)


def test_fields_cannot_be_set():
    cert = witness_conjugator((3,))
    with pytest.raises(AttributeError):
        cert.verdict = False
    with pytest.raises(AttributeError):
        edge_at(base_vertex(), 3).label = 4


def test_replace_checks_an_edge():
    e = edge_at(base_vertex(), 3)
    assert e._replace(label=4) == edge_at(base_vertex(), 4)
    # the label of a replaced edge is checked as a new edge's is
    for label in (0, 1.5, True):
        with pytest.raises(ValueError):
            e._replace(label=label)
