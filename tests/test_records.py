"""The result records are named tuples: they keep their field names and
order, keyword construction and defaults, reprs, value equality and
hashing, and the attributes they make only on first read."""

import hashlib

import pytest

from earring.charts import PointH, PointHat, edge_at, atlas_check
from earring.corefree import (ScanReport, core_free_scan, midpoint_structure_check,
                              witness_conjugator)
from earring.graph import base_vertex, island_data, removal_cross_check
from earring.lifting import lift_word


def test_reprs_are_pinned():
    # the reprs the reports had as frozen dataclasses; IslandData's leaves
    # out path, records and max_len
    text = (repr(core_free_scan(4)) + repr(atlas_check(50, seed=1))
            + repr(removal_cross_check(9, 2)) + repr(island_data(9))
            + repr(midpoint_structure_check(witness_conjugator((3,)))))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "43e713cf8f2cf239"


def test_certificates_of_one_word_are_equal():
    a, b = witness_conjugator((3, 2, -2)), witness_conjugator((3, 2, -2))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != witness_conjugator((3,))


def test_lazy_attributes_are_made_once():
    cert = witness_conjugator((3, 2, -2))
    assert "trace" not in vars(cert) and "conjugate_endpoint" not in vars(cert)
    assert cert.trace is cert.trace
    assert cert.conjugate_endpoint is cert.conjugate_endpoint
    trace = lift_word((1, 2, 3, -1))
    assert "steps" not in vars(trace)
    assert trace.steps is trace.steps
    data = island_data(9)
    assert data.z_set is data.z_set


def test_keywords_defaults_and_positions():
    e = edge_at(base_vertex(), 3)
    p = PointHat(edge=e, t=0.5)
    assert p == PointHat.on_edge(e, 0.5) and p.vertex is None
    report = ScanReport(max_weight=2, entries=(), checked=0, skipped=0, failures=())
    assert report.refused == 0 and report.ok
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
    with pytest.raises(ValueError):
        e._replace(kind="tree")
