import math

import pytest

from earring.charts import (
    ChartId,
    Edge,
    PointH,
    PointHat,
    atlas_check,
    charts_containing,
    edge_at,
    edge_into,
    edge_chart,
    in_circle_chart,
    in_wedge_chart,
    l_point,
    local_inverse,
    planar,
    q_point,
    vertex_chart,
    vertex_chart_level,
)
from earring.caching import reset_caches
from earring.checks import in_line
from earring.graph import Vertex, base_vertex, ray_vertex
from earring.words import anchor


class TestParametrization:
    def test_start_at_origin(self):
        assert l_point(1, 0.0) == (0.0, 0.0)

    def test_top_of_first_circle(self):
        x, y = l_point(1, 0.5)
        assert abs(x) < 1e-15
        assert abs(y - 2.0) < 1e-15

    def test_quarter_of_second_circle(self):
        x, y = l_point(2, 0.25)
        assert abs(x - 0.5) < 1e-15
        assert abs(y - 0.5) < 1e-15

    def test_circles_shrink(self):
        for i in (1, 2, 5, 40):
            x, y = l_point(i, 0.5)
            assert abs(y - 2.0 / i) < 1e-15


class TestPointH:
    def test_boundary_parameters_identify_origin(self):
        assert PointH.on_circle(3, 0.0).is_origin
        assert PointH.on_circle(3, 1.0).is_origin

    def test_interior(self):
        p = PointH.on_circle(3, 0.5)
        assert p.circle == 3 and p.t == 0.5

    def test_planar_origin(self):
        assert planar(PointH.origin()) == (0.0, 0.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PointH.on_circle(3, 1.5)
        with pytest.raises(ValueError):
            PointH.on_circle(0, 0.5)


class TestEdges:
    def test_tree_edge(self):
        e = edge_at(base_vertex(), 1)
        assert e.kind == "tree"
        assert e.terminal.word == (1,)

    def test_loop_edge(self):
        e = edge_at(base_vertex(), 3)
        assert e.kind == "loop"
        assert e.terminal is base_vertex()

    def test_edge_into(self):
        v = Vertex.make((1,))
        e = edge_into(v, 1)
        assert e.base is base_vertex()
        assert e.terminal is v


def _ball(center: Vertex, radius: int) -> list:
    """Every vertex within `radius` tree steps of center, each once."""
    ball = {center: None}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for s in v.e_set:
                for x in (s, -s):
                    u = v.step(x)[1]
                    if u not in ball:
                        ball[u] = None
                        nxt.append(u)
        frontier = nxt
    return list(ball)


class TestDerivedKindAndTag:
    """An edge is (base, label) and a chart is (edge, owner): the edge's
    kind and the chart's tag are read, never stored."""

    def test_fields(self):
        assert Edge._fields == ("base", "label")
        assert ChartId._fields == ("edge", "owner")

    def test_kind_and_terminal_are_the_step(self):
        reset_caches()
        centers = [base_vertex()] + [Vertex.make(anchor(j)) for j in range(1, 11)]
        vertices = dict.fromkeys(v for c in centers for v in _ball(c, 3))
        assert len(vertices) > 600
        for v in vertices:
            for s in range(1, max(v.e_set) + 4):
                e = edge_at(v, s)
                kind, terminal = v.step(s)
                assert e.kind == kind, (v, s)
                assert e.terminal is terminal, (v, s)
                assert edge_into(v, s).terminal is v, (v, s)

    @pytest.mark.parametrize("label", [1.0, True], ids=["float", "bool"])
    def test_a_bad_label_is_refused_before_the_base_is_classified(self, label):
        reset_caches()
        v = ray_vertex(7)
        assert v._e_set is None
        with pytest.raises(ValueError):
            edge_at(v, label)
        assert v._e_set is None

    def test_tags(self):
        v = Vertex.make((1, 2, -1))
        assert edge_chart(edge_at(v, 3)).tag == "edge"
        assert vertex_chart(v).tag == "vertex"
        assert edge_chart(edge_at(v, 3)).level is None
        assert vertex_chart(v).level == vertex_chart_level(v)


def _trie_vertices():
    """Every vertex of the current trie: those below the base point, and
    those below each live ray vertex."""
    from earring import graph
    todo = [base_vertex()] + [ref() for ref in list(graph._rays.values())]
    seen = set()
    while todo:
        v = todo.pop()
        if v is None or v in seen:
            continue
        seen.add(v)
        kids = v._children
        if kids.__class__ is dict:
            todo.extend(kids.values())
        elif kids is not None:
            todo.append(kids)
    return seen


class TestIndicesAreLetters:
    """An edge label, a circle index and a line direction are indices of
    generators: an int (not a bool) >= 1, as a letter of a word is.  Any
    other value is refused before it can step, so it never becomes the
    letter of a trie vertex."""

    BAD = {
        "edge_at-float": lambda: edge_at(ray_vertex(3), 1.0).terminal,
        "edge_into-float": lambda: edge_into(Vertex.make((1,)), 2.0),
        "Edge-float": lambda: Edge(base_vertex(), 1.5),
        "Edge-bool": lambda: Edge(Vertex.make((1,)), True),
        "on_circle-float": lambda: PointH.on_circle(2.5, 0.5),
        "l_point-float": lambda: l_point(2.5, 0.5),
        "in_line-float": lambda: in_line((1, 2), (1, 2), 2.5),
        "in_line-bool": lambda: in_line((1, 2, 1), (1, 2), True),
    }

    @pytest.mark.parametrize("call", BAD.values(), ids=BAD.keys())
    def test_refused_and_no_vertex_gets_the_letter(self, call):
        reset_caches()
        with pytest.raises(ValueError):
            call()
        for v in (Vertex.make((1, 2, 1, 1)), Vertex.make((1, -2))):
            assert [type(x) for x in v.word] == [int] * len(v.word)
        assert {type(v.letter) for v in _trie_vertices()} == {int}

    def test_an_int_enum_label_is_refused(self):
        # an IntEnum member equals its value: as an edge label it would
        # become the letter of the terminal vertex
        from enum import IntEnum
        A = IntEnum("A", {"one": 1})
        reset_caches()
        with pytest.raises(ValueError, match=r"^invalid letter <A\.one: 1>: letters are "
                                             r"nonzero ints$"):
            edge_at(ray_vertex(5), A.one)
        for w in ((1, 2, 1, 1), (1, 2, 1, 2, 1, 1)):
            assert [type(x) for x in Vertex.make(w).word] == [int] * len(w)
        assert {type(v.letter) for v in _trie_vertices()} == {int}

    def test_an_int_below_one_keeps_its_message(self):
        with pytest.raises(ValueError, match="^edge label must be a positive index$"):
            edge_at(base_vertex(), 0)
        with pytest.raises(ValueError, match="^edge label must be a positive index$"):
            edge_into(base_vertex(), -1)
        with pytest.raises(ValueError, match="^circle index must be >= 1$"):
            l_point(0, 0.5)
        with pytest.raises(ValueError, match="^line direction must be >= 1$"):
            in_line((), (), 0)


class TestProjection:
    def test_vertex_projects_to_origin(self):
        assert q_point(PointHat.at_vertex(base_vertex())).is_origin

    def test_edge_point_projects_to_circle(self):
        e = edge_at(base_vertex(), 3)
        x = q_point(PointHat.on_edge(e, 0.5))
        assert x.circle == 3 and x.t == 0.5


class TestChartsContaining:
    def test_vertex_point(self):
        p = PointHat.at_vertex(base_vertex())
        charts = charts_containing(p)
        assert [c.tag for c in charts] == ["vertex"]
        assert charts[0].level == 2

    def test_middle_of_tree_edge(self):
        e = edge_at(base_vertex(), 1)
        charts = charts_containing(PointHat.on_edge(e, 0.5))
        assert [c.tag for c in charts] == ["edge"]

    def test_near_initial_vertex(self):
        e = edge_at(base_vertex(), 1)
        charts = charts_containing(PointHat.on_edge(e, 0.3))
        assert {c.tag for c in charts} == {"edge", "vertex"}
        owners = [c.owner for c in charts if c.tag == "vertex"]
        assert owners == [base_vertex()]

    def test_near_terminal_vertex(self):
        e = edge_at(base_vertex(), 1)
        charts = charts_containing(PointHat.on_edge(e, 0.7))
        owners = [c.owner for c in charts if c.tag == "vertex"]
        assert owners == [e.terminal]

    def test_high_loop_fully_inside_vertex_chart(self):
        e = edge_at(base_vertex(), 5)
        charts = charts_containing(PointHat.on_edge(e, 0.5))
        assert {c.tag for c in charts} == {"edge", "vertex"}

    def test_at_most_one_chart_of_each_tag(self):
        e = edge_at(base_vertex(), 1)
        for t in (0.3, 0.5, 0.7, 0.05, 0.95):
            charts = charts_containing(PointHat.on_edge(e, t))
            assert sum(1 for c in charts if c.tag == "edge") <= 1
            assert sum(1 for c in charts if c.tag == "vertex") <= 1
            assert charts


class TestLocalInverse:
    def test_loop_recovered_through_base_chart(self):
        c = vertex_chart(base_vertex())
        back = local_inverse(c, PointH.on_circle(3, 0.5))
        assert not back.is_vertex
        assert back.edge.kind == "loop"
        assert back.edge.label == 3
        assert back.t == 0.5

    def test_origin_recovered_as_vertex(self):
        c = vertex_chart(base_vertex())
        back = local_inverse(c, PointH.origin())
        assert back.is_vertex and back.vertex is base_vertex()

    def test_round_trip_through_edge_chart(self):
        e = edge_at(base_vertex(), 1)
        p = PointHat.on_edge(e, 0.6)
        back = local_inverse(edge_chart(e), q_point(p))
        assert back == p

    def test_incoming_arc_recovered(self):
        v = Vertex.make((1,))
        c = vertex_chart(v)
        back = local_inverse(c, PointH.on_circle(1, 0.9))
        assert back.edge == edge_into(v, 1)
        assert back.t == 0.9

    def test_outside_range_rejected(self):
        with pytest.raises(ValueError):
            local_inverse(vertex_chart(base_vertex()), PointH.on_circle(1, 0.5))


class TestRanges:
    def test_circle_chart(self):
        assert in_circle_chart(PointH.on_circle(2, 0.5), 2)
        assert not in_circle_chart(PointH.on_circle(2, 0.2), 2)
        assert not in_circle_chart(PointH.on_circle(1, 0.5), 2)
        assert not in_circle_chart(PointH.origin(), 2)

    def test_wedge_chart(self):
        assert in_wedge_chart(PointH.origin(), 2)
        assert in_wedge_chart(PointH.on_circle(7, 0.5), 2)
        assert in_wedge_chart(PointH.on_circle(1, 0.1), 2)
        assert not in_wedge_chart(PointH.on_circle(1, 0.5), 2)

    def test_wedge_nesting(self):
        # the level-m range contains the level-n range for m <= n, on a grid
        # that straddles both end-arc boundaries of circles 1-12
        ts = (0.001, 0.374, 0.375, 0.376, 0.5, 0.624, 0.625, 0.626, 0.999)
        pts = [PointH.origin()] + [PointH.on_circle(i, t) for i in range(1, 13) for t in ts]
        for x in pts:
            for n in range(2, 13):
                if in_wedge_chart(x, n):
                    for m in range(2, n):
                        assert in_wedge_chart(x, m), (x, n, m)

    def test_vertex_chart_level_on_island(self):
        assert vertex_chart_level(base_vertex()) == 2
        assert vertex_chart_level(Vertex.make(anchor(9))) == 3


class TestAtlasCheck:
    def test_small_run_is_clean(self):
        report = atlas_check(200, seed=7)
        assert report.ok
        assert report.samples == 200
        assert report.round_trips >= report.samples
        assert report.overlaps > 0

    def test_deterministic_for_a_seed(self):
        a = atlas_check(60, seed=3)
        b = atlas_check(60, seed=3)
        assert a == b

    def test_wrong_preimage_is_a_round_trip_failure(self, monkeypatch):
        # a local inverse that takes the outgoing edge a_i for the incoming
        # one still projects to x: only the exact round trip names it
        monkeypatch.setattr("earring.charts.edge_into", edge_at)
        report = atlas_check(1000, seed=0)
        assert report.failures
        assert {kind for kind, _ in report.failures} == {"round-trip"}

    def test_negative_sample_count_is_rejected(self):
        with pytest.raises(ValueError):
            atlas_check(-5)
        report = atlas_check(0)
        assert report.ok and report.samples == report.round_trips == 0
