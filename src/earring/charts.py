"""Numeric realization of the chart atlas: circle parametrizations, the
edge and vertex charts, the point-level projection, and the local
inverses whose round trips certify the local-homeomorphism structure.

Points downstairs are held symbolically as (circle index, parameter t)
with t in (0, 1); t in {0, 1} is identified with the origin.  The planar
embedding is used only for display.  Points, edges, charts and the audit
report are named tuples: they compare by value and are immutable.  An
edge is (base, label), and its kind is read from the base's tree labels;
a chart is its edge or its owner vertex, and its tag says which is set.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .graph import Vertex, base_vertex
from .words import anchor, check_index


class PointH(NamedTuple):
    """A point of the earring, as the named tuple (circle, t): the origin,
    or an interior point of the i-th circle."""

    circle: Optional[int] = None   # None encodes the origin
    t: Optional[float] = None

    @staticmethod
    def origin() -> "PointH":
        return PointH()

    @staticmethod
    def on_circle(i: int, t: float) -> "PointH":
        check_index(i, "circle index must be >= 1")
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter must lie in [0, 1]")
        if t in (0.0, 1.0):
            return PointH()
        return PointH(i, t)

    @property
    def is_origin(self) -> bool:
        return self.circle is None


def l_point(i: int, t: float) -> tuple:
    """Planar coordinates of the i-th circle at parameter t."""
    check_index(i, "circle index must be >= 1")
    return (math.sin(2 * math.pi * t) / i, (1 - math.cos(2 * math.pi * t)) / i)


def planar(p: PointH) -> tuple:
    if p.is_origin:
        return (0.0, 0.0)
    return l_point(p.circle, p.t)


_LABEL = "edge label must be a positive index"


class _EdgeFields(NamedTuple):
    base: Vertex
    label: int


class Edge(_EdgeFields):
    """A directed edge upstairs, as the named tuple (base, label): its
    initial vertex and positive label.  Its kind is read from the base's
    tree labels: a tree edge runs to the reduced product, a loop stays.
    The label is checked on construction, so no float or bool label can
    step."""

    __slots__ = ()

    def __new__(cls, base: Vertex, label: int):
        check_index(label, _LABEL)
        return tuple.__new__(cls, (base, label))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its label too
        return cls(*iterable)

    @property
    def kind(self) -> str:
        """'tree' if the label is a tree label at the base, else 'loop'."""
        return "tree" if self.label in self.base.e_set else "loop"

    @property
    def terminal(self) -> Vertex:
        return self.base.step(self.label)[1]


def edge_at(v: Vertex, label: int) -> Edge:
    """The edge labeled a_label emanating from v."""
    return Edge(v, label)


def edge_into(v: Vertex, label: int) -> Edge:
    """The edge labeled a_label terminating in v."""
    check_index(label, _LABEL)
    if label in v.e_set:
        return Edge(v.step(-label)[1], label)
    return Edge(v, label)


class PointHat(NamedTuple):
    """A point upstairs, as the named tuple (vertex, edge, t): a vertex,
    or an interior point of an edge."""

    vertex: Optional[Vertex] = None
    edge: Optional[Edge] = None
    t: Optional[float] = None

    @staticmethod
    def at_vertex(v: Vertex) -> "PointHat":
        return PointHat(vertex=v)

    @staticmethod
    def on_edge(e: Edge, t: float) -> "PointHat":
        if not 0.0 < t < 1.0:
            raise ValueError("edge-interior parameter must lie in (0, 1)")
        return PointHat(edge=e, t=t)

    @property
    def is_vertex(self) -> bool:
        return self.vertex is not None


def vertex_chart_level(v: Vertex) -> int:
    """Minimal n with all tree labels of v at most n; n >= 2, since every
    vertex has the tree labels 1 and 2."""
    return max(v.e_set)


class ChartId(NamedTuple):
    """An atlas chart, as the named tuple (edge, owner): the chart of one
    edge (range: one arc of one circle) or the chart of one vertex
    (range: the small circles and both end-arcs of the large ones).  It
    is identified by its edge or its owner, whichever is set."""

    edge: Optional[Edge] = None
    owner: Optional[Vertex] = None

    @property
    def tag(self) -> str:
        """'edge' for the chart of an edge, 'vertex' for that of a vertex."""
        return "edge" if self.edge is not None else "vertex"

    @property
    def level(self) -> Optional[int]:
        """For a vertex chart, the n with range U_{n+1}^inf."""
        if self.edge is not None:
            return None
        return vertex_chart_level(self.owner)


def edge_chart(e: Edge) -> ChartId:
    return ChartId(edge=e)


def vertex_chart(v: Vertex) -> ChartId:
    return ChartId(owner=v)


def q_point(p: PointHat) -> PointH:
    """The projection: vertices to the origin, an interior edge point at
    parameter t on an edge labeled a_i to the i-th circle at t."""
    if p.is_vertex:
        return PointH.origin()
    return PointH.on_circle(p.edge.label, p.t)


def charts_containing(p: PointHat) -> list:
    """All atlas charts containing the point, per the interval rules."""
    if p.is_vertex:
        return [vertex_chart(p.vertex)]
    e, t = p.edge, p.t
    charts = []
    if 0.25 < t < 0.75:
        charts.append(edge_chart(e))
    vertex_owners = []
    if t < 0.375:
        vertex_owners.append(e.base)
    if t > 0.625:
        vertex_owners.append(e.terminal)
    if e.label > vertex_chart_level(e.base):
        # a label above every tree label at the base forms a loop, and the
        # entire loop lies in its vertex's chart
        vertex_owners.append(e.base)
    charts.extend(map(vertex_chart, dict.fromkeys(vertex_owners)))
    return charts


def in_circle_chart(x: PointH, i: int) -> bool:
    """Membership in the open middle arc of the i-th circle."""
    return not x.is_origin and x.circle == i and 0.25 < x.t < 0.75


def in_wedge_chart(x: PointH, n: int) -> bool:
    """Membership in the union of both end-arcs of circles 1..n together
    with all circles above n (the range of a level-n vertex chart)."""
    if x.is_origin:
        return True
    if x.circle > n:
        return True
    return x.t < 0.375 or x.t > 0.625


def chart_range_contains(c: ChartId, x: PointH) -> bool:
    if c.edge is not None:
        return in_circle_chart(x, c.edge.label)
    return in_wedge_chart(x, c.level)


def local_inverse(c: ChartId, x: PointH) -> PointHat:
    """The unique preimage of x inside chart c; raises if x lies outside
    the chart's range."""
    if not chart_range_contains(c, x):
        raise ValueError("point lies outside the range of the chart")
    if c.edge is not None:
        return PointHat.on_edge(c.edge, x.t)
    v = c.owner
    if x.is_origin:
        return PointHat.at_vertex(v)
    i, t = x.circle, x.t
    if i > c.level or t < 0.375:
        return PointHat.on_edge(edge_at(v, i), t)
    return PointHat.on_edge(edge_into(v, i), t)


# --- atlas self-check ------------------------------------------------------

class AtlasReport(NamedTuple):
    samples: int
    round_trips: int
    overlaps: int
    failures: tuple

    @property
    def ok(self) -> bool:
        return not self.failures


def _random_vertex(rng: random.Random) -> Vertex:
    v = base_vertex()
    if rng.random() < 0.3:
        # start near an island to exercise high-label charts
        v = Vertex.make(anchor(rng.randrange(1, 30)))
    for _ in range(rng.randrange(25)):
        labels = sorted(v.e_set)
        i = rng.choice(labels)
        v = v.step(i if rng.random() < 0.5 else -i)[1]
    return v


def _random_point(rng: random.Random) -> PointHat:
    v = _random_vertex(rng)
    roll = rng.random()
    if roll < 0.2:
        return PointHat.at_vertex(v)
    n = vertex_chart_level(v)
    label = rng.choice(sorted(v.e_set) + [n + 1, n + 2, n + 5])
    e = edge_at(v, label)
    # bias t toward chart boundaries
    boundary = (0.25, 0.375, 0.5, 0.625, 0.75)
    if rng.random() < 0.5:
        t = min(0.999, max(0.001, rng.choice(boundary) + rng.uniform(-0.05, 0.05)))
    else:
        t = rng.uniform(0.001, 0.999)
    return PointHat.on_edge(e, t)


def atlas_check(samples: int, seed: int = 0) -> AtlasReport:
    """Sample points p upstairs and check, with x = q(p): at least one chart
    contains p, at most one edge chart and at most one vertex chart do, the
    range of each of them contains x, and the local inverse through each of
    them returns p exactly, local_inverse(c, x) == p."""
    if samples < 0:
        raise ValueError("the sample count must be >= 0")
    rng = random.Random(seed)
    failures = []
    round_trips = 0
    overlaps = 0
    for k in range(samples):
        p = _random_point(rng)
        charts = charts_containing(p)
        if not charts:
            failures.append(("cover", k))
            continue
        if sum(1 for c in charts if c.tag == "edge") > 1:
            failures.append(("edge-disjoint", k))
        if sum(1 for c in charts if c.tag == "vertex") > 1:
            failures.append(("vertex-disjoint", k))
        x = q_point(p)
        inverted = 0
        for c in charts:
            if not chart_range_contains(c, x):
                failures.append(("range", k))
                continue
            inverted += 1
            if local_inverse(c, x) != p:
                failures.append(("round-trip", k))
        round_trips += inverted
        if inverted > 1:
            overlaps += 1
    return AtlasReport(samples, round_trips, overlaps, tuple(failures))
