"""The chart atlas and the local homeomorphism structure.

Downstairs a point is (circle index, parameter t); upstairs it is a
vertex or an interior point of a labeled edge.  Each edge owns a chart
over the middle arc of its circle; each vertex owns a chart over both
end-arcs of the low circles plus all high circles in full.
"""

from earring import (
    PointH,
    PointHat,
    atlas_check,
    base_vertex,
    charts_containing,
    edge_at,
    l_point,
    local_inverse,
    planar,
    q_point,
    vertex_chart,
)

# The circle parametrizations: circle i has diameter 2/i, tangent to the
# x-axis at the origin.
print("l_1(0)    =", l_point(1, 0.0))
print("l_1(1/2)  =", l_point(1, 0.5))
print("l_2(1/4)  =", l_point(2, 0.25))

# Project a point on the loop a_3 at the base vertex.
e = edge_at(base_vertex(), 3)
p = PointHat.on_edge(e, 0.5)
x = q_point(p)
print("q(loop a_3 at t=0.5) = circle", x.circle, "t", x.t, "planar", planar(x))

# Which charts contain it?  The edge's own chart (middle arc), and the
# base vertex's chart, which swallows high-label loops whole.
for c in charts_containing(p):
    print("chart:", c.tag, "level" if c.tag == "vertex" else "label",
          c.level if c.tag == "vertex" else c.edge.label)

# The local inverse through the vertex chart recovers the same point
# exactly: the projection is a homeomorphism on each chart.
back = local_inverse(vertex_chart(base_vertex()), x)
print("round trip through U_v is exact:", back == p)

# A point near the far end of the tree edge a_1 out of the base belongs
# to the terminal vertex's chart.
e1 = edge_at(base_vertex(), 1)
near_end = PointHat.on_edge(e1, 0.7)
owners = [c.owner.word for c in charts_containing(near_end) if c.tag == "vertex"]
print("vertex chart owners near t=0.7 on edge a_1:", owners)

# Outside every chart range the inverse refuses.
try:
    local_inverse(vertex_chart(base_vertex()), PointH.on_circle(1, 0.5))
except ValueError as exc:
    print("expected refusal:", exc)

# Randomized audit: cover, chart disjointness per kind, and the exact
# round trip local_inverse(c, q(p)) == p through every chart containing p.
report = atlas_check(500, seed=1)
print(f"atlas check: {report.samples} samples, {report.round_trips} round trips, "
      f"{report.overlaps} overlaps, {len(report.failures)} failures")
