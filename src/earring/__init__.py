"""Symbolic model of a semicovering of the Hawaiian Earring: a lazily
evaluated infinite graph with decision oracles, combinatorial path
lifting, membership in the core-free open subgroup of loops lifting to
loops, and a numeric chart atlas certifying the local structure."""

from .words import (
    RayPrefix,
    Word,
    anchor,
    anchor_length,
    concat,
    format_word,
    index_of,
    invert,
    nth_word,
    parse_word,
    reduce_word,
    weight,
    zigzag_prefix,
)
from .graph import (
    IslandData,
    Vertex,
    base_vertex,
    e_set,
    in_line,
    island_data,
    island_of,
    neighbor,
    ray_vertex,
    removal_cross_check,
    survives,
)
from .lifting import LiftTrace, endpoint, in_k, lift_ray_inverse, lift_word
from .corefree import (
    ConjugationCertificate,
    core_free_scan,
    midpoint_structure_check,
    witness_conjugator,
)
from .charts import (
    Edge,
    PointH,
    PointHat,
    atlas_check,
    charts_containing,
    edge_at,
    edge_into,
    l_point,
    local_inverse,
    planar,
    q_point,
    vertex_chart,
    edge_chart,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
