"""Symbolic model of a semicovering of the Hawaiian Earring: a lazily
evaluated infinite graph with decision oracles, combinatorial path
lifting, membership in the core-free open subgroup of loops lifting to
loops, and a numeric chart atlas certifying the local structure.

`import earring` loads the layers that `survives` needs: `words`,
`caching` and `graph`.  The definitional checks (`checks`), the lifting
layer (`lifting`), the core-freeness certificates (`corefree`) and the
chart atlas (`charts`) are loaded on first access to the module or to one
of its names (PEP 562), so
`earring.q_point` is `earring.charts.q_point` and `from earring import *`
binds every name in `__all__`.
"""

from importlib import import_module as _import_module

from .words import (
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
    island_data,
    island_of,
    neighbor,
    ray_vertex,
    survives,
)

# name -> the module that defines it, for the names loaded on first access;
# a module's own name maps to itself
_LAZY = {
    **dict.fromkeys(("checks", "in_line", "removal_cross_check"), "checks"),
    **dict.fromkeys(("lifting", "LiftTrace", "RayPrefix", "endpoint", "in_k",
                     "lift_ray_inverse", "lift_word"), "lifting"),
    **dict.fromkeys(("corefree", "ConjugationCertificate", "core_free_scan",
                     "midpoint_structure_check", "witness_conjugator"), "corefree"),
    **dict.fromkeys(("charts", "Edge", "PointH", "PointHat", "atlas_check",
                     "charts_containing", "edge_at", "edge_into", "l_point", "local_inverse",
                     "planar", "q_point", "vertex_chart", "edge_chart"), "charts"),
}


def __getattr__(name: str):
    # import_module, not `from . import`: the latter looks the module up on
    # this package first, which would call __getattr__ again
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [name for name in dir() if not name.startswith("_")] + list(_LAZY)
__version__ = "0.1.0"
