"""A walk through the vertex oracles of the pruned graph.

Vertices are reduced words over a_1, a_2, a_3, ... (positive and negative
integers); the empty word `e` is the base point.  Nothing is ever stored:
every question below is answered from the word alone.
"""

from earring import (
    anchor,
    e_set,
    island_data,
    island_of,
    reduce_word,
    removal_cross_check,
    survives,
    zigzag_prefix,
)
from earring.words import format_word

# The base point has exactly two tree labels: the graph branches off along
# a_1 and a_2 only, everything else will loop.
print("e_set(e) =", sorted(e_set(())))

# A bare high-index letter leaves the pruned tree immediately.
print("survives(a_3) =", survives((3,)))

# The infinite zig-zag ray a_1 a_2 a_1 a_2 ... survives at every length.
for n in (4, 40, 400):
    print(f"survives(ray prefix {n}) =", survives(zigzag_prefix(n)))

# Every enumerated word w_j owns an "island" grafted onto the ray at its
# anchor.  The ninth word is a_3; its island sits at anchor length 52 and
# has level 3, so a_3 becomes a tree label there.
d = island_data(9)
print("w_9 =", format_word(d.word), "| anchor length", d.anchor_len, "| level", d.level)
print("e_set(anchor(9)) =", sorted(e_set(anchor(9))))

v = reduce_word(anchor(9) + (3, 3))
print("island_of(anchor(9)·a_3·a_3) =", island_of(v), "| e_set =", sorted(e_set(v)))

# One step off the island with a too-high label and the vertex is gone.
print("survives(anchor(9)·a_3·a_4) =", survives(reduce_word(anchor(9) + (3, 4))))

# The closed-form removal pattern and the prose rule ("cut everything
# reached through a non-a_1/a_2 gateway") agree on a neighborhood scan.
report = removal_cross_check(9, 2)
print(f"crosscheck island 9: {report.examined} vertices, "
      f"{report.removed} removed, {len(report.disagreements)} disagreements")
