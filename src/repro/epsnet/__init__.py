"""Deterministic epsilon-net constructions (Section 4.3, Lemmas 10-12).

The deterministic sparsification of the paper needs, at every level of the
hierarchy, a constant-fraction subset of the current edge set that hits every
"large" cut set.  Through the Euler-tour embedding (Lemma 3) cut sets become
symmetric differences of axis-aligned half-planes, which decompose into
axis-aligned rectangles — so the whole problem reduces to deterministic
epsilon-nets for points and axis-aligned rectangles.

* :mod:`repro.epsnet.rectangles` — points, rectangles, membership and counting.
* :mod:`repro.epsnet.netfind` — the near-linear divide-and-conquer net of
  Lemma 12, built on the slab construction of Lemma 11.
* :mod:`repro.epsnet.greedy_net` — a deterministic greedy hitting-set baseline
  over a canonical family of grid rectangles (used in the hierarchy ablation
  and standing in for the high-exponent MDG18 construction; its module
  docstring says why).
* :mod:`repro.epsnet.shapes` — the H_{2f} symmetric-difference shapes and the
  reduction from shapes to rectangles.
"""

from repro.epsnet.rectangles import Rectangle, points_in_rectangle
from repro.epsnet.netfind import net_find, slab_net
from repro.epsnet.greedy_net import greedy_rectangle_net
from repro.epsnet.shapes import SymmetricDifferenceShape, shape_from_cut_positions

__all__ = [
    "Rectangle",
    "points_in_rectangle",
    "net_find",
    "slab_net",
    "greedy_rectangle_net",
    "SymmetricDifferenceShape",
    "shape_from_cut_positions",
]
