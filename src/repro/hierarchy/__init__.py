"""Sparsification hierarchies ((S_{f,T}, k)-good hierarchies, Definition 1).

A hierarchy is a decreasing chain of non-tree edge sets
``E_0 ⊇ E_1 ⊇ ... ⊇ E_h = ∅`` such that every vertex set S with at most ``f``
faulty tree edges and a non-empty outgoing edge set admits a level where its
outgoing edge count is positive but at most the level's threshold ``k`` — the
regime in which the k-threshold outdetect labels can decode.

* :mod:`repro.hierarchy.config` — threshold rules (PAPER / PRACTICAL) and the
  hierarchy configuration object.
* :mod:`repro.hierarchy.deterministic` — the epsilon-net based deterministic
  construction of Lemma 5 (NetFind by default, greedy net optionally).
* :mod:`repro.hierarchy.randomized` — the sub-sampling construction of
  Proposition 5 (the Dory--Parter style randomized baseline).
* :mod:`repro.hierarchy.validation` — exhaustive / sampled validation of the
  goodness property, used by tests and the ablation benchmark.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.hierarchy.config import HierarchyConfig, ThresholdRule
    from repro.hierarchy.deterministic import build_deterministic_hierarchy
    from repro.hierarchy.randomized import build_randomized_hierarchy
    from repro.hierarchy.base import EdgeHierarchy

__all__ = [
    "HierarchyConfig",
    "ThresholdRule",
    "EdgeHierarchy",
    "build_deterministic_hierarchy",
    "build_randomized_hierarchy",
]

__getattr__ = lazy_exports(__name__)
