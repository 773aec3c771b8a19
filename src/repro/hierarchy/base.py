"""The hierarchy object shared by the deterministic and randomized builders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Sequence

from repro.graphs.graph import Edge

Vertex = Hashable


@dataclass
class EdgeHierarchy:
    """A decreasing chain of edge sets with per-level decoding thresholds.

    Attributes
    ----------
    levels:
        ``levels[i]`` is the edge set ``E_i``; ``levels[0]`` is the full
        non-tree edge set and the (implicit) final level is empty.
    thresholds:
        ``thresholds[i]`` is the decoding threshold ``k_i`` the outdetect
        labeling will use for level ``i``.
    """

    levels: list[list[Edge]] = field(default_factory=list)
    thresholds: list[int] = field(default_factory=list)

    def depth(self) -> int:
        """Number of non-empty levels."""
        return len(self.levels)

    def level_sizes(self) -> list[int]:
        return [len(level) for level in self.levels]

    def validate_nesting(self) -> None:
        """Check that the chain is decreasing and thresholds are positive."""
        if len(self.levels) != len(self.thresholds):
            raise ValueError("levels and thresholds have different lengths")
        previous: set | None = None
        for index, level in enumerate(self.levels):
            current = set(level)
            if previous is not None and not current.issubset(previous):
                raise ValueError("level %d is not a subset of level %d" % (index, index - 1))
            if self.thresholds[index] < 1:
                raise ValueError("threshold of level %d is not positive" % index)
            previous = current

    def describe(self) -> dict:
        """Summary statistics reported by the benchmarks."""
        return {
            "depth": self.depth(),
            "level_sizes": self.level_sizes(),
            "thresholds": list(self.thresholds),
            "total_label_elements": sum(2 * k for k in self.thresholds),
        }


def check_strictly_decreasing(sizes: Sequence[int]) -> bool:
    """Whether a sequence of level sizes is strictly decreasing."""
    return all(later < earlier for earlier, later in zip(sizes, sizes[1:]))
