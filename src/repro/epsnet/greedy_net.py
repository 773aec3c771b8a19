"""A deterministic greedy epsilon-net for axis-aligned rectangles.

This is the second deterministic net construction exposed by the library.  It
plays the role of the Mustafa--Dutta--Ghosh net in Lemma 10/Lemma 4 of the
paper: the paper only needs *some* deterministic polynomial-time net
construction with a better-than-trivial size to instantiate the
"poly(m) construction time" variant of Theorem 1.  The MDG18 algorithm has a
very high-exponent polynomial running time, so we substitute a classic
greedy hitting-set over the canonical rectangle family, which is
deterministic, polynomial, and achieves the standard
``O(log N / epsilon)`` size bound via the greedy set-cover guarantee.  The
hierarchy and labeling machinery built on top is identical, so the
substitution only affects constants in the label size, which the hierarchy
ablation benchmark measures.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.epsnet.rectangles import Rectangle

Point = tuple


def greedy_rectangle_net(points: Sequence[Point], threshold: int) -> list[int]:
    """Greedy hitting set for all canonical rectangles containing >= threshold points.

    Returns indices of the selected points.  Runs in polynomial time
    (O(N^4) canonical rectangles in the worst case, pruned aggressively), so it
    is intended for moderate instance sizes; ``net_find`` is the near-linear
    default.
    """
    if threshold < 1:
        raise ValueError("threshold must be positive, got %d" % threshold)
    total = len(points)
    if total == 0 or total < threshold:
        return []

    heavy = _heavy_canonical_rectangles(points, threshold)
    if not heavy:
        return []

    # Greedy set cover: repeatedly pick the point contained in the largest
    # number of not-yet-hit heavy rectangles.
    selected: list[int] = []
    remaining = list(range(len(heavy)))
    containment = _containment_lists(points, heavy)
    while remaining:
        counts = [0] * total
        for rect_index in remaining:
            for point_index in containment[rect_index]:
                counts[point_index] += 1
        best_point = max(range(total), key=lambda index: (counts[index], -index))
        if counts[best_point] == 0:  # pragma: no cover - defensive, cannot happen
            break
        selected.append(best_point)
        remaining = [rect_index for rect_index in remaining
                     if best_point not in containment[rect_index]]
    return sorted(set(selected))


def greedy_net_size_bound(total_points: int, threshold: int) -> int:
    """The standard greedy guarantee: |net| <= (N/threshold) * (1 + ln N)."""
    if total_points == 0:
        return 0
    return int(math.ceil((total_points / threshold) * (1.0 + math.log(max(total_points, 2)))))


def _heavy_canonical_rectangles(points: Sequence[Point], threshold: int) -> list[Rectangle]:
    """Inclusion-minimal canonical rectangles containing at least ``threshold`` points.

    Minimality keeps the greedy instance small: hitting every minimal heavy
    rectangle hits every heavy rectangle.
    """
    xs = sorted({p[0] for p in points})
    ys = sorted({p[1] for p in points})
    heavy: list[Rectangle] = []
    for i, x_low in enumerate(xs):
        for x_high in xs[i:]:
            column = [p for p in points if x_low <= p[0] <= x_high]
            if len(column) < threshold:
                continue
            column_ys = sorted(p[1] for p in column)
            # Slide a window of exactly `threshold` points in y-order: the
            # minimal heavy rectangles for this x-range.
            for start in range(len(column_ys) - threshold + 1):
                y_low = column_ys[start]
                y_high = column_ys[start + threshold - 1]
                heavy.append(Rectangle(x_low, x_high, y_low, y_high))
    # Deduplicate.
    unique = []
    seen = set()
    for rectangle in heavy:
        key = (rectangle.x_low, rectangle.x_high, rectangle.y_low, rectangle.y_high)
        if key not in seen:
            seen.add(key)
            unique.append(rectangle)
    return unique


def _containment_lists(points: Sequence[Point], rectangles: Sequence[Rectangle]) -> list[set]:
    containment = []
    for rectangle in rectangles:
        containment.append({index for index, point in enumerate(points)
                            if rectangle.contains(point)})
    return containment
