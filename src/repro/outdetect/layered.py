"""The S_{f,T}-outdetect labeling scheme layered over a hierarchy (Lemma 2).

A vertex label is the concatenation of its per-level k-threshold labels: a
tuple of one packed word per level.  To decode, the levels are scanned from
the deepest (sparsest) upwards: the first
level whose syndrome is non-zero is decoded, and by the goodness of the
hierarchy the outgoing edge count at that level is within the level's
threshold, so the decode succeeds and returns genuine outgoing edges.
"""

from __future__ import annotations

from typing import Hashable, Sequence

from repro.outdetect.base import OutdetectDecodeError, OutdetectScheme, raise_deferred

Vertex = Hashable
Label = tuple


class LayeredOutdetect(OutdetectScheme):
    """Concatenation of per-level outdetect schemes over a hierarchy."""

    def __init__(self, level_schemes: Sequence[OutdetectScheme]):
        if not level_schemes:
            raise ValueError("a layered scheme needs at least one level")
        self.level_schemes = list(level_schemes)
        self.deterministic = all(scheme.deterministic for scheme in level_schemes)

    # ------------------------------------------------------------ OutdetectScheme

    def label_of(self, vertex: Vertex) -> Label:
        return tuple(scheme.label_of(vertex) for scheme in self.level_schemes)

    def zero_label(self) -> Label:
        return tuple(scheme.zero_label() for scheme in self.level_schemes)

    def combine(self, first: Label, second: Label) -> Label:
        if len(first) != len(second):
            raise ValueError("layered labels of different depths cannot be combined")
        return tuple(scheme.combine(a, b)
                     for scheme, a, b in zip(self.level_schemes, first, second))

    def decode(self, label: Label) -> list[int]:
        return raise_deferred(self.decode_many([label])[0])

    def decode_many(self, labels) -> list:
        """Batched decode: group labels by deepest non-zero level.

        Every label routes to exactly one level (the deepest with a non-zero
        syndrome), so the batch splits into at most ``depth`` per-level groups
        and each group decodes through that level scheme's ``decode_many`` —
        one pipeline per *touched level* rather than one decode per label.
        Entries are results or deferred :class:`OutdetectDecodeError`
        instances.
        """
        labels = list(labels)
        results: list = [None] * len(labels)
        grouped: dict[int, list[int]] = {}
        for position, label in enumerate(labels):
            deepest_nonzero = None
            for index in range(len(self.level_schemes) - 1, -1, -1):
                if label[index]:
                    deepest_nonzero = index
                    break
            if deepest_nonzero is None:
                results[position] = []
            else:
                grouped.setdefault(deepest_nonzero, []).append(position)
        for index, positions in grouped.items():
            entries = self.level_schemes[index].decode_many(
                [labels[position][index] for position in positions])
            for position, entry in zip(positions, entries):
                if isinstance(entry, OutdetectDecodeError):
                    wrapped = OutdetectDecodeError(
                        "level %d of the layered outdetect failed to decode: %s"
                        % (index, entry))
                    wrapped.__cause__ = entry
                    results[position] = wrapped
                elif not entry:
                    results[position] = OutdetectDecodeError(
                        "level %d has a non-zero syndrome but decoded to the empty set"
                        % index)
                else:
                    results[position] = entry
        return results

    def label_bit_size(self, label: Label) -> int:
        return sum(scheme.label_bit_size(part)
                   for scheme, part in zip(self.level_schemes, label))

    def lanes(self, label: Label) -> list[int]:
        return [value for scheme, part in zip(self.level_schemes, label)
                for value in scheme.lanes(part)]

    def read_label(self, stored) -> Label:
        if not isinstance(stored, tuple) or len(stored) != len(self.level_schemes):
            raise ValueError("a layered label must hold %d levels"
                             % len(self.level_schemes))
        return tuple(scheme.read_label(level)
                     for scheme, level in zip(self.level_schemes, stored))

    def subtree_sums(self, preorder: Sequence[Vertex],
                     last: Sequence[int]) -> list:
        return list(zip(*(scheme.subtree_sums(preorder, last)
                          for scheme in self.level_schemes)))

    # ------------------------------------------------------------------ misc

    def depth(self) -> int:
        """Number of hierarchy levels."""
        return len(self.level_schemes)
