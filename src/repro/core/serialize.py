"""Byte codecs for label objects (storage / shipping format).

Labels are the unit the scheme ships around — a distributed deployment stores
vertex labels at the vertices and hands the decoder only labels — so they need
a byte encoding.  The format is deliberately simple and self-describing:

* a 6-byte header: magic ``b"FTCL"``, one format-version byte, one kind byte
  (:data:`KIND_VERTEX` or :data:`KIND_EDGE`);
* unsigned LEB128 varints for all integers (ancestry pre/post values are
  small, outdetect field elements can be hundreds of bits — varints handle
  both without fixed-width waste);
* outdetect subtree sums are arbitrarily nested tuples of integers (flat for a
  single k-threshold or sketch level, one tuple per level for layered
  schemes), encoded as a tagged tree: ``0x00`` + varint for an int node,
  ``0x01`` + varint length + children for a tuple node.

The codecs round-trip exactly: ``from_bytes(to_bytes(label)) == label`` for
every label any scheme variant produces, which the property tests assert.

:func:`encode_label_trees` writes many trees at once: their int leaves are
LEB128-encoded in one vectorized numpy pass, byte-identical to
:func:`write_label_tree`, which stays the reference and the fallback.
"""

from __future__ import annotations

from array import array
from typing import Any, Sequence

#: File magic of every serialized label.
MAGIC = b"FTCL"

#: Current format version (bump when the layout changes).
FORMAT_VERSION = 1

#: Kind byte of a serialized :class:`~repro.core.labels.VertexLabel`.
KIND_VERTEX = 0x01

#: Kind byte of a serialized :class:`~repro.core.labels.EdgeLabel`.
KIND_EDGE = 0x02

_TAG_INT = 0x00
_TAG_TUPLE = 0x01

#: Upper bound on the encoded length of a single varint.  Legitimate label
#: integers (ancestry values, outdetect field elements, sketch cells) are at
#: most a few hundred bits — far below this cap — but a corrupt or adversarial
#: run of continuation bytes must not build an unboundedly large integer
#: before the decoder notices the problem.
MAX_VARINT_BYTES = 1 << 16

#: Upper bound on label-tree nesting.  Real labels nest at most a few levels
#: (a layered scheme is one tuple of per-level tuples of ints); the cap turns
#: adversarial deep nesting into a :class:`LabelDecodeError` instead of a
#: ``RecursionError``.
MAX_TREE_DEPTH = 64


class LabelDecodeError(ValueError):
    """Raised when a byte string is not a valid serialized label."""


# ------------------------------------------------------------------- varints

def write_varint(value: int, out: bytearray) -> None:
    """Append the unsigned LEB128 encoding of ``value`` (>= 0) to ``out``."""
    if value < 0:
        raise ValueError("varints encode non-negative integers, got %d" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, offset: int) -> tuple[int, int]:
    """Read one varint at ``offset``; returns ``(value, next_offset)``.

    The continuation run is capped both by the remaining buffer and by
    :data:`MAX_VARINT_BYTES`, so corrupt input fails closed with
    :class:`LabelDecodeError` instead of accumulating a giant integer.
    """
    value = 0
    shift = 0
    end = len(data)
    limit = min(end, offset + MAX_VARINT_BYTES)
    while True:
        if offset >= end:
            raise LabelDecodeError("truncated varint")
        if offset >= limit:
            raise LabelDecodeError("varint runs past %d bytes without terminating"
                                   % MAX_VARINT_BYTES)
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7


# ------------------------------------------------------------ label trees

def write_label_tree(node: Any, out: bytearray) -> None:
    """Append the tagged-tree encoding of an int-or-tuple structure."""
    if isinstance(node, int):
        out.append(_TAG_INT)
        write_varint(node, out)
    elif isinstance(node, tuple):
        out.append(_TAG_TUPLE)
        write_varint(len(node), out)
        for child in node:
            write_label_tree(child, out)
    else:
        raise TypeError("label trees contain only ints and tuples, got %r"
                        % type(node).__name__)


def encode_int_nodes(values) -> tuple[bytes, Any]:
    """The int-node encodings (tag ``0x00`` + LEB128) of a ``uint64`` array.

    Returns ``(data, offsets)``: the encodings concatenated, each byte for
    byte what :func:`write_label_tree` writes for that value, and the
    ``len(values) + 1`` byte offsets at which each one starts (the last is
    ``len(data)``).  The work is a few array passes per 7-bit group of the
    widest value, instead of one Python call per value.
    """
    import numpy as np

    groups = np.ones(len(values), dtype=np.uint8)
    shift = 7
    while shift < 64:
        above = values >= np.uint64(1 << shift)
        if not above.any():
            break
        groups += above
        shift += 7
    widest = shift // 7
    # Row i holds value i's encoding, left-aligned: the tag, then its 7-bit
    # groups low to high, each with the continuation bit set when another
    # group follows.  ``used`` marks the row's first groups[i] + 1 bytes.
    matrix = np.zeros((len(values), widest + 1), dtype=np.uint8)
    used = np.ones((len(values), widest + 1), dtype=bool)
    for group in range(widest):
        more = groups > group + 1
        column = (values >> np.uint64(7 * group)).astype(np.uint8) & np.uint8(0x7F)
        column |= more * np.uint8(0x80)
        matrix[:, group + 1] = column
        if group + 2 <= widest:
            used[:, group + 2] = more
    offsets = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(groups.astype(np.int64) + 1, out=offsets[1:])
    return matrix[used].tobytes(), offsets


def encode_label_trees(trees: Sequence[Any]) -> list[bytes] | None:
    """The :func:`write_label_tree` encodings of many trees, byte for byte.

    Tuple headers are written per node, while every int leaf of every tree
    is gathered into one ``uint64`` array and encoded by
    :func:`encode_int_nodes`; each tree then takes its byte slices back.
    Returns ``None`` when numpy is not importable, or when a tree holds
    anything but tuples and ints in ``[0, 2**64)``: the caller then runs
    the scalar reference, which also raises its errors.  Leaves are read
    as C ``unsigned long long``, so an integer-like leaf that is not an
    ``int`` (a numpy integer, say) is written by value where
    :func:`write_label_tree` raises ``TypeError``; no scheme makes one.
    """
    try:
        import numpy as np
    except ImportError:
        return None
    plans = []
    leaves = array("Q")
    runs = [0]
    for tree in trees:
        plan: list = []
        if not _plan_label_tree(tree, plan, leaves, runs):
            return None
        plans.append(plan)
    data, offsets = encode_int_nodes(np.frombuffer(leaves, dtype=np.uint64))
    bounds = offsets[np.cumsum(runs)].tolist()
    encoded = []
    run = 0
    for plan in plans:
        parts = []
        for part in plan:
            if part is None:
                parts.append(data[bounds[run]:bounds[run + 1]])
                run += 1
            else:
                parts.append(part)
        encoded.append(b"".join(parts))
    return encoded


def _plan_label_tree(node: Any, plan: list, leaves: array, runs: list) -> bool:
    """Lay out ``node`` for :func:`encode_label_trees`.

    Appends to ``plan`` the header bytes of each tuple node and ``None``
    for each run of int leaves; the run's values go to ``leaves`` and its
    length to ``runs``.  Returns False on a node the bulk path does not
    take.
    """
    if type(node) is int:
        node = (node,)
    elif type(node) is tuple:
        header = bytearray((_TAG_TUPLE,))
        write_varint(len(node), header)
        plan.append(bytes(header))
    else:
        return False
    try:
        run = array("Q", node)
    except OverflowError:  # a leaf below 0, or of 2**64 or more
        return False
    except TypeError:  # a tuple holding more than ints: lay out each child
        return all(_plan_label_tree(child, plan, leaves, runs) for child in node)
    leaves.extend(run)
    runs.append(len(run))
    plan.append(None)
    return True


def read_label_tree(data: bytes, offset: int, _depth: int = 0) -> tuple[Any, int]:
    """Read one tagged tree at ``offset``; returns ``(node, next_offset)``."""
    if _depth > MAX_TREE_DEPTH:
        raise LabelDecodeError("label tree nested deeper than %d levels" % MAX_TREE_DEPTH)
    if offset >= len(data):
        raise LabelDecodeError("truncated label tree")
    tag = data[offset]
    offset += 1
    if tag == _TAG_INT:
        return read_varint(data, offset)
    if tag == _TAG_TUPLE:
        length, offset = read_varint(data, offset)
        # Every child occupies at least two bytes (a tag plus one varint
        # byte), so a declared length beyond the remaining buffer is corrupt;
        # reject it before looping.
        remaining = len(data) - offset
        if 2 * length > remaining:
            raise LabelDecodeError("tuple declares %d children but only %d bytes remain"
                                   % (length, remaining))
        children = []
        for _ in range(length):
            child, offset = read_label_tree(data, offset, _depth + 1)
            children.append(child)
        return tuple(children), offset
    raise LabelDecodeError("unknown label-tree tag 0x%02x" % tag)


# --------------------------------------------------------------- envelopes

def write_header(kind: int) -> bytearray:
    """The versioned header every serialized label starts with."""
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    out.append(kind)
    return out


def read_header(data: bytes, expected_kind: int) -> int:
    """Validate the header; returns the offset of the payload."""
    if len(data) < len(MAGIC) + 2:
        raise LabelDecodeError("byte string too short to hold a label header")
    if data[:len(MAGIC)] != MAGIC:
        raise LabelDecodeError("bad magic %r (expected %r)"
                               % (bytes(data[:len(MAGIC)]), MAGIC))
    version = data[len(MAGIC)]
    if version != FORMAT_VERSION:
        raise LabelDecodeError("unsupported label format version %d (this build "
                               "reads version %d)" % (version, FORMAT_VERSION))
    kind = data[len(MAGIC) + 1]
    if kind != expected_kind:
        raise LabelDecodeError("label kind 0x%02x does not match expected 0x%02x"
                               % (kind, expected_kind))
    return len(MAGIC) + 2


def check_consumed(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise LabelDecodeError("%d trailing bytes after the label payload"
                               % (len(data) - offset))
