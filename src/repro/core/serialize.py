"""Byte codecs for label objects (storage / shipping format).

Labels are the unit the scheme ships around — a distributed deployment stores
vertex labels at the vertices and hands the decoder only labels — so they need
a byte encoding.  The format is deliberately simple and self-describing:

* a 6-byte header: magic ``b"FTCL"``, one format-version byte, one kind byte
  (:data:`KIND_VERTEX` or :data:`KIND_EDGE`);
* unsigned LEB128 varints for the label's integer fields (ancestry pre/post
  values, the outdetect bit count);
* outdetect subtree sums are nested tuples of packed words (one word for a
  single k-threshold or sketch level, one tuple of per-level words for
  layered schemes), encoded as a tagged tree: ``0x01`` + varint length +
  children for a tuple node, and ``0x02`` + varint byte count + the word's
  shortest little-endian bytes for an int node, read back by one
  ``int.from_bytes``.

Version 1 payloads, which nothing writes any more, store an int node as
``0x00`` + one varint and each outdetect level as the tuple of its field
elements; they stay readable (:func:`read_label_tree` with ``version=1``),
and :meth:`~repro.outdetect.base.OutdetectScheme.read_label` packs their
levels.

The codecs round-trip exactly: ``from_bytes(to_bytes(label)) == label`` for
every label any scheme variant produces, which the property tests assert.
"""

from __future__ import annotations

from typing import Any

#: File magic of every serialized label.
MAGIC = b"FTCL"

#: Current format version (bump when the layout changes).
FORMAT_VERSION = 2

#: Every version this build reads.
READABLE_VERSIONS = (1, 2)

#: Kind byte of a serialized :class:`~repro.core.labels.VertexLabel`.
KIND_VERTEX = 0x01

#: Kind byte of a serialized :class:`~repro.core.labels.EdgeLabel`.
KIND_EDGE = 0x02

_TAG_VARINT = 0x00
_TAG_TUPLE = 0x01
_TAG_WORD = 0x02

#: Upper bound on the encoded length of a single varint.  Legitimate label
#: varints (ancestry values, bit counts, the field elements and sketch cells
#: of version-1 payloads) are at most a few hundred bits — far below this
#: cap — but a corrupt or adversarial run of continuation bytes must not
#: build an unboundedly large integer before the decoder notices the problem.
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
    """Append the version-2 tagged-tree encoding of an int-or-tuple structure."""
    if isinstance(node, int):
        length = (node.bit_length() + 7) // 8
        out.append(_TAG_WORD)
        write_varint(length, out)
        out += node.to_bytes(length, "little")
    elif isinstance(node, tuple):
        out.append(_TAG_TUPLE)
        write_varint(len(node), out)
        for child in node:
            write_label_tree(child, out)
    else:
        raise TypeError("label trees contain only ints and tuples, got %r"
                        % type(node).__name__)


def read_label_tree(data: bytes, offset: int, version: int = FORMAT_VERSION,
                    _depth: int = 0) -> tuple[Any, int]:
    """Read one tagged tree at ``offset``; returns ``(node, next_offset)``.

    An int node is a word in version 2 and a varint in version 1; a node of
    the other version's int tag is corrupt.
    """
    if _depth > MAX_TREE_DEPTH:
        raise LabelDecodeError("label tree nested deeper than %d levels" % MAX_TREE_DEPTH)
    if offset >= len(data):
        raise LabelDecodeError("truncated label tree")
    tag = data[offset]
    offset += 1
    if tag == _TAG_VARINT and version == 1:
        return read_varint(data, offset)
    if tag == _TAG_WORD and version == 2:
        length, offset = read_varint(data, offset)
        if length > len(data) - offset:
            raise LabelDecodeError("word of %d bytes runs past the label" % length)
        return int.from_bytes(data[offset:offset + length], "little"), offset + length
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
            child, offset = read_label_tree(data, offset, version, _depth + 1)
            children.append(child)
        return tuple(children), offset
    raise LabelDecodeError("unknown version-%d label-tree tag 0x%02x" % (version, tag))


# --------------------------------------------------------------- envelopes

def write_header(kind: int) -> bytearray:
    """The versioned header every serialized label starts with."""
    out = bytearray(MAGIC)
    out.append(FORMAT_VERSION)
    out.append(kind)
    return out


def read_header(data: bytes, expected_kind: int) -> tuple[int, int]:
    """Validate the header; returns the format version and the offset of the
    payload."""
    if len(data) < len(MAGIC) + 2:
        raise LabelDecodeError("byte string too short to hold a label header")
    if data[:len(MAGIC)] != MAGIC:
        raise LabelDecodeError("bad magic %r (expected %r)"
                               % (bytes(data[:len(MAGIC)]), MAGIC))
    version = data[len(MAGIC)]
    if version not in READABLE_VERSIONS:
        raise LabelDecodeError("unsupported label format version %d (this build "
                               "reads versions %s)"
                               % (version, ", ".join(map(str, READABLE_VERSIONS))))
    kind = data[len(MAGIC) + 1]
    if kind != expected_kind:
        raise LabelDecodeError("label kind 0x%02x does not match expected 0x%02x"
                               % (kind, expected_kind))
    return version, len(MAGIC) + 2


def check_consumed(data: bytes, offset: int) -> None:
    if offset != len(data):
        raise LabelDecodeError("%d trailing bytes after the label payload"
                               % (len(data) - offset))
