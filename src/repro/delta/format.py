"""The ``FTCS-D`` delta artifact: a byte-level patch between two snapshots.

Layout (all integers are the varint/svarint codecs of
:mod:`repro.core.snapshot`; digests are raw SHA-256)::

    magic      b"FTCD"
    version    0x01
    target_fv  1 byte   -- the FTCS container version the target serializes as
    base       32 bytes -- SHA-256 of the exact base snapshot bytes
    target     32 bytes -- SHA-256 of the exact target snapshot bytes
    header     varint length + the target's header-field bytes
               (config / codec / outdetect, the shared v1/v2 encoding)
    vertex section
    edge section

Each section encodes three deterministic groups, keys in the library's
canonical sort order (:func:`repro.graphs.graph._vertex_key`):

    changed    varint count; per entry: key(s), op byte, payload
    added      varint count; per entry: key(s), varint blob length, blob
    removed    varint count; per entry: key(s)

A vertex entry carries one tagged key; an edge entry carries the canonical
edge's two keys.  Changed-entry ops:

* ``0x01`` (XOR spans, equal-length blobs): varint span count, then per span
  a varint gap from the end of the previous span, a varint length, and that
  many raw XOR bytes.  Labels are XOR-linear, so a local graph change leaves
  most label bytes untouched and the spans stay tiny.
* ``0x02`` (replace): varint length + the new blob, used when the blob length
  changed or when the XOR encoding would be larger.

Every failure mode — malformed delta, wrong base, any divergence between the
reconstruction and the recorded target digest — raises
:class:`~repro.errors.DeltaError` and nothing is written: the artifact is
fail-closed end to end.  :func:`diff_snapshots` additionally self-verifies
(applies its own output in memory) before returning, so a delta that exists
is a delta that works.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

from repro.core.serialize import LabelDecodeError, read_varint, write_varint
from repro.core.snapshot import (SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2,
                                 FTCSnapshot, _label_blob, _read_exact,
                                 read_vertex_key, write_file_atomically,
                                 write_vertex_key)
from repro.errors import DeltaError
from repro.graphs.graph import _vertex_key, canonical_edge

#: Magic prefix of every FTCS-D artifact.
DELTA_MAGIC = b"FTCD"

#: Format version of the delta container itself.
DELTA_VERSION = 1

#: Changed-entry op: XOR spans over an equal-length blob.
_OP_XOR = 0x01

#: Changed-entry op: full replacement blob.
_OP_REPLACE = 0x02

_DIGEST_BYTES = 32


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _xor_spans(old: bytes, new: bytes) -> list[tuple[int, bytes]]:
    """Maximal differing runs of two equal-length blobs as ``(start, xor)``."""
    spans: list[tuple[int, bytes]] = []
    start: int | None = None
    for index, (a, b) in enumerate(zip(old, new)):
        if a != b:
            if start is None:
                start = index
        elif start is not None:
            spans.append((start, bytes(x ^ y for x, y in
                                       zip(old[start:index], new[start:index]))))
            start = None
    if start is not None:
        spans.append((start, bytes(x ^ y for x, y in
                                   zip(old[start:], new[start:]))))
    return spans


def _encode_xor_payload(old: bytes, new: bytes) -> bytes:
    out = bytearray()
    spans = _xor_spans(old, new)
    write_varint(len(spans), out)
    cursor = 0
    for start, patch in spans:
        write_varint(start - cursor, out)
        write_varint(len(patch), out)
        out += patch
        cursor = start + len(patch)
    return bytes(out)


def _apply_xor_payload(old: bytes, data: bytes, offset: int,
                       what: str) -> tuple[bytes, int]:
    patched = bytearray(old)
    span_count, offset = read_varint(data, offset)
    cursor = 0
    for _ in range(span_count):
        gap, offset = read_varint(data, offset)
        length, offset = read_varint(data, offset)
        start = cursor + gap
        if start + length > len(patched):
            raise DeltaError("%s XOR span at %d + %d bytes runs past the "
                             "%d-byte base blob" % (what, start, length,
                                                    len(patched)))
        patch, offset = _read_exact(data, offset, length, what + " XOR span")
        for index in range(length):
            patched[start + index] ^= patch[index]
        cursor = start + length
    return bytes(patched), offset


def _encode_changed(old: bytes, new: bytes, out: bytearray) -> None:
    """Append the op byte + payload for one changed blob (smaller encoding wins)."""
    replace = bytearray()
    write_varint(len(new), replace)
    replace += new
    if len(old) == len(new):
        xor_payload = _encode_xor_payload(old, new)
        if len(xor_payload) < len(replace):
            out.append(_OP_XOR)
            out += xor_payload
            return
    out.append(_OP_REPLACE)
    out += replace


def _sorted_vertices(labels: dict) -> list:
    return sorted(labels, key=_vertex_key)


def _sorted_edges(labels: dict) -> list:
    return sorted(labels, key=lambda e: (_vertex_key(e[0]), _vertex_key(e[1])))


def _write_keys(entry: Any, out: bytearray, edge: bool) -> None:
    if edge:
        write_vertex_key(entry[0], out)
        write_vertex_key(entry[1], out)
    else:
        write_vertex_key(entry, out)


def _read_keys(data: bytes, offset: int, edge: bool) -> tuple[Any, int]:
    if edge:
        u, offset = read_vertex_key(data, offset)
        v, offset = read_vertex_key(data, offset)
        try:
            return canonical_edge(u, v), offset
        except ValueError as error:
            raise DeltaError("invalid delta edge: %s" % error) from error
    return read_vertex_key(data, offset)


def _encode_section(base: dict, target: dict, out: bytearray,
                    edge: bool) -> None:
    order = _sorted_edges(target) if edge else _sorted_vertices(target)
    base_order = _sorted_edges(base) if edge else _sorted_vertices(base)
    changed = [key for key in order
               if key in base and _label_blob(base[key]) != _label_blob(target[key])]
    added = [key for key in order if key not in base]
    removed = [key for key in base_order if key not in target]

    write_varint(len(changed), out)
    for key in changed:
        _write_keys(key, out, edge)
        _encode_changed(_label_blob(base[key]), _label_blob(target[key]), out)
    write_varint(len(added), out)
    for key in added:
        _write_keys(key, out, edge)
        blob = _label_blob(target[key])
        write_varint(len(blob), out)
        out += blob
    write_varint(len(removed), out)
    for key in removed:
        _write_keys(key, out, edge)


def _apply_section(base: dict, data: bytes, offset: int, edge: bool,
                   what: str) -> tuple[dict, int]:
    patched = {key: _label_blob(value) for key, value in base.items()}
    changed_count, offset = read_varint(data, offset)
    for _ in range(changed_count):
        key, offset = _read_keys(data, offset, edge)
        if key not in patched:
            raise DeltaError("delta changes %s %r, which the base snapshot "
                             "does not contain" % (what, key))
        if offset >= len(data):
            raise DeltaError("truncated delta (missing %s op byte)" % what)
        op = data[offset]
        offset += 1
        if op == _OP_XOR:
            patched[key], offset = _apply_xor_payload(
                patched[key], data, offset, what)
        elif op == _OP_REPLACE:
            length, offset = read_varint(data, offset)
            blob, offset = _read_exact(data, offset, length, what + " blob")
            patched[key] = bytes(blob)
        else:
            raise DeltaError("unknown delta op byte 0x%02x for %s" % (op, what))
    added_count, offset = read_varint(data, offset)
    for _ in range(added_count):
        key, offset = _read_keys(data, offset, edge)
        if key in patched:
            raise DeltaError("delta adds %s %r, which the base snapshot "
                             "already contains" % (what, key))
        length, offset = read_varint(data, offset)
        blob, offset = _read_exact(data, offset, length, what + " blob")
        patched[key] = bytes(blob)
    removed_count, offset = read_varint(data, offset)
    for _ in range(removed_count):
        key, offset = _read_keys(data, offset, edge)
        if key not in patched:
            raise DeltaError("delta removes %s %r, which the base snapshot "
                             "does not contain" % (what, key))
        del patched[key]
    return patched, offset


# ------------------------------------------------------------------ diffing

def diff_snapshots(base: bytes, target: bytes) -> bytes:
    """The FTCS-D patch turning ``base`` into ``target`` (both FTCS bytes).

    The patch is verified before it is returned: applying it to ``base`` in
    memory must reproduce ``target`` byte-for-byte, or :class:`DeltaError` is
    raised and nothing escapes.  Raises
    :class:`~repro.core.serialize.LabelDecodeError` when either input is not
    a loadable snapshot.
    """
    base_snapshot = FTCSnapshot.from_bytes(base, decode_labels=False)
    target_snapshot = FTCSnapshot.from_bytes(target, decode_labels=False)

    out = bytearray(DELTA_MAGIC)
    out.append(DELTA_VERSION)
    out.append(target_snapshot.format_version)
    out += _sha256(bytes(base))
    out += _sha256(bytes(target))

    header = bytearray()
    target_snapshot._write_header_fields(header)
    write_varint(len(header), out)
    out += header

    _encode_section(base_snapshot.vertex_labels, target_snapshot.vertex_labels,
                    out, edge=False)
    _encode_section(base_snapshot.edge_labels, target_snapshot.edge_labels,
                    out, edge=True)
    delta = bytes(out)

    # Self-verification: a delta that exists is a delta that applies.  A
    # non-canonical target (labels stored out of the library's sort order)
    # cannot be reconstructed key-by-key, and fails here instead of at the
    # consumer.
    reconstructed = apply_delta(base, delta)
    if bytes(reconstructed) != bytes(target):
        raise DeltaError("delta self-verification failed: the target snapshot "
                         "is not in canonical serialization order")
    return delta


# ----------------------------------------------------------------- applying

def apply_delta(base: bytes, delta: bytes) -> bytes:
    """Reconstruct the target snapshot bytes from ``base`` + an FTCS-D patch.

    Fail-closed: the delta must parse, must have been diffed against exactly
    these base bytes (SHA-256 match), and the reconstruction must hash to the
    recorded target digest — otherwise :class:`DeltaError`.
    """
    try:
        return _apply_delta(bytes(base), bytes(delta))
    except LabelDecodeError as error:
        # Codec primitives shared with repro.core.snapshot raise
        # LabelDecodeError; inside a delta artifact that is a delta failure.
        raise DeltaError("malformed delta: %s" % error) from error


def _apply_delta(base: bytes, delta: bytes) -> bytes:
    header = _parse_delta_header(delta)
    if _sha256(base) != header["base_digest"]:
        raise DeltaError("delta was built against a different base snapshot "
                         "(base digest mismatch)")
    base_snapshot = FTCSnapshot.from_bytes(base, decode_labels=False)

    offset = int(header["sections_offset"])
    vertex_labels, offset = _apply_section(
        base_snapshot.vertex_labels, delta, offset, edge=False,
        what="vertex label")
    edge_labels, offset = _apply_section(
        base_snapshot.edge_labels, delta, offset, edge=True,
        what="edge label")
    if offset != len(delta):
        raise DeltaError("%d trailing bytes after the delta payload"
                         % (len(delta) - offset))

    target_version = int(header["target_format_version"])
    target = FTCSnapshot(
        config=header["config"],
        codec_modulus=header["codec_modulus"],
        field_width=header["field_width"],
        field_modulus=header["field_modulus"],
        outdetect=header["outdetect"],
        vertex_labels={key: vertex_labels[key]
                       for key in _sorted_vertices(vertex_labels)},
        edge_labels={key: edge_labels[key]
                     for key in _sorted_edges(edge_labels)},
        format_version=target_version,
    )
    data = target.to_bytes() if target_version == SNAPSHOT_VERSION \
        else target.to_bytes_v2()
    if _sha256(data) != header["target_digest"]:
        raise DeltaError("applied delta does not reproduce the recorded "
                         "target snapshot (target digest mismatch)")
    return data


def _parse_delta_header(delta: bytes) -> dict:
    """Validate the fixed prefix + header blob; returns the parsed fields."""
    prefix = len(DELTA_MAGIC) + 2 + 2 * _DIGEST_BYTES
    if len(delta) < prefix:
        raise DeltaError("byte string too short to hold an FTCS-D header")
    if delta[:len(DELTA_MAGIC)] != DELTA_MAGIC:
        raise DeltaError("bad delta magic %r (expected %r)"
                         % (delta[:len(DELTA_MAGIC)], DELTA_MAGIC))
    version = delta[len(DELTA_MAGIC)]
    if version != DELTA_VERSION:
        raise DeltaError("unsupported delta format version %d (this build "
                         "reads version %d)" % (version, DELTA_VERSION))
    target_format_version = delta[len(DELTA_MAGIC) + 1]
    if target_format_version not in (SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2):
        raise DeltaError("delta records unknown target snapshot version %d"
                         % target_format_version)
    digests = delta[len(DELTA_MAGIC) + 2:prefix]
    base_digest = digests[:_DIGEST_BYTES]
    target_digest = digests[_DIGEST_BYTES:]

    header_length, offset = read_varint(delta, offset=prefix)
    header_blob, offset = _read_exact(delta, offset, header_length,
                                      "delta header blob")
    config, codec_modulus, field_width, field_modulus, descriptor, consumed = \
        FTCSnapshot._read_header_fields(bytes(header_blob), 0)
    if consumed != len(header_blob):
        raise DeltaError("%d trailing bytes inside the delta header blob"
                         % (len(header_blob) - consumed))
    return {
        "target_format_version": target_format_version,
        "base_digest": bytes(base_digest),
        "target_digest": bytes(target_digest),
        "config": config,
        "codec_modulus": codec_modulus,
        "field_width": field_width,
        "field_modulus": field_modulus,
        "outdetect": descriptor,
        "sections_offset": offset,
    }


def describe_delta(delta: bytes) -> dict:
    """Human-oriented summary of a delta artifact (no base required)."""
    try:
        header = _parse_delta_header(bytes(delta))
        offset = int(header["sections_offset"])
        counts: dict = {}
        for section, edge in (("vertex", False), ("edge", True)):
            for group in ("changed", "added", "removed"):
                count, offset = read_varint(delta, offset)
                counts["%s_%s" % (section, group)] = count
                for _ in range(count):
                    _, offset = _read_keys(bytes(delta), offset, edge)
                    if group == "removed":
                        continue
                    if group == "changed":
                        if offset >= len(delta):
                            raise DeltaError("truncated delta entry")
                        op = delta[offset]
                        offset += 1
                        if op == _OP_XOR:
                            span_count, offset = read_varint(delta, offset)
                            for _ in range(span_count):
                                _, offset = read_varint(delta, offset)
                                length, offset = read_varint(delta, offset)
                                _, offset = _read_exact(bytes(delta), offset,
                                                        length, "XOR span")
                            continue
                        if op != _OP_REPLACE:
                            raise DeltaError("unknown delta op byte 0x%02x" % op)
                    length, offset = read_varint(delta, offset)
                    _, offset = _read_exact(bytes(delta), offset, length, "blob")
    except LabelDecodeError as error:
        raise DeltaError("malformed delta: %s" % error) from error
    summary = {
        "format": "ftcs-delta",
        "delta_version": DELTA_VERSION,
        "target_snapshot_version": header["target_format_version"],
        "base_sha256": bytes(header["base_digest"]).hex(),
        "target_sha256": bytes(header["target_digest"]).hex(),
        "bytes": len(delta),
    }
    summary.update(counts)
    return summary


# -------------------------------------------------------------------- files

def diff_snapshot_files(base: Any, target: Any, destination: Any) -> dict:
    """File-level :func:`diff_snapshots` (``repro snapshot-diff``).

    Reads both snapshots, writes the self-verified delta to ``destination``,
    and returns a summary dict for the CLI to print.
    """
    base_bytes = Path(base).read_bytes()
    target_bytes = Path(target).read_bytes()
    delta = diff_snapshots(base_bytes, target_bytes)
    Path(destination).write_bytes(delta)
    summary = describe_delta(delta)
    summary.update({
        "base": str(base),
        "target": str(target),
        "destination": str(destination),
        "base_bytes": len(base_bytes),
        "target_bytes": len(target_bytes),
    })
    return summary


def apply_delta_file(base: Any, delta: Any, destination: Any) -> dict:
    """File-level :func:`apply_delta` (``repro snapshot-apply``).

    The reconstructed target is written to ``destination`` only after the
    digest verification passes; a failing delta writes nothing.
    """
    base_bytes = Path(base).read_bytes()
    delta_bytes = Path(delta).read_bytes()
    data = apply_delta(base_bytes, delta_bytes)
    write_file_atomically(destination, data)
    return {
        "base": str(base),
        "delta": str(delta),
        "destination": str(destination),
        "bytes": len(data),
        "target_sha256": _sha256(data).hex(),
    }


__all__ = [
    "DELTA_MAGIC",
    "DELTA_VERSION",
    "apply_delta",
    "apply_delta_file",
    "describe_delta",
    "diff_snapshot_files",
    "diff_snapshots",
]
