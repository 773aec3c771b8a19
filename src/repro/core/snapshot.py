"""Whole-labeling snapshots: ship a complete labeling, rehydrate an oracle.

The scheme's central promise (Section 7.1) is a *universal* decoder: queries
are answered from labels alone, never the graph.  A complete labeling plus the
decoder's parameters is therefore a self-contained artifact — this module
gives it a byte format (:class:`FTCSnapshot`) and a zero-rebuild loader
(:func:`load_snapshot`) that yields a :class:`RehydratedOracle` answering
``connected`` / ``connected_many`` / ``batch_session`` exactly like a live
:class:`~repro.core.oracle.FTConnectivityOracle`, without constructing a
graph, a hierarchy, or any label.

Snapshot format (version 1)
---------------------------

All integers are the unsigned LEB128 varints of :mod:`repro.core.serialize`
(``svarint`` below means zig-zag-mapped for signed values), strings are a
varint length plus UTF-8 bytes::

    magic  b"FTCS"                         4 bytes
    format version                         1 byte
    -- FTCConfig ----------------------------------------------------------
    varint  max_faults
    string  variant                        (SchemeVariant value)
    string  threshold_rule                 (ThresholdRule value)
    string  edge_id_mode                   ("compact" | "full")
    byte    adaptive_decoding              (0 | 1)
    svarint random_seed
    varint  sketch_repetitions
    -- decode-side field / codec parameters -------------------------------
    varint  codec modulus                  (exclusive bound on pre/post values)
    varint  field width w
    varint  field modulus                  (irreducible polynomial of GF(2^w))
    -- outdetect descriptor -----------------------------------------------
    byte    scheme kind                    (1 = layered RS, 2 = sketch)
    kind 1: varint level count, then one varint threshold per level
    kind 2: varint num_levels, varint repetitions, svarint seed, varint id_bits
    -- labels -------------------------------------------------------------
    varint  vertex count, then per vertex:
            vertex key, varint blob length, serialized VertexLabel
    varint  edge count, then per edge:
            key u, key v, varint blob length, serialized EdgeLabel

Vertex keys are tagged values: ``0x00`` + svarint for an int, ``0x01`` +
string for a str, ``0x02`` + varint length + children for a tuple — covering
every vertex type the graph families and the CLI produce.  Label blobs are the
self-describing per-label format of :mod:`repro.core.serialize` (own magic,
version, and kind byte), so per-label tooling reads them unchanged.

Every malformed input fails closed with
:class:`~repro.core.serialize.LabelDecodeError` — truncation, oversized
declared lengths, unknown tags/kinds, and trailing bytes are all rejected
without unbounded allocation.

Snapshot format (version 2: the mmap layout)
--------------------------------------------

Version 2 stores the same information rearranged for ``mmap`` serving: all
label blobs are concatenated into one page-aligned *label region* at the end
of the file, and the index up front records each label's ``(offset, length)``
within that region instead of inlining the bytes::

    magic  b"FTCS"                         4 bytes
    format version (= 2)                   1 byte
    u64 LE region_offset                   absolute file offset, page aligned
    u64 LE region_length                   bytes in the label region
    -- header -------------------------------------------------------------
    FTCConfig / codec / outdetect fields, exactly as in version 1
    -- index --------------------------------------------------------------
    varint  vertex count, then per vertex:
            vertex key, varint region offset, varint blob length
    varint  edge count, then per edge:
            key u, key v, varint region offset, varint blob length
    -- padding ------------------------------------------------------------
    zero bytes up to region_offset (a multiple of 4096)
    -- label region -------------------------------------------------------
    region_length bytes of concatenated label blobs

When a v2 file is loaded *by path*, :func:`load_snapshot` maps it read-only
and hands out zero-copy ``memoryview`` slices as the lazy label blobs: N
worker processes mapping the same artifact share one page-cached copy, and
per-worker RSS stays proportional to the labels actually decoded.  Version 1
artifacts keep loading exactly as before (fully read into bytes);
:func:`upgrade_snapshot_file` (``repro snapshot-upgrade``) converts between
the layouts without decoding a single label, so answers are bit-identical
across versions by construction.
"""

from __future__ import annotations

import mmap
import os
import secrets
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Hashable, Iterable, Sequence

from repro.core.config import FTCConfig, SchemeVariant
from repro.errors import OracleClosedError
from repro.core.ftc import FTCLabeling, LabelBackedQueries
from repro.core.labels import EdgeLabel, VertexLabel
from repro.core.serialize import (LabelDecodeError, read_varint, write_varint)
from repro.gf2.field import GF2m
from repro.gf2.irreducible import is_irreducible
from repro.graphs.graph import Edge, _vertex_key, canonical_edge
from repro.hierarchy.config import ThresholdRule
from repro.labeling.edge_ids import EdgeIdCodec
from repro.outdetect.base import OutdetectScheme
from repro.outdetect.layered import LayeredOutdetect
from repro.outdetect.rs_threshold import RSThresholdOutdetect
from repro.outdetect.sketch import SketchOutdetect

Vertex = Hashable

#: File magic of a serialized whole-labeling snapshot.
SNAPSHOT_MAGIC = b"FTCS"

#: The original inline-blob snapshot format version.
SNAPSHOT_VERSION = 1

#: The mmap-oriented layout: page-aligned label region + offset index.
SNAPSHOT_VERSION_V2 = 2

#: Alignment of the v2 label region.  4096 covers every page size the
#: serving tier targets; a larger system page still maps the region with at
#: most one partially-shared leading page.
SNAPSHOT_PAGE_SIZE = 4096

#: Scheme-kind byte: layered Reed--Solomon threshold outdetect.
SCHEME_LAYERED_RS = 0x01

#: Scheme-kind byte: randomized graph-sketch outdetect.
SCHEME_SKETCH = 0x02

_KEY_INT = 0x00
_KEY_STR = 0x01
_KEY_TUPLE = 0x02

#: Nesting cap for tuple-typed vertex keys (mirrors the label-tree cap).
_MAX_KEY_DEPTH = 16

#: Sanity caps on decode-side parameters.  Real values sit far below these
#: (compact edge ids for a billion-vertex graph need a ~63-bit field; paper
#: thresholds are ~f log^2 n; sketches use ~log m levels), but a corrupt
#: snapshot must not be able to trigger an enormous irreducible-polynomial
#: search or a giant zero-label allocation before failing.
MAX_FIELD_WIDTH = 512
MAX_RS_THRESHOLD = 1 << 16
MAX_SKETCH_CELLS = 1 << 22
MAX_SKETCH_ID_BITS = 1 << 12


# ------------------------------------------------------------- primitives

def write_svarint(value: int, out: bytearray) -> None:
    """Append the zig-zag varint encoding of a (possibly negative) integer."""
    write_varint(value * 2 if value >= 0 else -value * 2 - 1, out)


def read_svarint(data: bytes, offset: int) -> tuple[int, int]:
    """Read one zig-zag varint; returns ``(value, next_offset)``."""
    encoded, offset = read_varint(data, offset)
    value = encoded >> 1 if encoded % 2 == 0 else -((encoded + 1) >> 1)
    return value, offset


def write_string(text: str, out: bytearray) -> None:
    encoded = text.encode("utf-8")
    write_varint(len(encoded), out)
    out += encoded


def _read_exact(data: bytes, offset: int, length: int, what: str) -> tuple[bytes, int]:
    if length > len(data) - offset:
        raise LabelDecodeError("%s of declared length %d runs past the end of "
                               "the snapshot" % (what, length))
    return data[offset:offset + length], offset + length


def _label_blob(label) -> bytes:
    """The serialized bytes of a label-map value.

    Values are decoded label objects, raw ``bytes`` blobs (lazy v1 load), or
    ``memoryview`` slices of an mmap'd v2 region — all re-serialize to the
    identical blob, so round-tripping a lazily-loaded snapshot is byte-exact.
    """
    if isinstance(label, bytes):
        return label
    if isinstance(label, memoryview):
        return bytes(label)
    return label.to_bytes()


def _edge_label_blobs(labels: Iterable) -> list:
    """The serialized bytes of every edge-label map value, in order.

    Label objects are encoded together by :meth:`EdgeLabel.to_bytes_many`;
    raw blobs of a lazily loaded snapshot pass through verbatim.
    """
    labels = list(labels)
    encoded = iter(EdgeLabel.to_bytes_many(
        [label for label in labels if not isinstance(label, (bytes, memoryview))]))
    return [_label_blob(label) if isinstance(label, (bytes, memoryview))
            else next(encoded) for label in labels]


def write_file_atomically(path: "str | os.PathLike[str]", data: bytes) -> None:
    """Replace ``path`` with ``data`` by renaming a finished file over it.

    The data goes to a uniquely named file beside ``path``, which
    ``os.replace`` then moves over it, so the old inode is never rewritten:
    a process that mapped a v2 snapshot at ``path`` keeps reading the old
    bytes (truncating them in place would fault it with ``SIGBUS``).  The
    new file gets the mode ``Path.write_bytes`` gives (``0o666`` less the
    umask); on any failure it is removed.
    """
    path = Path(path)
    # Unguessable, so no other writer holds the name and nobody can plant a
    # link there first; O_EXCL below refuses an existing entry either way.
    token = secrets.token_hex(8)  # repro: allow[RPL006] names the temp file, not snapshot bytes
    temporary = path.with_name(".%s.%s.tmp" % (path.name, token))
    descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _region_slice(region, relative: int, length: int, region_length: int,
                  what: str):
    """One label blob out of the v2 region, bounds-checked fail-closed."""
    if relative + length > region_length:
        raise LabelDecodeError(
            "%s blob at %d + %d bytes runs past the %d-byte label region"
            % (what, relative, length, region_length))
    return region[relative:relative + length]


def read_string(data: bytes, offset: int) -> tuple[str, int]:
    length, offset = read_varint(data, offset)
    raw, offset = _read_exact(data, offset, length, "string")
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as error:
        raise LabelDecodeError("invalid UTF-8 in snapshot string: %s" % error) from error


def write_vertex_key(key: Any, out: bytearray, _depth: int = 0) -> None:
    """Append the tagged encoding of a vertex key (int, str, or tuple)."""
    if _depth > _MAX_KEY_DEPTH:
        raise ValueError("vertex key nested deeper than %d levels" % _MAX_KEY_DEPTH)
    if isinstance(key, bool):
        raise TypeError("bool vertex keys are not supported in snapshots")
    if isinstance(key, int):
        out.append(_KEY_INT)
        write_svarint(key, out)
    elif isinstance(key, str):
        out.append(_KEY_STR)
        write_string(key, out)
    elif isinstance(key, tuple):
        out.append(_KEY_TUPLE)
        write_varint(len(key), out)
        for part in key:
            write_vertex_key(part, out, _depth + 1)
    else:
        raise TypeError("snapshot vertex keys must be ints, strings, or tuples "
                        "of those, got %r" % type(key).__name__)


def read_vertex_key(data: bytes, offset: int, _depth: int = 0) -> tuple[Any, int]:
    """Read one tagged vertex key; returns ``(key, next_offset)``."""
    if _depth > _MAX_KEY_DEPTH:
        raise LabelDecodeError("vertex key nested deeper than %d levels" % _MAX_KEY_DEPTH)
    if offset >= len(data):
        raise LabelDecodeError("truncated vertex key")
    tag = data[offset]
    offset += 1
    if tag == _KEY_INT:
        return read_svarint(data, offset)
    if tag == _KEY_STR:
        return read_string(data, offset)
    if tag == _KEY_TUPLE:
        length, offset = read_varint(data, offset)
        remaining = len(data) - offset
        if 2 * length > remaining:
            raise LabelDecodeError("vertex-key tuple declares %d parts but only "
                                   "%d bytes remain" % (length, remaining))
        parts = []
        for _ in range(length):
            part, offset = read_vertex_key(data, offset, _depth + 1)
            parts.append(part)
        return tuple(parts), offset
    raise LabelDecodeError("unknown vertex-key tag 0x%02x" % tag)


# ----------------------------------------------------- outdetect descriptor

@dataclass(frozen=True)
class OutdetectDescriptor:
    """Decode-side parameters of an outdetect scheme, as stored in a snapshot.

    ``kind`` is ``"layered-rs"`` (``thresholds`` holds one decoding threshold
    per hierarchy level) or ``"sketch"`` (``num_levels`` / ``repetitions`` /
    ``seed`` / ``id_bits`` reproduce the seeded hashing exactly).
    """

    kind: str
    thresholds: tuple = ()
    num_levels: int = 0
    repetitions: int = 0
    seed: int = 0
    id_bits: int = 0


def describe_outdetect(scheme: OutdetectScheme) -> OutdetectDescriptor:
    """Extract the decode-side parameters of a constructed outdetect scheme."""
    if isinstance(scheme, LayeredOutdetect):
        thresholds = []
        for level in scheme.level_schemes:
            if not isinstance(level, RSThresholdOutdetect):
                raise TypeError("cannot snapshot layered level of type %r"
                                % type(level).__name__)
            thresholds.append(level.threshold)
        return OutdetectDescriptor(kind="layered-rs", thresholds=tuple(thresholds))
    if isinstance(scheme, SketchOutdetect):
        return OutdetectDescriptor(kind="sketch", num_levels=scheme.num_levels,
                                   repetitions=scheme.repetitions,
                                   seed=scheme.seed, id_bits=scheme.id_bits)
    raise TypeError("cannot snapshot outdetect scheme of type %r"
                    % type(scheme).__name__)


def build_decode_outdetect(descriptor: OutdetectDescriptor, field: GF2m,
                           adaptive: bool) -> OutdetectScheme:
    """Reconstruct a decode-side outdetect scheme from stored parameters.

    No vertex labels are built — the result supports exactly what the query
    engines and batch sessions use (``zero_label``, ``combine[_all]``,
    ``decode``, ``label_bit_size``).
    """
    if descriptor.kind == "layered-rs":
        if not descriptor.thresholds:
            raise LabelDecodeError("layered outdetect descriptor has no levels")
        for threshold in descriptor.thresholds:
            if not 1 <= threshold <= MAX_RS_THRESHOLD:
                raise LabelDecodeError("implausible RS decoding threshold %d "
                                       "(limit %d)" % (threshold, MAX_RS_THRESHOLD))
        return LayeredOutdetect([
            RSThresholdOutdetect.decode_only(field, threshold, adaptive=adaptive)
            for threshold in descriptor.thresholds])
    if descriptor.kind == "sketch":
        if descriptor.num_levels < 1 or descriptor.repetitions < 1 \
                or descriptor.num_levels * descriptor.repetitions > MAX_SKETCH_CELLS:
            raise LabelDecodeError(
                "implausible sketch geometry: %d levels x %d repetitions (limit "
                "%d cells)" % (descriptor.num_levels, descriptor.repetitions,
                               MAX_SKETCH_CELLS))
        if not 1 <= descriptor.id_bits <= MAX_SKETCH_ID_BITS:
            raise LabelDecodeError("implausible sketch id width %d bits (limit %d)"
                                   % (descriptor.id_bits, MAX_SKETCH_ID_BITS))
        return SketchOutdetect.decode_only(
            descriptor.num_levels, descriptor.repetitions,
            descriptor.seed, descriptor.id_bits)
    raise LabelDecodeError("unknown outdetect scheme kind %r" % descriptor.kind)


# ------------------------------------------------------------- the snapshot

@dataclass
class FTCSnapshot:
    """A whole labeling plus every decode-side parameter, as one artifact."""

    config: FTCConfig
    codec_modulus: int
    field_width: int
    field_modulus: int
    outdetect: OutdetectDescriptor
    vertex_labels: dict = dataclass_field(default_factory=dict)
    edge_labels: dict = dataclass_field(default_factory=dict)
    #: Which container layout this snapshot was parsed from (1 or 2).  Both
    #: layouts carry identical information, so the version is provenance, not
    #: content — it is excluded from equality.
    format_version: int = dataclass_field(default=SNAPSHOT_VERSION, compare=False)

    # ------------------------------------------------------------- creation

    @classmethod
    def from_labeling(cls, labeling: FTCLabeling) -> "FTCSnapshot":
        """Capture a constructed :class:`~repro.core.ftc.FTCLabeling`.

        Vertices and edges are stored in the library's deterministic sort
        order, so equal labelings serialize to byte-identical snapshots
        regardless of set-iteration order (which varies with the per-process
        hash seed).
        """
        codec = labeling.codec
        vertex_labels = labeling.all_vertex_labels()
        edge_labels = labeling.all_edge_labels()
        return cls(
            config=labeling.config,
            codec_modulus=codec.modulus,
            field_width=codec.field.width,
            field_modulus=codec.field.modulus,
            outdetect=describe_outdetect(labeling.outdetect),
            vertex_labels={vertex: vertex_labels[vertex]
                           for vertex in sorted(vertex_labels, key=_vertex_key)},
            edge_labels={edge: edge_labels[edge]
                         for edge in sorted(edge_labels,
                                            key=lambda e: (_vertex_key(e[0]),
                                                           _vertex_key(e[1])))},
        )

    # ------------------------------------------------------------- encoding

    def _write_header_fields(self, out: bytearray) -> None:
        """Append the config / codec / outdetect fields (identical in v1/v2)."""
        config = self.config
        write_varint(config.max_faults, out)
        write_string(config.variant.value, out)
        write_string(config.threshold_rule.value, out)
        write_string(config.edge_id_mode, out)
        out.append(1 if config.adaptive_decoding else 0)
        write_svarint(config.random_seed, out)
        write_varint(config.sketch_repetitions, out)

        write_varint(self.codec_modulus, out)
        write_varint(self.field_width, out)
        write_varint(self.field_modulus, out)

        descriptor = self.outdetect
        if descriptor.kind == "layered-rs":
            out.append(SCHEME_LAYERED_RS)
            write_varint(len(descriptor.thresholds), out)
            for threshold in descriptor.thresholds:
                write_varint(threshold, out)
        elif descriptor.kind == "sketch":
            out.append(SCHEME_SKETCH)
            write_varint(descriptor.num_levels, out)
            write_varint(descriptor.repetitions, out)
            write_svarint(descriptor.seed, out)
            write_varint(descriptor.id_bits, out)
        else:
            raise ValueError("unknown outdetect scheme kind %r" % descriptor.kind)

    def to_bytes(self) -> bytes:
        """Serialize to the version-1 (inline-blob) layout."""
        out = bytearray(SNAPSHOT_MAGIC)
        out.append(SNAPSHOT_VERSION)
        self._write_header_fields(out)

        write_varint(len(self.vertex_labels), out)
        for vertex, label in self.vertex_labels.items():
            write_vertex_key(vertex, out)
            blob = _label_blob(label)
            write_varint(len(blob), out)
            out += blob
        write_varint(len(self.edge_labels), out)
        for (u, v), blob in zip(self.edge_labels,
                                _edge_label_blobs(self.edge_labels.values())):
            write_vertex_key(u, out)
            write_vertex_key(v, out)
            write_varint(len(blob), out)
            out += blob
        return bytes(out)

    def to_bytes_v2(self) -> bytes:
        """Serialize to the version-2 (mmap) layout.

        Deterministic like :meth:`to_bytes`: blobs land in the label region in
        index order, the index records region-relative offsets (which depend
        only on blob sizes, never on where the region starts), and the region
        itself starts at the first page boundary past the index.
        """
        region = bytearray()
        body = bytearray()
        self._write_header_fields(body)

        write_varint(len(self.vertex_labels), body)
        for vertex, label in self.vertex_labels.items():
            blob = _label_blob(label)
            write_vertex_key(vertex, body)
            write_varint(len(region), body)
            write_varint(len(blob), body)
            region += blob
        write_varint(len(self.edge_labels), body)
        for (u, v), blob in zip(self.edge_labels,
                                _edge_label_blobs(self.edge_labels.values())):
            write_vertex_key(u, body)
            write_vertex_key(v, body)
            write_varint(len(region), body)
            write_varint(len(blob), body)
            region += blob

        prefix_length = len(SNAPSHOT_MAGIC) + 1 + 16
        index_end = prefix_length + len(body)
        region_offset = -(-index_end // SNAPSHOT_PAGE_SIZE) * SNAPSHOT_PAGE_SIZE
        out = bytearray(SNAPSHOT_MAGIC)
        out.append(SNAPSHOT_VERSION_V2)
        out += region_offset.to_bytes(8, "little")
        out += len(region).to_bytes(8, "little")
        out += body
        out += bytes(region_offset - index_end)
        out += region
        return bytes(out)

    # ------------------------------------------------------------- decoding

    @classmethod
    def from_bytes(cls, data: bytes, decode_labels: bool = True) -> "FTCSnapshot":
        """Parse a snapshot; raises :class:`LabelDecodeError` on malformed input.

        With ``decode_labels=False`` the label maps hold the raw per-label
        blobs instead of decoded label objects — the whole container structure
        (header, config, descriptor, keys, lengths, trailing bytes) is still
        validated, but the label payloads are deferred.
        :class:`RehydratedOracle` uses this to decode each label lazily on
        first use, which makes rehydration time proportional to the number of
        labels rather than their total bit-size.
        """
        return cls._from_bytes(data, decode_labels)

    @classmethod
    def _from_bytes(cls, data, decode_labels: bool) -> "FTCSnapshot":
        if len(data) < len(SNAPSHOT_MAGIC) + 1:
            raise LabelDecodeError("byte string too short to hold a snapshot header")
        if bytes(data[:len(SNAPSHOT_MAGIC)]) != SNAPSHOT_MAGIC:
            raise LabelDecodeError("bad snapshot magic %r (expected %r)"
                                   % (bytes(data[:len(SNAPSHOT_MAGIC)]), SNAPSHOT_MAGIC))
        version = data[len(SNAPSHOT_MAGIC)]
        if version == SNAPSHOT_VERSION_V2:
            return cls._parse_v2(data, decode_labels)
        if version != SNAPSHOT_VERSION:
            raise LabelDecodeError(
                "unsupported snapshot format version %d (this build reads "
                "versions %d and %d)"
                % (version, SNAPSHOT_VERSION, SNAPSHOT_VERSION_V2))
        if not isinstance(data, bytes):
            data = bytes(data)
        offset = len(SNAPSHOT_MAGIC) + 1

        config, codec_modulus, field_width, field_modulus, descriptor, offset = \
            cls._read_header_fields(data, offset)

        vertex_count, offset = read_varint(data, offset)
        remaining = len(data) - offset
        if 3 * vertex_count > remaining:
            raise LabelDecodeError("snapshot declares %d vertex labels but only %d "
                                   "bytes remain" % (vertex_count, remaining))
        vertex_labels: dict = {}
        for _ in range(vertex_count):
            vertex, offset = read_vertex_key(data, offset)
            length, offset = read_varint(data, offset)
            blob, offset = _read_exact(data, offset, length, "vertex-label blob")
            vertex_labels[vertex] = VertexLabel.from_bytes(blob) if decode_labels else blob

        edge_count, offset = read_varint(data, offset)
        remaining = len(data) - offset
        if 5 * edge_count > remaining:
            raise LabelDecodeError("snapshot declares %d edge labels but only %d "
                                   "bytes remain" % (edge_count, remaining))
        edge_labels: dict = {}
        for _ in range(edge_count):
            u, offset = read_vertex_key(data, offset)
            v, offset = read_vertex_key(data, offset)
            length, offset = read_varint(data, offset)
            blob, offset = _read_exact(data, offset, length, "edge-label blob")
            try:
                edge = canonical_edge(u, v)
            except ValueError as error:
                raise LabelDecodeError("invalid snapshot edge: %s" % error) from error
            edge_labels[edge] = EdgeLabel.from_bytes(blob) if decode_labels else blob

        if offset != len(data):
            raise LabelDecodeError("%d trailing bytes after the snapshot payload"
                                   % (len(data) - offset))
        return cls(config=config, codec_modulus=codec_modulus,
                   field_width=field_width, field_modulus=field_modulus,
                   outdetect=descriptor, vertex_labels=vertex_labels,
                   edge_labels=edge_labels)

    @classmethod
    def _read_header_fields(cls, data: bytes, offset: int):
        """Parse the config / codec / outdetect fields (identical in v1/v2)."""
        max_faults, offset = read_varint(data, offset)
        variant_value, offset = read_string(data, offset)
        rule_value, offset = read_string(data, offset)
        edge_id_mode, offset = read_string(data, offset)
        if offset >= len(data):
            raise LabelDecodeError("truncated snapshot (missing adaptive flag)")
        adaptive_byte = data[offset]
        offset += 1
        if adaptive_byte not in (0, 1):
            raise LabelDecodeError("invalid adaptive-decoding flag 0x%02x" % adaptive_byte)
        random_seed, offset = read_svarint(data, offset)
        sketch_repetitions, offset = read_varint(data, offset)
        try:
            config = FTCConfig(
                max_faults=max_faults,
                variant=SchemeVariant(variant_value),
                threshold_rule=ThresholdRule(rule_value),
                edge_id_mode=edge_id_mode,
                adaptive_decoding=bool(adaptive_byte),
                random_seed=random_seed,
                sketch_repetitions=sketch_repetitions,
            )
        except ValueError as error:
            raise LabelDecodeError("invalid snapshot config: %s" % error) from error

        codec_modulus, offset = read_varint(data, offset)
        field_width, offset = read_varint(data, offset)
        field_modulus, offset = read_varint(data, offset)

        if offset >= len(data):
            raise LabelDecodeError("truncated snapshot (missing outdetect descriptor)")
        kind_byte = data[offset]
        offset += 1
        if kind_byte == SCHEME_LAYERED_RS:
            level_count, offset = read_varint(data, offset)
            remaining = len(data) - offset
            if level_count > remaining:
                raise LabelDecodeError("outdetect descriptor declares %d levels but "
                                       "only %d bytes remain" % (level_count, remaining))
            thresholds = []
            for _ in range(level_count):
                threshold, offset = read_varint(data, offset)
                thresholds.append(threshold)
            descriptor = OutdetectDescriptor(kind="layered-rs",
                                             thresholds=tuple(thresholds))
        elif kind_byte == SCHEME_SKETCH:
            num_levels, offset = read_varint(data, offset)
            repetitions, offset = read_varint(data, offset)
            seed, offset = read_svarint(data, offset)
            id_bits, offset = read_varint(data, offset)
            descriptor = OutdetectDescriptor(kind="sketch", num_levels=num_levels,
                                             repetitions=repetitions, seed=seed,
                                             id_bits=id_bits)
        else:
            raise LabelDecodeError("unknown outdetect scheme kind byte 0x%02x" % kind_byte)
        return config, codec_modulus, field_width, field_modulus, descriptor, offset

    @classmethod
    def _parse_v2(cls, data, decode_labels: bool) -> "FTCSnapshot":
        """Parse the mmap layout.

        ``data`` may be ``bytes`` or a ``memoryview`` over an mmap.  The
        index (everything before the label region) is always materialized as
        small bytes for parsing; label blobs are *slices of the source
        buffer* — zero-copy views when the source is a mapped file.
        """
        total = len(data)
        prefix = len(SNAPSHOT_MAGIC) + 1
        if total < prefix + 16:
            raise LabelDecodeError("truncated snapshot (missing v2 region header)")
        region_offset = int.from_bytes(bytes(data[prefix:prefix + 8]), "little")
        region_length = int.from_bytes(bytes(data[prefix + 8:prefix + 16]), "little")
        if region_offset % SNAPSHOT_PAGE_SIZE != 0:
            raise LabelDecodeError(
                "v2 label region offset %d is not %d-byte page aligned"
                % (region_offset, SNAPSHOT_PAGE_SIZE))
        if not prefix + 16 <= region_offset <= total:
            raise LabelDecodeError(
                "v2 label region offset %d is outside the %d-byte snapshot"
                % (region_offset, total))
        if region_offset + region_length != total:
            raise LabelDecodeError(
                "v2 label region (%d + %d bytes) does not end at the "
                "snapshot's %d bytes" % (region_offset, region_length, total))
        index = bytes(data[:region_offset])
        region = data[region_offset:total]
        offset = prefix + 16

        config, codec_modulus, field_width, field_modulus, descriptor, offset = \
            cls._read_header_fields(index, offset)

        vertex_count, offset = read_varint(index, offset)
        remaining = region_offset - offset
        if 3 * vertex_count > remaining:
            raise LabelDecodeError("snapshot declares %d vertex labels but only %d "
                                   "index bytes remain" % (vertex_count, remaining))
        vertex_labels: dict = {}
        for _ in range(vertex_count):
            vertex, offset = read_vertex_key(index, offset)
            relative, offset = read_varint(index, offset)
            length, offset = read_varint(index, offset)
            blob = _region_slice(region, relative, length, region_length,
                                 "vertex-label")
            vertex_labels[vertex] = \
                VertexLabel.from_bytes(bytes(blob)) if decode_labels else blob

        edge_count, offset = read_varint(index, offset)
        remaining = region_offset - offset
        if 5 * edge_count > remaining:
            raise LabelDecodeError("snapshot declares %d edge labels but only %d "
                                   "index bytes remain" % (edge_count, remaining))
        edge_labels: dict = {}
        for _ in range(edge_count):
            u, offset = read_vertex_key(index, offset)
            v, offset = read_vertex_key(index, offset)
            relative, offset = read_varint(index, offset)
            length, offset = read_varint(index, offset)
            blob = _region_slice(region, relative, length, region_length,
                                 "edge-label")
            try:
                edge = canonical_edge(u, v)
            except ValueError as error:
                raise LabelDecodeError("invalid snapshot edge: %s" % error) from error
            edge_labels[edge] = \
                EdgeLabel.from_bytes(bytes(blob)) if decode_labels else blob

        if any(index[offset:region_offset]):
            raise LabelDecodeError("nonzero padding between the v2 index and "
                                   "the label region")
        return cls(config=config, codec_modulus=codec_modulus,
                   field_width=field_width, field_modulus=field_modulus,
                   outdetect=descriptor, vertex_labels=vertex_labels,
                   edge_labels=edge_labels,
                   format_version=SNAPSHOT_VERSION_V2)

    # ----------------------------------------------------------------- files

    def save(self, path, version: int = SNAPSHOT_VERSION) -> int:
        """Write the snapshot to ``path``; returns the byte count.

        ``version`` selects the container layout: 1 (inline blobs, the
        default) or 2 (the mmap layout of :meth:`to_bytes_v2`).
        """
        if version == SNAPSHOT_VERSION:
            data = self.to_bytes()
        elif version == SNAPSHOT_VERSION_V2:
            data = self.to_bytes_v2()
        else:
            raise ValueError("unknown snapshot format version %d" % version)
        write_file_atomically(path, data)
        return len(data)

    @classmethod
    def load(cls, path) -> "FTCSnapshot":
        return cls.from_bytes(Path(path).read_bytes())

    # ------------------------------------------------------------ conversion

    def rehydrate(self) -> "RehydratedOracle":
        """Build a query-ready oracle from this snapshot (no graph, no rebuild)."""
        return RehydratedOracle(self)

    def describe(self) -> dict:
        """Human-oriented summary (what ``repro.cli load-labeling`` prints)."""
        summary = {
            "format": "ftc-snapshot",
            "snapshot_version": self.format_version,
            "max_faults": self.config.max_faults,
            "variant": self.config.variant.value,
            "threshold_rule": self.config.threshold_rule.value,
            "edge_id_mode": self.config.edge_id_mode,
            "field_width": self.field_width,
            "outdetect_kind": self.outdetect.kind,
            "vertex_labels": len(self.vertex_labels),
            "edge_labels": len(self.edge_labels),
        }
        if self.outdetect.kind == "layered-rs":
            summary["levels"] = len(self.outdetect.thresholds)
            summary["thresholds"] = list(self.outdetect.thresholds)
        else:
            summary["levels"] = self.outdetect.num_levels
            summary["repetitions"] = self.outdetect.repetitions
        return summary


# -------------------------------------------------------- rehydrated oracle

class RehydratedOracle(LabelBackedQueries):
    """An oracle reconstructed from a snapshot — labels only, zero rebuild.

    Exposes the same ``connected`` / ``connected_many`` / ``batch_session``
    surface as :class:`~repro.core.oracle.FTConnectivityOracle`, backed by the
    stored label maps and a decode-side outdetect scheme rebuilt from the
    snapshot's parameters.  There is no graph, no hierarchy, and no access to
    anything but labels, so answers are byte-for-byte the universal decoder's.
    This is the "snapshot" transport of the oracle protocol (:mod:`repro.api`).
    """

    #: Transport tag of the oracle protocol (:mod:`repro.api`).
    transport = "snapshot"

    def __init__(self, snapshot: FTCSnapshot):
        self.snapshot = snapshot
        self.config = snapshot.config
        # Every stored parameter is attacker-controlled bytes until proven
        # otherwise: cap the field width before any construction, and turn
        # construction-time rejections (bad modulus degree, reducible modulus,
        # field too narrow for the id domain) into decode errors so corrupt
        # snapshots fail closed instead of crashing callers.
        if not 1 <= snapshot.field_width <= MAX_FIELD_WIDTH:
            raise LabelDecodeError("implausible snapshot field width %d (limit %d)"
                                   % (snapshot.field_width, MAX_FIELD_WIDTH))
        # Degree first (cheap), so the irreducibility test below runs only on
        # polynomials within the width cap — never on a huge hostile varint.
        if snapshot.field_modulus.bit_length() - 1 != snapshot.field_width:
            raise LabelDecodeError(
                "snapshot field modulus degree %d does not match field width %d"
                % (snapshot.field_modulus.bit_length() - 1, snapshot.field_width))
        # GF2m only verifies the degree; a reducible modulus would construct a
        # non-field ring whose arithmetic silently decodes wrong edge sets.
        if not is_irreducible(snapshot.field_modulus):
            raise LabelDecodeError("snapshot field modulus 0x%x is reducible"
                                   % snapshot.field_modulus)
        try:
            field = GF2m(snapshot.field_width, modulus=snapshot.field_modulus)
            codec = EdgeIdCodec.for_field(snapshot.codec_modulus,
                                          snapshot.config.edge_id_mode, field)
        except (ValueError, RuntimeError) as error:
            raise LabelDecodeError(
                "snapshot decode parameters are invalid: %s" % error) from error
        self.codec = codec
        self.outdetect = build_decode_outdetect(
            snapshot.outdetect, field, snapshot.config.adaptive_decoding)
        self._vertex_labels = dict(snapshot.vertex_labels)
        self._edge_labels = dict(snapshot.edge_labels)
        self._init_session_cache()
        self._queries_answered = 0
        self._closed = False
        # Set by load_snapshot when this oracle's blobs are memoryview slices
        # of a mapped file; close() then owns unmapping it.
        self._mmap = None
        self._mmap_view = None

    # ---------------------------------------------------------- label lookups
    #
    # The maps may hold raw blobs (lazy load path); a blob is decoded on first
    # use and the decoded object cached in place, so a query touches only the
    # labels it actually needs — the rehydration cost of a snapshot is
    # structural, not proportional to total label bits.  Decoding is
    # idempotent and the in-place swap is a single (GIL-atomic) dict store, so
    # concurrent threads may at worst decode the same blob twice.

    def vertex_label(self, vertex: Vertex) -> VertexLabel:
        self._ensure_open()
        try:
            label = self._vertex_labels[vertex]
        except KeyError:
            raise KeyError("vertex %r is not in the snapshot" % (vertex,)) from None
        if isinstance(label, (bytes, memoryview)):
            label = VertexLabel.from_bytes(bytes(label))
            self._vertex_labels[vertex] = label
        return label

    def edge_label(self, u: Vertex, v: Vertex) -> EdgeLabel:
        self._ensure_open()
        edge = canonical_edge(u, v)
        try:
            label = self._edge_labels[edge]
        except KeyError:
            raise KeyError("edge %r is not in the snapshot" % (edge,)) from None
        if isinstance(label, (bytes, memoryview)):
            label = EdgeLabel.from_bytes(bytes(label))
            self._edge_labels[edge] = label
        return label

    # -------------------------------------------------------------- topology

    @property
    def max_faults(self) -> int:
        return self.config.max_faults

    def vertices(self) -> list:
        return list(self._vertex_labels)

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._vertex_labels

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        try:
            return canonical_edge(u, v) in self._edge_labels
        except ValueError:
            return False

    def num_vertices(self) -> int:
        return len(self._vertex_labels)

    def num_edges(self) -> int:
        return len(self._edge_labels)

    # ---------------------------------------------------------------- queries

    def _ensure_open(self) -> None:
        if self._closed:
            raise OracleClosedError("snapshot oracle is closed; its label "
                                    "buffers were released")

    def connected(self, s: Vertex, t: Vertex, faults: Iterable[Edge] = (),
                  use_fast_engine: bool = True) -> bool:
        """Oracle-style single query through the cached batch session."""
        self._ensure_open()
        if not use_fast_engine:
            answer = self._connected_per_query(s, t, list(faults), use_fast_engine=False)
            self._queries_answered += 1
            return answer
        return self.connected_many([(s, t)], faults)[0]

    def connected_many(self, pairs: Sequence[tuple],
                       faults: Iterable[Edge] = ()) -> list[bool]:
        self._ensure_open()
        answers = super().connected_many(pairs, faults)
        self._queries_answered += len(answers)
        return answers

    def batch_session(self, faults: Iterable[Edge] = ()):
        self._ensure_open()
        return super().batch_session(faults)

    @property
    def queries_answered(self) -> int:
        return self._queries_answered

    # ------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Release the snapshot-backed buffers; idempotent.

        Drops the cached sessions *and* the label maps, and — when the labels
        were zero-copy views of an mmap'd v2 artifact — unmaps the file.
        Unlike a live :class:`~repro.core.ftc.FTCLabeling` (whose labels stay
        usable after ``close()``), a closed snapshot oracle answers nothing:
        further queries raise :class:`~repro.errors.OracleClosedError`, the
        same contract the remote transport has always had.
        """
        if self._closed:
            return
        self._closed = True
        super().close()
        self._vertex_labels = {}
        self._edge_labels = {}
        if self._mmap is not None:
            # load_snapshot built the snapshot privately for this oracle, so
            # dropping its maps here releases the last blob views (CPython
            # frees them immediately; no GC cycle involved).
            self.snapshot.vertex_labels = {}
            self.snapshot.edge_labels = {}
            if self._mmap_view is not None:
                self._mmap_view.release()
                self._mmap_view = None
            try:
                self._mmap.close()
            except BufferError:
                # A caller still holds an exported label view; the mapping is
                # released when that last reference drops.
                pass
            self._mmap = None

    def _adopt_mmap(self, mapped, view) -> None:
        """Take ownership of the mapping backing this oracle's label views."""
        self._mmap = mapped
        self._mmap_view = view

    # ------------------------------------------------------------ statistics

    def stats(self):
        """Normalized :class:`~repro.api.OracleStats` (the protocol's view)."""
        from repro.api import local_oracle_stats
        return local_oracle_stats(self, self.session_cache_info())


# ------------------------------------------------------------------ loading

def load_snapshot(source) -> RehydratedOracle:
    """Rehydrate an oracle from snapshot bytes or a snapshot file.

    ``source`` may be ``bytes`` (e.g. ``labeling.to_snapshot_bytes()``) or a
    path.  The round-trip invariant — the contract the tests enforce — is that
    ``load_snapshot(labeling.to_snapshot_bytes())`` answers every
    ``(s, t, F)`` query identically to the live scheme, with no graph and no
    reconstruction.  The container structure is fully validated here; label
    payloads are decoded lazily on first use (a query touches two vertex
    labels and the fault edges' labels, nothing else).
    """
    if isinstance(source, (bytes, bytearray, memoryview)):
        data = bytes(source)
        return FTCSnapshot.from_bytes(data, decode_labels=False).rehydrate()

    path = Path(source)
    try:
        with open(path, "rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError as error:
        # Zero-length files cannot be mapped; fail like any truncated input.
        raise LabelDecodeError("cannot map snapshot %s: %s" % (path, error)) from error
    prefix = len(SNAPSHOT_MAGIC) + 1
    if len(mapped) > prefix and mapped[:len(SNAPSHOT_MAGIC)] == SNAPSHOT_MAGIC \
            and mapped[len(SNAPSHOT_MAGIC)] == SNAPSHOT_VERSION_V2:
        view = memoryview(mapped)
        try:
            snapshot = FTCSnapshot.from_bytes(view, decode_labels=False)
            oracle = snapshot.rehydrate()
        except LabelDecodeError:
            view.release()
            mapped.close()
            raise
        oracle._adopt_mmap(mapped, view)
        return oracle
    data = bytes(mapped)
    mapped.close()
    return FTCSnapshot.from_bytes(data, decode_labels=False).rehydrate()


def upgrade_snapshot_file(source, destination) -> dict:
    """Convert a snapshot file to the v2 mmap layout (``repro snapshot-upgrade``).

    Label blobs are copied verbatim — the container is parsed with
    ``decode_labels=False`` and re-emitted, so conversion is I/O-bound and the
    rehydrated answers are bit-identical by construction.  Accepts either
    input version (re-encoding a v2 file canonicalizes it).  Returns a summary
    dict for the CLI to print.
    """
    snapshot = FTCSnapshot.from_bytes(Path(source).read_bytes(),
                                      decode_labels=False)
    data = snapshot.to_bytes_v2()
    write_file_atomically(destination, data)
    return {
        "source": str(source),
        "destination": str(destination),
        "from_version": snapshot.format_version,
        "to_version": SNAPSHOT_VERSION_V2,
        "bytes": len(data),
        "vertex_labels": len(snapshot.vertex_labels),
        "edge_labels": len(snapshot.edge_labels),
    }


__all__ = [
    "FTCSnapshot",
    "OutdetectDescriptor",
    "RehydratedOracle",
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SNAPSHOT_VERSION_V2",
    "SNAPSHOT_PAGE_SIZE",
    "describe_outdetect",
    "build_decode_outdetect",
    "load_snapshot",
    "upgrade_snapshot_file",
    "write_file_atomically",
]
