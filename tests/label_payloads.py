"""Version-1 label payloads, written here because the library no longer
writes them: the header with version byte 1, the five varints of an edge
label, and the outdetect sum as a tree of ``0x00`` + varint int nodes and
``0x01`` + varint length tuple nodes, each level the tuple of its field
elements or sketch cells."""

from repro.core import serialize


def write_v1_tree(node, out: bytearray) -> None:
    if isinstance(node, int):
        out.append(0x00)
        serialize.write_varint(node, out)
    else:
        out.append(0x01)
        serialize.write_varint(len(node), out)
        for child in node:
            write_v1_tree(child, out)


def v1_edge_blob(label, tree) -> bytes:
    """``label`` as a version-1 payload whose outdetect sum is ``tree``."""
    out = bytearray(serialize.MAGIC + bytes([1, serialize.KIND_EDGE]))
    for value in (label.ancestry_upper.pre, label.ancestry_upper.post,
                  label.ancestry_lower.pre, label.ancestry_lower.post,
                  label.outdetect_bits):
        serialize.write_varint(value, out)
    write_v1_tree(tree, out)
    return bytes(out)


def v1_levels(outdetect, label):
    """The version-1 tree of ``label``'s outdetect sum: each level the tuple
    of its lane values."""
    levels = getattr(outdetect, "level_schemes", None)
    if levels is None:
        return tuple(outdetect.lanes(label.outdetect_subtree_sum))
    return tuple(tuple(scheme.lanes(word))
                 for scheme, word in zip(levels, label.outdetect_subtree_sum))
