"""Hot-key persistence: carry a server's hottest fault sets across restarts.

The :class:`~repro.server.session_manager.SessionManager` tracks which
canonical fault sets concentrate traffic (``session_hot_keys``).  This module
persists the top of that table *beside the snapshot* — at
``<snapshot>.hotkeys.json`` — on graceful shutdown, so the next run (every
worker of a ``repro serve --workers N`` fleet, or a plain single-process
serve) pre-warms those sessions before the first client connects.

The file is advisory state, never a source of truth: loading is fail-soft
(missing, unreadable, or malformed files yield an empty list and cold-start
behavior), and writing is atomic (a uniquely named temp file + rename, as
for the snapshot itself), so a crash mid-write leaves the previous
generation intact, and concurrent writers — every fleet worker saves on the
same SIGTERM — never collide: the last rename wins.  Vertex ids round-trip
through JSON, which covers everything the wire protocol serves (ints and
strings).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Sequence

from repro.core.snapshot import write_file_atomically

#: Appended to the snapshot path to name its pre-warm sidecar file.
HOT_KEYS_SUFFIX = ".hotkeys.json"

#: Bump when the sidecar payload shape changes; mismatches load as empty.
HOT_KEYS_FORMAT_VERSION = 1


def hot_keys_path(snapshot_path: "str | os.PathLike[str]") -> str:
    """The pre-warm sidecar path for a snapshot artifact."""
    return str(snapshot_path) + HOT_KEYS_SUFFIX


def save_hot_fault_sets(path: "str | os.PathLike[str]",
                        fault_sets: Sequence[Sequence[Any]]) -> int:
    """Atomically persist ``fault_sets``; returns the number written.

    ``fault_sets`` is what
    :meth:`~repro.server.session_manager.SessionManager.hot_fault_sets`
    returns: a ranked list of fault sets, each a list of ``(u, v)`` edges.
    """
    encoded = [[[edge[0], edge[1]] for edge in fault_set]
               for fault_set in fault_sets]
    payload = {"version": HOT_KEYS_FORMAT_VERSION, "fault_sets": encoded}
    write_file_atomically(path, json.dumps(payload, sort_keys=True).encode())
    return len(encoded)


def load_hot_fault_sets(path: "str | os.PathLike[str]") -> list:
    """Load persisted fault sets; fail-soft — any problem yields ``[]``.

    Edges come back as tuples (what ``prewarm_sessions`` and the oracles
    take); a payload that is not exactly the expected shape is rejected
    wholesale rather than partially trusted.
    """
    try:
        raw = Path(path).read_text()
    except OSError:
        return []
    try:
        payload = json.loads(raw)
    except ValueError:
        return []
    if not isinstance(payload, dict) or \
            payload.get("version") != HOT_KEYS_FORMAT_VERSION:
        return []
    stored = payload.get("fault_sets")
    if not isinstance(stored, list):
        return []
    fault_sets: list = []
    for fault_set in stored:
        if not isinstance(fault_set, list):
            return []
        edges: list = []
        for edge in fault_set:
            if not isinstance(edge, list) or len(edge) != 2:
                return []
            edges.append((edge[0], edge[1]))
        fault_sets.append(edges)
    return fault_sets


__all__ = ["HOT_KEYS_SUFFIX", "HOT_KEYS_FORMAT_VERSION", "hot_keys_path",
           "save_hot_fault_sets", "load_hot_fault_sets"]
