"""``repro.pool``: the multi-process serving tier over an mmap-backed snapshot.

Two pieces that turn one snapshot artifact into multi-core capacity:

* :func:`~repro.pool.frontend.run_pooled_server` — ``repro serve --workers
  N``: a fleet of ordinary query servers sharing one listening port via
  ``SO_REUSEPORT``, each with its own ``/metrics`` sidecar.
* :mod:`~repro.pool.prewarm` — hot fault-set persistence beside the
  snapshot, so restarted servers (single or fleet) warm their session caches
  before the first client connects.
"""

from repro.pool.frontend import print_announce, run_pooled_server
from repro.pool.prewarm import (
    HOT_KEYS_FORMAT_VERSION,
    HOT_KEYS_SUFFIX,
    hot_keys_path,
    load_hot_fault_sets,
    save_hot_fault_sets,
)

__all__ = [
    "run_pooled_server",
    "print_announce",
    "hot_keys_path",
    "save_hot_fault_sets",
    "load_hot_fault_sets",
    "HOT_KEYS_SUFFIX",
    "HOT_KEYS_FORMAT_VERSION",
]
