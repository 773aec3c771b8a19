"""Finite fields of characteristic two and polynomials over them.

This subpackage is the lowest-level substrate of the reproduction.  The
deterministic outgoing-edge detection of the paper (Section 4.2 and 7.4) is
built on syndrome decoding of a Reed--Solomon-style code over a finite field
of characteristic two; everything in :mod:`repro.coding` is expressed in terms
of the primitives defined here.

Public API
----------
``GF2m``
    A finite field GF(2^w) represented by an irreducible polynomial.
``Gf2Poly``
    Dense polynomials with coefficients in a ``GF2m`` field.
``find_irreducible`` / ``is_irreducible``
    Deterministic irreducible-polynomial machinery used to build fields of an
    arbitrary word size.
``BulkOps`` / ``get_bulk_ops``
    Pluggable bulk (vectorized) backends — a pure-Python table-driven
    implementation and an optional numpy bit-sliced label build — used by
    the outdetect layer to compute many consecutive-power rows in one shot
    and hand out labels as packed words (``pack_lanes`` / ``unpack_lanes``).
"""

from repro.gf2.field import GF2m, FixedMultiplier
from repro.gf2.irreducible import find_irreducible, is_irreducible, DEFAULT_IRREDUCIBLES
from repro.gf2.poly import Gf2Poly
from repro.gf2.bulk import (BackendUnavailable, BulkOps, NumpyBulkOps, PyBulkOps,
                            available_backends, get_bulk_ops, numpy_available)

__all__ = [
    "GF2m",
    "FixedMultiplier",
    "Gf2Poly",
    "find_irreducible",
    "is_irreducible",
    "DEFAULT_IRREDUCIBLES",
    "BulkOps",
    "PyBulkOps",
    "NumpyBulkOps",
    "BackendUnavailable",
    "available_backends",
    "get_bulk_ops",
    "numpy_available",
]
