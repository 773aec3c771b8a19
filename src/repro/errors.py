"""The shared oracle error hierarchy.

Every transport of the oracle contract (:mod:`repro.api`) signals failures
through one tree rooted at :class:`OracleError`, so callers programming
against the protocol catch one base class regardless of whether the labels
live in process, came from a snapshot, or sit behind a TCP server:

* :class:`OracleError` — base of every oracle-level failure.
* :class:`TransportError` — the transport itself failed (connection refused,
  connection dropped mid-request, garbage on the wire, use after ``close()``).
* :class:`OracleClosedError` — the specific "use after ``close()``" case.
  Every transport that releases resources on ``close()`` (snapshot-backed,
  remote) raises it — or its :class:`TransportError` base — when a query
  arrives after the oracle was closed.
* :class:`~repro.core.query.QueryFailure` — a query could not be answered
  reliably (randomized sketch labels, heuristic thresholds); subclasses
  :class:`OracleError`.

Two builtin types deliberately stay builtin across all transports, because
callers and a decade of tests match on them: unknown vertices/edges raise
:class:`KeyError` and over-budget fault sets raise :class:`ValueError`.  The
remote transport maps the server's structured error codes onto subclasses
that inherit from *both* the builtin type and :class:`OracleError` (see
``Remote*`` in :mod:`repro.api`), so either idiom works.

This module is import-free on purpose: it sits below :mod:`repro.core` and
:mod:`repro.server` so both can share the hierarchy without cycles.
"""

from __future__ import annotations


class OracleError(Exception):
    """Base class of every oracle-level failure, across all transports."""


class TransportError(OracleError):
    """The transport failed: cannot connect, connection lost, or protocol
    garbage — as opposed to a well-formed answer that reports a query error."""


class OracleClosedError(TransportError):
    """A query reached an oracle after its ``close()`` released resources.

    Subclasses :class:`TransportError` so existing ``except TransportError``
    call sites (written against the remote transport's post-close behavior)
    keep working unchanged across every transport.
    """


class DeltaError(OracleError):
    """An ``FTCS-D`` delta artifact cannot be produced or applied.

    Raised by :mod:`repro.delta` when a delta is malformed, was built against
    a different base snapshot than the one it is being applied to, or when
    applying it does not reproduce the recorded target digest.  Every delta
    failure is fail-closed: either the reconstructed snapshot is byte-for-byte
    the recorded target, or this error is raised and nothing is written.
    """


__all__ = ["OracleError", "TransportError", "OracleClosedError", "DeltaError"]
