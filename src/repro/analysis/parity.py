"""The bulk/scalar parity registry: every scalar decode op and its bulk twin.

Every scalar primitive of the decode/query path (``syndrome_of``,
``berlekamp_massey``, ``find_roots``, ``decode``...) has a ``*_many``
counterpart that returns, element for element, what the scalar one computes.
Each pair keeps one body: ``berlekamp_massey_many`` and ``find_roots_many``
loop over their scalar twins, and ``syndrome_of`` and the ``decode`` methods
are one-element batches of their ``*_many`` twins.  The pairing only survives
if it is *declared* somewhere machine-readable — this table — and consumed
from both sides:

* The linter's RPL005 rule checks the table against the AST of
  ``repro.coding`` / ``repro.outdetect``: a public ``*_many`` definition that
  is not registered here fails lint, as does a registered pair whose scalar
  or bulk member no longer exists in the source.
* ``tests/test_coding_batch.py`` imports :data:`PARITY_TABLE` and resolves
  every pair at runtime, so an entry that lints clean but does not import
  fails the tier-1 suite.

Adding a new bulk primitive therefore takes three steps, and forgetting any
one of them fails CI: implement ``X`` and ``X_many``, one as a call into the
other, register the pair here, and extend the conformance tests to drive it.

The naming convention the discovery side of RPL005 enforces: bulk twins are
named ``<scalar>_many`` (extra aliases may be registered on top, but do not
satisfy the convention by themselves).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, cast


@dataclass(frozen=True)
class ParityPair:
    """One scalar primitive paired with its registered bulk counterpart.

    ``scalar`` and ``bulk`` are qualified names within ``module``: a bare
    function name (``berlekamp_massey``) or ``Class.method``
    (``SyndromeEncoder.syndrome_of``).
    """

    module: str
    scalar: str
    bulk: str

    def resolve(self) -> tuple[Callable, Callable]:
        """Import the module and return ``(scalar, bulk)`` callables.

        Raises :class:`AttributeError` / :class:`ImportError` when the table
        has drifted from the code — exactly what the consuming test asserts
        never happens.
        """
        return (_resolve_qualname(self.module, self.scalar),
                _resolve_qualname(self.module, self.bulk))


def _resolve_qualname(module_name: str, qualname: str) -> Callable:
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return cast(Callable, obj)


#: Every scalar decode primitive of the coding/outdetect layers and its bulk
#: twin.  Order is presentation order (module, then pipeline order).
PARITY_TABLE: tuple[ParityPair, ...] = (
    ParityPair("repro.coding.syndrome",
               "SyndromeEncoder.encode", "SyndromeEncoder.encode_many"),
    ParityPair("repro.coding.syndrome",
               "SyndromeEncoder.syndrome_of", "SyndromeEncoder.syndrome_of_many"),
    ParityPair("repro.coding.berlekamp_massey",
               "berlekamp_massey", "berlekamp_massey_many"),
    ParityPair("repro.coding.rootfind", "find_roots", "find_roots_many"),
    ParityPair("repro.coding.rs_decoder",
               "SparseRecoveryDecoder.decode", "SparseRecoveryDecoder.decode_many"),
    ParityPair("repro.outdetect.base",
               "OutdetectScheme.decode", "OutdetectScheme.decode_many"),
    ParityPair("repro.outdetect.rs_threshold",
               "RSThresholdOutdetect.decode", "RSThresholdOutdetect.decode_many"),
    ParityPair("repro.outdetect.layered",
               "LayeredOutdetect.decode", "LayeredOutdetect.decode_many"),
)


def registered_bulk_names() -> dict[tuple[str, str], ParityPair]:
    """``(module, bulk qualname) -> pair`` lookup for the RPL005 rule."""
    return {(pair.module, pair.bulk): pair for pair in PARITY_TABLE}


def pairs_for_module(module_name: str) -> list[ParityPair]:
    """All registered pairs declared to live in ``module_name``."""
    return [pair for pair in PARITY_TABLE if pair.module == module_name]


__all__ = ["ParityPair", "PARITY_TABLE", "registered_bulk_names",
           "pairs_for_module"]
