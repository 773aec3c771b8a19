"""k-threshold sparse recovery from power-sum syndromes (Proposition 2).

The decoder receives the XOR of vertex labels over a vertex set S — which
equals the syndrome ``(s_1, ..., s_{2k})`` of the outgoing edge set — and
recovers the edge identifiers, provided at most ``k`` edges are outgoing.

Beyond the paper's statement the implementation adds *failure detection*:
the recovered support is re-encoded and compared against the input syndrome,
and the number of recovered roots must match the locator degree.  When the
sparsity promise ``|∂(S)| <= k`` is violated the paper allows an arbitrary
answer; the decoder instead raises :class:`DecodeFailure` in the vast majority
of such cases, which the layered scheme uses for defensive checks and which
the PRACTICAL (heuristic-constant) hierarchy preset relies on.

Adaptive decoding (Appendix B / Proposition 6): because prefixes of
Reed--Solomon syndromes are themselves valid lower-threshold syndromes, the
decoder can first try a short prefix and only fall back to longer ones,
yielding a decoding time that depends on the actual support size rather than
on the worst-case threshold ``k``.  A round before the last first checks that
its locator also generates the first syndrome component the round has not
seen; a locator that does not cannot lead to a success, so the syndrome moves
on to the next budget without root finding.

One path: :meth:`SparseRecoveryDecoder.decode_many_deferred` climbs the
ladder for a whole batch of syndromes, each round taking every pending
syndrome through prefix BM, root finding and re-encode verification together.
:meth:`~SparseRecoveryDecoder.decode` and
:meth:`~SparseRecoveryDecoder.decode_adaptive` decode a batch of one.
"""

from __future__ import annotations

from typing import Sequence

from repro.coding.berlekamp_massey import berlekamp_massey_many
from repro.coding.rootfind import find_roots_many
from repro.coding.syndrome import SyndromeEncoder
from repro.gf2.bulk import BulkOps, get_bulk_ops
from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly


class DecodeFailure(Exception):
    """Raised when a syndrome is inconsistent with any support of size <= k."""


class SparseRecoveryDecoder:
    """Recovers sparse supports from power-sum syndromes over GF(2^w)."""

    __slots__ = ("field", "threshold", "bulk", "_encoder")

    def __init__(self, field: GF2m, threshold: int, bulk: BulkOps | None = None):
        self.field = field
        self.threshold = threshold
        self.bulk = bulk if bulk is not None else get_bulk_ops(field)
        self._encoder = SyndromeEncoder(field, threshold, bulk=self.bulk)

    # ----------------------------------------------------------------- decode

    def decode(self, syndrome: Sequence[int]) -> list[int]:
        """Recover the support from a full ``2k``-component syndrome.

        Returns the sorted list of support elements; the empty list means the
        support is empty (the paper's "formal zero").  Raises
        :class:`DecodeFailure` when the syndrome is detectably inconsistent.
        """
        return self.decode_many([syndrome])[0]

    def decode_adaptive(self, syndrome: Sequence[int]) -> list[int]:
        """Adaptive decoding: geometrically growing prefixes (Appendix B).

        The cost of a successful decode is quadratic in the actual support
        size rather than in the threshold ``k``.  Verification is always done
        against the *full* syndrome, so a successful adaptive decode is as
        trustworthy as a full decode.
        """
        return self.decode_many([syndrome], adaptive=True)[0]

    # ---------------------------------------------------------------- batched

    def decode_many(self, syndromes: Sequence[Sequence[int]],
                    adaptive: bool = False) -> list[list[int]]:
        """Decode many syndromes at once; raises the first failed entry's
        :class:`DecodeFailure`."""
        results = self.decode_many_deferred(syndromes, adaptive=adaptive)
        for entry in results:
            if isinstance(entry, DecodeFailure):
                raise entry
        return results

    def decode_many_deferred(self, syndromes: Sequence[Sequence[int]],
                             adaptive: bool = False
                             ) -> list[list[int] | DecodeFailure]:
        """Decode many syndromes, returning failures instead of raising them.

        Each result entry is either the sorted support (``list[int]``) or the
        :class:`DecodeFailure` of the syndrome's final round.  Raises
        ``ValueError`` when a syndrome does not have ``2k`` components.
        Deferred failures let callers that decode lazily — the merge forest
        in :class:`repro.core.batch.BatchQuerySession` only surfaces a
        failure when the failing component is actually *used* — keep their
        failure semantics while still decoding eagerly in bulk.
        """
        syndromes = [list(syndrome) for syndrome in syndromes]
        expected = 2 * self.threshold
        for syndrome in syndromes:
            if len(syndrome) != expected:
                raise ValueError("syndrome has %d components, expected %d"
                                 % (len(syndrome), expected))
        results: list[list[int] | DecodeFailure | None] = [None] * len(syndromes)
        pending: list[int] = []
        for index, syndrome in enumerate(syndromes):
            if all(component == 0 for component in syndrome):
                results[index] = []
            else:
                pending.append(index)
        if adaptive:
            budgets = []
            budget = 1
            while True:
                budgets.append(budget)
                if budget == self.threshold:
                    break
                budget = min(budget * 2, self.threshold)
        else:
            budgets = [self.threshold]
        for budget in budgets:
            if not pending:
                break
            pending = self._decode_round(syndromes, results, pending, budget,
                                         final_round=budget == self.threshold)
        return results  # type: ignore[return-value]

    def _decode_round(self, syndromes: list[list[int]],
                      results: list[list[int] | DecodeFailure | None],
                      pending: list[int], budget: int,
                      final_round: bool) -> list[int]:
        """Advance every pending syndrome through one budget of the ladder.

        Successes and (in the final round) failures are written into
        ``results``; the returned list holds the indices that should retry at
        the next larger budget.
        """
        retry: list[int] = []

        def fail(index: int, message: str) -> None:
            if final_round:
                results[index] = DecodeFailure(message)
            else:
                retry.append(index)

        prefixes = [syndromes[index][:2 * budget] for index in pending]
        locators = berlekamp_massey_many(self.field, prefixes)
        rooted: list[int] = []
        rooted_locators = []
        for index, locator in zip(pending, locators):
            degree = locator.degree
            if degree <= 0 or degree > budget:
                fail(index, "locator degree %d outside (0, %d]" % (degree, budget))
            elif not final_round and self._unseen_discrepancy(
                    syndromes[index], locator, budget):
                retry.append(index)
            else:
                rooted.append(index)
                rooted_locators.append(locator)
        roots_many = find_roots_many(rooted_locators)
        candidates: list[int] = []
        supports: list[list[int]] = []
        for index, locator, roots in zip(rooted, rooted_locators, roots_many):
            degree = locator.degree
            if len(roots) != degree or any(root == 0 for root in roots):
                fail(index, "locator of degree %d has %d usable roots"
                     % (degree, len(roots)))
                continue
            support = sorted(self.field.inv(root) for root in roots)
            if len(set(support)) != len(support):
                fail(index, "recovered support contains duplicates")
                continue
            candidates.append(index)
            supports.append(support)
        if candidates:
            # Verification is always against the full syndrome, batched into
            # one syndrome_of_many call.
            recomputed = self._encoder.syndrome_of_many(supports)
            for index, support, verification in zip(candidates, supports, recomputed):
                if syndromes[index] != verification:
                    fail(index, "recovered support does not reproduce the syndrome")
                else:
                    results[index] = support
        return retry

    # ---------------------------------------------------------------- helpers

    def _unseen_discrepancy(self, syndrome: Sequence[int], locator: Gf2Poly,
                            budget: int) -> int:
        """Berlekamp--Massey's discrepancy on ``syndrome[2 * budget]``, the
        first component a round of ``budget`` has not seen.

        A round that succeeds recovers a support B of ``locator.degree <=
        budget`` elements whose power sums are the whole syndrome, and its
        locator is prod_{b in B} (1 - b z); by Newton's identities that
        locator generates every component past its degree.  So a non-zero
        discrepancy means the round would fail, and a round before the last
        moves the syndrome on to the next budget without root finding or
        verification.
        """
        position = 2 * budget
        discrepancy = syndrome[position]
        for offset, coefficient in enumerate(locator.coeffs[1:], 1):
            if coefficient:
                discrepancy ^= self.field.mul(coefficient, syndrome[position - offset])
        return discrepancy
