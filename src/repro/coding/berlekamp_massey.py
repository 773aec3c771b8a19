"""Berlekamp--Massey algorithm over GF(2^w).

Given the power-sum syndromes ``s_1, ..., s_{2k}`` of an unknown support
``{x_1, ..., x_t}`` with ``t <= k``, Berlekamp--Massey computes the minimal
linear-feedback shift register generating the sequence, which is the
error-locator polynomial

    Lambda(z) = prod_i (1 - x_i z) = 1 + lambda_1 z + ... + lambda_t z^t.

Its reciprocal roots are exactly the support elements; they are extracted by
the deterministic root finder in :mod:`repro.coding.rootfind`.

:func:`berlekamp_massey` runs one sequence; :func:`berlekamp_massey_many`,
which a decode round calls on its syndrome prefixes, runs it on each.
"""

from __future__ import annotations

from typing import Sequence

from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly


def berlekamp_massey(field: GF2m, syndromes: Sequence[int]) -> Gf2Poly:
    """Return the minimal connection polynomial of a syndrome sequence.

    Parameters
    ----------
    field:
        The field the syndromes live in.
    syndromes:
        The sequence ``s_1, ..., s_n`` (power sums, 1-indexed in the paper's
        notation; passed here as a plain 0-indexed list).

    Returns
    -------
    Gf2Poly
        The connection polynomial ``Lambda(z)`` with ``Lambda(0) = 1``.  Its
        degree equals the linear complexity of the sequence, i.e. the number
        of support elements when the syndromes come from a sparse support
        within the decoding radius.
    """
    # Coefficients of the current and previous connection polynomials.
    current = [1]
    previous = [1]
    length = 0              # current LFSR length
    shift = 1               # number of steps since `previous` was updated
    previous_discrepancy = 1

    for index, syndrome in enumerate(syndromes):
        # Compute the discrepancy: s_index + sum_{i=1..length} c_i * s_{index-i}.
        discrepancy = syndrome
        for i in range(1, length + 1):
            if i < len(current) and current[i] != 0 and index - i >= 0:
                discrepancy ^= field.mul(current[i], syndromes[index - i])
        if discrepancy == 0:
            shift += 1
            continue
        if 2 * length <= index:
            # The LFSR is too short; lengthen it.
            saved = list(current)
            current = _update(field, current, previous, discrepancy,
                              previous_discrepancy, shift)
            previous = saved
            previous_discrepancy = discrepancy
            length = index + 1 - length
            shift = 1
        else:
            current = _update(field, current, previous, discrepancy,
                              previous_discrepancy, shift)
            shift += 1

    return Gf2Poly(field, current)


def _update(field: GF2m, current: list[int], previous: list[int],
            discrepancy: int, previous_discrepancy: int, shift: int) -> list[int]:
    """Return ``current - (d/d_prev) * z^shift * previous`` as a coefficient list."""
    factor = field.mul(discrepancy, field.inv(previous_discrepancy))
    size = max(len(current), len(previous) + shift)
    updated = list(current) + [0] * (size - len(current))
    for index, coefficient in enumerate(previous):
        if coefficient == 0:
            continue
        updated[index + shift] ^= field.mul(factor, coefficient)
    return updated


def berlekamp_massey_many(field: GF2m, sequences: Sequence[Sequence[int]]) -> list[Gf2Poly]:
    """Connection polynomials of many syndrome sequences (one decode round's
    prefixes), one :func:`berlekamp_massey` run each."""
    return [berlekamp_massey(field, sequence) for sequence in sequences]
