"""Conformance tests for the batched decode primitives.

Each scalar/batched pair of the decode pipeline keeps one body, and the other
member calls into it, so comparing the two members would pass by
construction.  These tests check each primitive against independent truth
instead — power sums from field arithmetic, the locator prod(1 - x z) and the
roots of a known support, the support a syndrome came from — across
:class:`~repro.gf2.bulk.BulkOps` backends and field widths, including which
failure each undecodable entry raises.  The batch session and the outdetect
schemes route all decoding through these functions.
"""

from __future__ import annotations

import random
import re

import pytest

from repro.coding import rs_decoder
from repro.coding.berlekamp_massey import berlekamp_massey_many
from repro.coding.rootfind import chien_roots, find_roots, find_roots_many
from repro.coding.rs_decoder import DecodeFailure, SparseRecoveryDecoder
from repro.coding.syndrome import SyndromeEncoder
from repro.gf2.bulk import NumpyBulkOps, PyBulkOps, numpy_available
from repro.gf2.field import GF2m
from repro.gf2.poly import Gf2Poly

WIDTHS = [8, 12, 16]
THRESHOLD = 5

#: The failures a syndrome's final decode round can end in.
FINAL_ROUND_FAILURES = [re.compile(pattern) for pattern in (
    r"locator degree \d+ outside \(0, %d\]" % THRESHOLD,
    r"locator of degree \d+ has \d+ usable roots",
    r"recovered support contains duplicates",
    r"recovered support does not reproduce the syndrome")]


def _backends(field):
    backends = [PyBulkOps(field)]
    if numpy_available() and field.width <= 32:
        # small_cutoff=0 forces the numpy kernels even on tiny batches.
        backends.append(NumpyBulkOps(field, small_cutoff=0))
    return backends


def _cases(field):
    for bulk in _backends(field):
        yield field, bulk


def all_cases():
    for width in WIDTHS:
        field = GF2m(width)
        yield from _cases(field)


CASES = list(all_cases())
CASE_IDS = ["w%d-%s" % (field.width, bulk.name) for field, bulk in CASES]


def _random_supports(field, rng, count, max_size):
    return [rng.sample(range(1, field.order), rng.randrange(0, max_size + 1))
            for _ in range(count)]


def _locator(field, support):
    """The locator prod(1 - x z) over ``support``, whose roots are the
    inverses of the support."""
    poly = Gf2Poly.one(field)
    for element in support:
        poly = poly * Gf2Poly(field, [1, element])
    return poly


def _power_sums(field, support, length):
    """``s_j = sum of x^j`` over ``support`` for ``j = 1..length``, one
    ``field.pow`` per term."""
    sums = [0] * length
    for element in support:
        for exponent in range(1, length + 1):
            sums[exponent - 1] ^= field.pow(element, exponent)
    return sums


def _linear_complexity(field, sequence):
    """The length of the shortest LFSR generating ``sequence``: the least
    ``L`` for which ``s_n = sum_{i=1..L} c_i s_{n-i}`` (``n = L..N-1``) is
    solvable, by Gaussian elimination on the augmented system."""
    for length in range(len(sequence) + 1):
        rows = [[sequence[n - i] for i in range(1, length + 1)] + [sequence[n]]
                for n in range(length, len(sequence))]
        rank = 0
        consistent = True
        for column in range(length + 1):
            pivot = next((r for r in range(rank, len(rows)) if rows[r][column]), None)
            if pivot is None:
                continue
            if column == length:
                consistent = False  # a row reads 0 = nonzero
                break
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            factor = field.inv(rows[rank][column])
            rows[rank] = [field.mul(factor, value) for value in rows[rank]]
            for r in range(len(rows)):
                if r != rank and rows[r][column]:
                    scale = rows[r][column]
                    rows[r] = [value ^ field.mul(scale, top)
                               for value, top in zip(rows[r], rows[rank])]
            rank += 1
        if consistent:
            return length
    raise AssertionError("unreachable: the empty system is always solvable")


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_syndrome_of_many_matches_scalar(field, bulk):
    """Every syndrome equals the power sums of its support by scalar field
    arithmetic."""
    rng = random.Random(field.width * 101 + len(bulk.name))
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    supports = _random_supports(field, rng, 40, 2 * THRESHOLD)
    supports.append([])  # the empty support must round-trip to the zero syndrome
    batched = encoder.syndrome_of_many(supports)
    assert batched == [_power_sums(field, support, 2 * THRESHOLD)
                       for support in supports]
    assert batched[-1] == encoder.zero()
    assert encoder.syndrome_of_many([]) == []


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_berlekamp_massey_many_matches_scalar(field, bulk):
    """A syndrome prefix of at least 2t components of a t-element support
    has the locator prod(1 - x z) over the support; prefixes of mixed
    lengths share one batch."""
    rng = random.Random(field.width * 103 + len(bulk.name))
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    supports = _random_supports(field, rng, 40, THRESHOLD)
    sequences = [syndrome[:rng.randrange(2 * len(support), 2 * THRESHOLD + 1)]
                 for support, syndrome in zip(supports,
                                              encoder.syndrome_of_many(supports))]
    assert len({len(sequence) for sequence in sequences}) > 1
    supports.append([])  # the empty sequence has the constant-1 locator
    sequences.append([])
    for support, locator in zip(supports, berlekamp_massey_many(field, sequences)):
        assert locator.coeffs == _locator(field, support).coeffs, support
    assert berlekamp_massey_many(field, []) == []


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_mixed_length_sequences_match_scalar(field, bulk):
    """Every sequence of a mixed-length batch gets a minimal LFSR of its own:
    a connection polynomial with constant term 1, of degree at most the
    sequence's linear complexity L, that generates the sequence at length L.
    The batch mixes random sequences with syndrome prefixes too short to pin
    their support."""
    rng = random.Random(field.width * 107 + len(bulk.name))
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    lengths = (1, 3, 10, 2, 7, 10, 4)
    sequences = [[rng.randrange(field.order) for _ in range(length)]
                 for length in lengths]
    supports = [rng.sample(range(1, field.order), 2 * THRESHOLD) for _ in lengths]
    sequences += [syndrome[:length] for syndrome, length
                  in zip(encoder.syndrome_of_many(supports), lengths)]
    for sequence, locator in zip(sequences, berlekamp_massey_many(field, sequences)):
        complexity = _linear_complexity(field, sequence)
        coeffs = list(locator.coeffs) + [0] * (complexity + 1 - len(locator.coeffs))
        assert coeffs[0] == 1 and locator.degree <= complexity, (sequence, coeffs)
        for n in range(complexity, len(sequence)):
            feedback = 0
            for i in range(complexity + 1):
                feedback ^= field.mul(coeffs[i], sequence[n - i])
            assert feedback == 0, (sequence, coeffs, n)


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
def test_root_finding_strategies_agree(field, bulk):
    rng = random.Random(field.width * 109 + len(bulk.name))
    polys = []
    for _ in range(15):
        # Products of random linear factors (all roots in the field) plus
        # random dense polynomials (roots mostly outside the field).
        support = rng.sample(range(1, field.order), rng.randrange(1, 6))
        poly = _locator(field, support)
        assert find_roots(poly) == sorted(field.inv(element) for element in support)
        polys.append(poly)
        polys.append(Gf2Poly(field, [rng.randrange(field.order)
                                     for _ in range(rng.randrange(2, 6))]))
    polys = [poly for poly in polys if not poly.is_zero()]
    reference = [find_roots(poly) for poly in polys]
    assert find_roots_many(polys) == reference
    for poly, expected in zip(polys, reference):
        # The exhaustive Chien sweep is O(order * degree); spot-check it on
        # the small fields only.
        if poly.degree > 0 and field.order <= (1 << 12):
            assert chien_roots(poly, bulk) == expected


@pytest.mark.parametrize("field,bulk", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("adaptive", [False, True])
def test_decode_many_matches_scalar_decoder(field, bulk, adaptive):
    """A support within the threshold decodes to itself, and any other
    success has at most k elements and reproduces its syndrome.  A failure
    is one of the final round's, and the scalar entry point raises it too."""
    rng = random.Random(field.width * 113 + adaptive)
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=bulk)
    decoder = SparseRecoveryDecoder(field, THRESHOLD, bulk=bulk)
    scalar = decoder.decode_adaptive if adaptive else decoder.decode
    # Supports beyond the threshold make some syndromes undecodable.
    supports = _random_supports(field, rng, 40, THRESHOLD + 2)
    syndromes = encoder.syndrome_of_many(supports)
    # So does a scaled row c * g(x), c != 1: its locator 1 + x z splits, but
    # the support [x] does not reproduce it.
    scaled = []
    for _ in range(3):
        scale = rng.randrange(2, field.order)
        scaled.append([field.mul(scale, power)
                       for power in encoder.encode(rng.randrange(1, field.order))])
    entries = decoder.decode_many_deferred(syndromes + scaled, adaptive=adaptive)
    for entry in entries[len(syndromes):]:
        assert str(entry) == "recovered support does not reproduce the syndrome"
    failures = 0
    for support, syndrome, entry in zip(supports + [None] * len(scaled),
                                        syndromes + scaled, entries):
        if support is not None and len(support) <= THRESHOLD:
            assert entry == sorted(support)
        if isinstance(entry, DecodeFailure):
            failures += 1
            assert any(pattern.fullmatch(str(entry))
                       for pattern in FINAL_ROUND_FAILURES), str(entry)
            with pytest.raises(DecodeFailure) as raised:
                scalar(syndrome)
            assert str(raised.value) == str(entry)
        else:
            assert len(entry) <= THRESHOLD
            assert _power_sums(field, entry, 2 * THRESHOLD) == syndrome
    assert failures > len(scaled)
    with pytest.raises(DecodeFailure):
        decoder.decode_many(syndromes, adaptive=adaptive)


@pytest.mark.parametrize("batched", [False, True])
def test_wrong_ladder_guesses_stop_before_root_finding(monkeypatch, batched):
    """A round before the last whose locator does not generate the first
    syndrome component the round has not seen moves on to the next budget
    without root finding, through both entry points: on supports within the
    threshold, the one locator that reaches the root finder is the true one."""
    field = GF2m(16)
    threshold = 8
    rng = random.Random(131)
    encoder = SyndromeEncoder(field, threshold, bulk=PyBulkOps(field))
    decoder = SparseRecoveryDecoder(field, threshold, bulk=PyBulkOps(field))
    rooted = []

    def record_many(polys):
        rooted.extend(poly.degree for poly in polys)
        return find_roots_many(polys)

    monkeypatch.setattr(rs_decoder, "find_roots_many", record_many)
    for size in range(1, threshold + 1):
        for _ in range(3):
            support = rng.sample(range(1, field.order), size)
            syndrome = encoder.syndrome_of(support)
            rooted.clear()
            decoded = decoder.decode_many([syndrome], adaptive=True)[0] if batched \
                else decoder.decode_adaptive(syndrome)
            assert decoded == sorted(support)
            assert rooted == [size], (size, rooted)


def test_decode_many_rejects_wrong_length():
    """Every entry point rejects a syndrome of the wrong length, the
    all-zero one too."""
    field = GF2m(8)
    decoder = SparseRecoveryDecoder(field, THRESHOLD)
    with pytest.raises(ValueError):
        decoder.decode_many_deferred([[0] * (2 * THRESHOLD - 1)])
    for short in ([0, 0, 0], [1, 0, 0]):
        for entry_point in (decoder.decode, decoder.decode_adaptive):
            with pytest.raises(ValueError):
                entry_point(short)


@pytest.mark.parametrize("width", WIDTHS)
def test_backends_agree_on_decode_many(width):
    """Pure-Python and numpy backends produce bit-identical batched decodes."""
    if not numpy_available():
        pytest.skip("numpy backend not available")
    field = GF2m(width)
    rng = random.Random(width * 127)
    encoder = SyndromeEncoder(field, THRESHOLD, bulk=PyBulkOps(field))
    supports = _random_supports(field, rng, 25, THRESHOLD + 2)
    syndromes = encoder.syndrome_of_many(supports)
    results = []
    for bulk in _backends(field):
        decoder = SparseRecoveryDecoder(field, THRESHOLD, bulk=bulk)
        entries = decoder.decode_many_deferred(syndromes, adaptive=True)
        results.append([str(entry) if isinstance(entry, DecodeFailure) else entry
                        for entry in entries])
    assert all(result == results[0] for result in results[1:])


# ------------------------------------------------- bulk/scalar parity table

def test_parity_table_resolves_every_registered_pair():
    """Every (scalar, bulk) pair in the declarative registry imports and
    resolves to callables — the runtime half of the RPL005 lint rule: an
    entry that lints clean but no longer exists in the code fails here."""
    from repro.analysis.parity import PARITY_TABLE

    assert PARITY_TABLE, "the parity registry must never be empty"
    for pair in PARITY_TABLE:
        scalar, bulk = pair.resolve()
        assert callable(scalar) and callable(bulk), pair


def test_parity_table_matches_discovered_bulk_ops():
    """The registry and the AST agree exactly: every public ``*_many`` def in
    repro.coding / repro.outdetect is registered, and every registered
    ``*_many`` member is discovered — neither side can drift alone."""
    import ast as ast_module
    from pathlib import Path

    from repro.analysis.parity import registered_bulk_names

    import repro.coding
    import repro.outdetect

    discovered = set()
    for package in (repro.coding, repro.outdetect):
        for path in sorted(Path(package.__file__).parent.glob("*.py")):
            module_name = "%s.%s" % (package.__name__, path.stem) \
                if path.stem != "__init__" else package.__name__
            tree = ast_module.parse(path.read_text())
            for node in tree.body:
                scope = [(node.name, node)] if isinstance(
                    node, (ast_module.FunctionDef,
                           ast_module.AsyncFunctionDef)) else []
                if isinstance(node, ast_module.ClassDef):
                    scope = [("%s.%s" % (node.name, method.name), method)
                             for method in node.body
                             if isinstance(method, (ast_module.FunctionDef,
                                                    ast_module.AsyncFunctionDef))]
                for qualname, _ in scope:
                    terminal = qualname.rsplit(".", 1)[-1]
                    if terminal.endswith("_many") and \
                            not terminal.startswith("_"):
                        discovered.add((module_name, qualname))

    registered = {(pair.module, bulk_name)
                  for (pair_module, bulk_name), pair
                  in registered_bulk_names().items()
                  for pair_module in [pair.module]
                  if bulk_name.rsplit(".", 1)[-1].endswith("_many")}
    assert discovered == registered, \
        "unregistered: %s / stale: %s" % (sorted(discovered - registered),
                                          sorted(registered - discovered))


def test_parity_pairs_agree_on_a_shared_workload():
    """Spot-check through the registry itself: both members of the rootfind
    pair, resolved from the table, find the roots of known polynomials."""
    from repro.analysis.parity import PARITY_TABLE

    pair = next(p for p in PARITY_TABLE
                if p.module == "repro.coding.rootfind" and p.bulk == "find_roots_many")
    scalar, bulk = pair.resolve()
    field = GF2m(8)
    rng = random.Random(11)
    roots = [rng.sample(range(field.order), 3) for _ in range(6)]
    polys = [Gf2Poly.from_roots(field, chosen) for chosen in roots]
    expected = [sorted(chosen) for chosen in roots]
    assert [scalar(poly) for poly in polys] == expected
    assert bulk(polys) == expected
