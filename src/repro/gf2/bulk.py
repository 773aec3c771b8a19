"""Bulk (vectorized) GF(2^w) arithmetic backends.

The label-construction hot path of the scheme is embarrassingly data-parallel:
every non-tree edge contributes the consecutive powers ``x_e, x_e^2, ...,
x_e^{2k}`` of its identifier (Proposition 2), and vertex labels are XOR
accumulations of those rows.  :class:`BulkOps` captures exactly that shape so
the outdetect layer can be written once and executed by interchangeable
backends:

``PyBulkOps``
    Pure Python, table-driven.  A power chain multiplies by its base through
    pre-reduced lookup tables (Shoup's tables, as in McGrew and Viega, "The
    Galois/Counter Mode of Operation", 2005), so each further power is four
    lookups and XORs.  Always available.

``NumpyBulkOps``
    Bit-sliced numpy label build: carry-less products are assembled by
    XOR-ing shifted operand arrays one multiplier bit at a time and reduced
    modulo the field polynomial with vectorized conditional XORs.  Requires
    ``numpy`` and a field width ``w <= 32`` (so degree < 2w products fit in
    ``uint64``); :func:`get_bulk_ops` falls back to the pure-Python backend
    cleanly when either precondition fails.

Both backends compute the *exact same* field arithmetic, so their outputs are
bit-identical — the cross-check tests and ``bench_batch_queries.py`` assert
this.  Backend selection can be forced with the ``REPRO_GF2_BACKEND``
environment variable (``auto`` / ``python`` / ``numpy``).

Decoding needs only scalar field arithmetic on a few rows at a time.  The
decode side calls ``pow_range_many`` and ``scatter_xor_rows`` to re-encode
recovered supports (Berlekamp--Massey and root finding multiply through
:class:`~repro.gf2.field.GF2m` itself), and those methods, like ``mul_many``
and ``pow_range``, run on the Python kernels under either backend:
:class:`NumpyBulkOps` is a :class:`PyBulkOps` that overrides only the
label-build kernels, so ``REPRO_GF2_BACKEND`` picks the build backend.  numpy
is imported on the first call that reaches an array kernel, not with this
module: whether it is installed is learnt from
:func:`importlib.util.find_spec`.  A level of the label build, every edge
times 2k, is one uint64 *label matrix* from its power rows through the shard
merge to its subtree sums (``scatter_pow_rows``, ``merge_rows``,
``subtree_xor``), and the labels come out of it as packed words.  The Python
kernels of those methods are the reference and the no-numpy path.

A *packed word* is one Python int holding a label level: value ``i`` of the
level sits in lane ``i``, the ``lane_bytes(bits)`` bytes from byte
``i * lane_bytes(bits)`` of the int's little-endian bytes, where ``bits`` is
the width of the values (the field width w of a Reed--Solomon level, so 3
bytes at w = 22; the extended identifier width of a sketch cell).  Labels
combine by int XOR, and a level is unpacked only when it is decoded.
:func:`pack_lanes` and :func:`unpack_lanes` are the one pair that reads and
writes the layout; the numpy kernels hand out the same bytes from their
matrices' byte view.

A level of fewer than :data:`SMALL_ROWS` edges is built in Python.  Python
pays for each row's product tables and for each power, numpy for each of its
log2(c) doubling passes and for each element.  Timing ``scatter_pow_rows``
with two endpoints per row at GF(2^22) on a 2-vCPU host (faster of 15
runs), the arrays won from 16 rows on chains of 904 powers, from 24 at 452
and from 48 to 64 at 16 to 166 powers, where they cost at most 2 ms more
below that.  The cutoff takes the long chains' crossover, the one that
decides a wide level.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from abc import ABC, abstractmethod
from typing import Any, Iterable, Sequence

from repro.gf2.field import GF2m

#: Environment variable that forces a backend (``auto``, ``python``, ``numpy``).
BACKEND_ENV_VAR = "REPRO_GF2_BACKEND"

#: Widest field the uint64 bit-sliced kernels support (products have degree
#: ``< 2w``, so ``2w - 1 <= 63``).
NUMPY_MAX_WIDTH = 32

#: Default ``small_cutoff`` of :class:`NumpyBulkOps`: the fewest power rows
#: from which the array kernels build a level faster than the Python ones on
#: long chains (see above).
SMALL_ROWS = 16

#: ``scatter_xor`` counts this many elements as one row, which puts its
#: default crossover at 256 elements.
LANES_PER_ROW = 16

#: A label matrix (see :meth:`BulkOps.scatter_pow_rows`): a list of int rows
#: from the Python kernels, a 2-D ``uint64`` array from the numpy ones.
Matrix = Any

#: numpy, once an array kernel has imported it (``None`` before that).
_np: Any = None

#: Set when importing numpy failed, so that it is not tried again.
_np_failed = False


def _numpy() -> Any:
    """numpy, imported on first use; ``None`` when it cannot be imported."""
    global _np, _np_failed
    if _np is None and not _np_failed:
        try:
            import numpy
        except ImportError:
            _np_failed = True
        else:
            _np = numpy
    return _np


def _product_tables(field: GF2m, value: int, bits: int) -> list[list[int]]:
    """Shoup's tables for multiplying by ``value``, ``bits`` bits per window.

    Entry ``j`` of table ``i`` is ``value * (j << i*bits)`` reduced modulo the
    field polynomial, so ``value * y`` is the XOR of one entry per window of
    ``y``.  Each table doubles in length once per bit of its window, XOR-ing
    the next doubling ``value * 2^b`` into a copy of the entries so far.
    """
    width = field.width
    top = field.order
    modulus = field.modulus
    tables = []
    doubling = value
    for low in range(0, width, bits):
        table = [0]
        for _ in range(min(bits, width - low)):
            table += [entry ^ doubling for entry in table]
            doubling <<= 1
            if doubling & top:
                doubling ^= modulus
        tables.append(table)
    return tables


class BackendUnavailable(RuntimeError):
    """Raised when an explicitly requested backend cannot run here."""


class BulkOps(ABC):
    """Vectorized bulk operations over one GF(2^w) field.

    The XOR-only operations (:meth:`scatter_xor`, :meth:`scatter_xor_rows`)
    and the label matrices also work without a field (``field=None``),
    which is what the randomized sketch scheme uses — its cell values are
    fingerprint-extended integers, not field elements.
    """

    #: Short backend identifier (``"python"`` or ``"numpy"``).
    name: str = "abstract"

    def __init__(self, field: GF2m | None = None):
        self.field = field

    def _require_field(self) -> GF2m:
        if self.field is None:
            raise ValueError("this BulkOps instance was built without a field; "
                             "only XOR operations are available")
        return self.field

    # -------------------------------------------------------------- field ops

    @abstractmethod
    def mul_many(self, elements: Sequence[int], multiplier) -> list[int]:
        """Multiply many field elements at once.

        ``multiplier`` is either a single field element (every entry of
        ``elements`` is scaled by it) or a sequence of the same length as
        ``elements`` (element-wise products).
        """

    @abstractmethod
    def pow_range(self, base: int, count: int) -> list[int]:
        """Consecutive powers ``[base, base^2, ..., base^count]``.

        This is an edge's entire outdetect contribution computed in one shot.
        """

    @abstractmethod
    def pow_range_many(self, bases: Sequence[int], count: int) -> list[list[int]]:
        """``pow_range`` for many bases: returns one row of powers per base."""

    # --------------------------------------------------------------- xor ops

    @abstractmethod
    def scatter_xor_rows(self, num_rows: int, row_len: int,
                         indices: Sequence[int],
                         rows: Sequence[Sequence[int]]) -> list[list[int]]:
        """Build a ``num_rows x row_len`` zero matrix and XOR ``rows[i]`` into
        row ``indices[i]`` for every ``i`` (duplicate indices accumulate)."""

    @abstractmethod
    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> Matrix:
        """A zero label matrix with ``values[i]`` XOR-ed into cell
        ``(row_indices[i], col_indices[i])`` for every ``i``."""

    # --------------------------------------------------------- label matrices
    #
    # The label build keeps each level's vertex labels as one label matrix:
    # a list of int rows from the Python kernels, one 2-D uint64 array from
    # the numpy ones.  Only the methods below make, combine or read one, and
    # what they hand back to callers is packed words of ``bits``-bit lanes.

    @abstractmethod
    def scatter_pow_rows(self, num_rows: int, count: int, bases: Sequence[int],
                         targets: Sequence[Sequence[int]]) -> Matrix:
        """A ``num_rows x count`` label matrix of XOR-ed power rows.

        The row ``(x, x^2, ..., x^count)`` of ``x = bases[i]`` is XOR-ed into
        row ``indices[i]`` of a zero matrix for every ``indices`` in
        ``targets``: with ``targets = (firsts, seconds)`` an edge's
        parity-check row reaches both of its endpoints (Proposition 2).
        """

    @abstractmethod
    def merge_rows(self, num_rows: int, row_len: int,
                   parts: Iterable[tuple[Sequence[int], Any]]) -> Matrix:
        """A ``num_rows x row_len`` label matrix XOR-ed together from parts.

        Each part is ``(indices, rows)``: ``rows[i]`` is XOR-ed into row
        ``indices[i]``.  ``rows`` is a label matrix or a sequence of int rows;
        a row of another length raises ``ValueError``.
        """

    @abstractmethod
    def matrix_row(self, matrix: Matrix, index: int, bits: int) -> int:
        """Row ``index`` of a label matrix, packed in ``bits``-bit lanes
        (:func:`pack_lanes`)."""

    @abstractmethod
    def subtree_xor(self, matrix: Matrix, order: Sequence[int],
                    last: Sequence[int], bits: int) -> list[int]:
        """XOR sums of the rows under every vertex of a rooted tree.

        ``order[p]`` is the matrix row of the vertex at DFS preorder position
        ``p`` and ``last[p]`` the position of the last vertex of its subtree,
        which in preorder occupies positions ``p .. last[p]``.  Entry ``p``
        of the result is the XOR of rows ``order[p], ..., order[last[p]]``,
        packed in ``bits``-bit lanes (:func:`pack_lanes`).
        """


class PyBulkOps(BulkOps):
    """Pure-Python, table-driven reference backend (always available).

    A power chain ``x, x^2, ..., x^count`` multiplies by the same ``x`` at
    every step, so :meth:`pow_range` first builds Shoup's tables for ``x``:
    the operand is cut into four windows of ``ceil(w/4)`` bits (above
    ``w = 32``, ``ceil(w/8)`` windows of at most 8 bits), and entry ``j`` of
    table ``i`` is ``x * (j << i*bits)`` already reduced modulo the field
    polynomial.  Each further power is then one lookup per window and XORs,
    with no reduction loop.  Four windows keep the tables at 256 entries in
    all up to ``w = 24``, so even a 16-power chain (the benchmark graph's
    smallest level) costs less than with the 16-entry windows of
    :class:`~repro.gf2.field.FixedMultiplier`.
    """

    name = "python"

    def mul_many(self, elements: Sequence[int], multiplier) -> list[int]:
        field = self._require_field()
        if isinstance(multiplier, int):
            if not elements:
                return []
            window = field.multiplier(multiplier)
            return [window.mul(element) for element in elements]
        if len(multiplier) != len(elements):
            raise ValueError("mul_many got %d elements but %d multipliers"
                             % (len(elements), len(multiplier)))
        return [field.mul(a, b) for a, b in zip(elements, multiplier)]

    def pow_range(self, base: int, count: int) -> list[int]:
        field = self._require_field()
        if count < 0:
            raise ValueError("count must be non-negative, got %d" % count)
        if count == 0:
            return []
        base = field.element(base)
        width = field.width
        windows = max(4, -(-width // 8))
        bits = -(-width // windows)
        tables = _product_tables(field, base, bits)
        mask = (1 << bits) - 1
        powers = [base]
        append = powers.append
        current = base
        if len(tables) <= 4:
            # A table past the field's width is [0]: its window is always 0.
            t0, t1, t2, t3 = tables + [[0]] * (4 - len(tables))
            shift2, shift3 = 2 * bits, 3 * bits
            for _ in range(count - 1):
                current = (t0[current & mask] ^ t1[current >> bits & mask]
                           ^ t2[current >> shift2 & mask] ^ t3[current >> shift3])
                append(current)
            return powers
        lanes = [(table, index * bits) for index, table in enumerate(tables)]
        for _ in range(count - 1):
            product = 0
            for table, shift in lanes:
                product ^= table[current >> shift & mask]
            current = product
            append(current)
        return powers

    def pow_range_many(self, bases: Sequence[int], count: int) -> list[list[int]]:
        return [self.pow_range(base, count) for base in bases]

    def scatter_xor_rows(self, num_rows: int, row_len: int,
                         indices: Sequence[int],
                         rows: Sequence[Sequence[int]]) -> list[list[int]]:
        return self.merge_rows(num_rows, row_len, [(indices, rows)])

    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> Matrix:
        matrix = [[0] * row_len for _ in range(num_rows)]
        for row, col, value in zip(row_indices, col_indices, values):
            matrix[row][col] ^= value
        return matrix

    def scatter_pow_rows(self, num_rows: int, count: int, bases: Sequence[int],
                         targets: Sequence[Sequence[int]]) -> Matrix:
        rows = self.pow_range_many(bases, count)
        return self.merge_rows(num_rows, count, [(indices, rows) for indices in targets])

    def merge_rows(self, num_rows: int, row_len: int,
                   parts: Iterable[tuple[Sequence[int], Any]]) -> Matrix:
        # A row's first contribution is copied, not XOR-ed into zeros.
        zero: list[int] = [0] * row_len
        matrix = [zero] * num_rows
        for indices, rows in parts:
            _check_targets(indices, rows)
            for index, row in zip(indices, rows):
                if len(row) != row_len:
                    raise ValueError("row of length %d does not fit a "
                                     "%d-wide matrix" % (len(row), row_len))
                current = matrix[index]
                matrix[index] = (list(row) if current is zero
                                 else [a ^ b for a, b in zip(current, row)])
        return [[0] * row_len if row is zero else row for row in matrix]

    def matrix_row(self, matrix: Matrix, index: int, bits: int) -> int:
        return pack_lanes(matrix[index], bits)

    def subtree_xor(self, matrix: Matrix, order: Sequence[int],
                    last: Sequence[int], bits: int) -> list[int]:
        # Fold every subtree into its root, children before parents: in
        # reverse preorder each child's sum is complete when its parent's
        # turn comes, and the children of position p start at p + 1 and
        # follow one another subtree by subtree.
        sums = [0] * len(order)
        for position in range(len(order) - 1, -1, -1):
            total = pack_lanes(matrix[order[position]], bits)
            child = position + 1
            while child <= last[position]:
                total ^= sums[child]
                child = last[child] + 1
            sums[position] = total
        return sums


class NumpyBulkOps(PyBulkOps):
    """Bit-sliced numpy label build (uint64 lanes, bit-identical to PyBulkOps).

    Only the label-build kernels have array versions: ``scatter_pow_rows``
    and ``scatter_xor`` make a label matrix, ``merge_rows``, ``matrix_row``
    and ``subtree_xor`` combine and read one.  Every other method, and so the
    whole decoder, is :class:`PyBulkOps`'s.  ``scatter_pow_rows`` reaches the
    arrays from ``small_cutoff`` power rows, ``scatter_xor`` counts
    :data:`LANES_PER_ROW` elements as a row, and the other three follow the
    form of the matrices they are given.  ``small_cutoff=0`` forces the
    arrays.  numpy itself is imported when the first call reaches one, and
    should that import fail, the call runs on the Python kernels instead.
    """

    name = "numpy"

    def __init__(self, field: GF2m | None = None, max_bits: int | None = None,
                 small_cutoff: int = SMALL_ROWS):
        if not numpy_available():
            raise BackendUnavailable("numpy is not installed")
        if field is not None and field.width > NUMPY_MAX_WIDTH:
            raise BackendUnavailable(
                "field width %d exceeds the uint64 bit-sliced limit of %d"
                % (field.width, NUMPY_MAX_WIDTH))
        if max_bits is not None and max_bits > 64:
            raise BackendUnavailable(
                "values of %d bits do not fit the uint64 XOR kernels" % max_bits)
        super().__init__(field)
        self.small_cutoff = small_cutoff

    def _arrays(self, rows: int) -> Any:
        """numpy if ``rows`` rows reach the cutoff and numpy imports, else
        ``None``."""
        return _numpy() if rows >= self.small_cutoff else None

    # ------------------------------------------------------------ primitives

    def _mul_arrays(self, a, b):
        """Element-wise carry-less product + reduction of two uint64 arrays."""
        product = _np.zeros_like(a)
        for bit in range(self.field.width):
            mask = (b >> _np.uint64(bit)) & _np.uint64(1)
            product ^= (a << _np.uint64(bit)) * mask
        return self._reduce(product)

    def _reduce(self, product):
        """Vectorized reduction of degree < 2w polynomials mod the field poly."""
        width = self.field.width
        modulus = self.field.modulus
        for degree in range(2 * width - 2, width - 1, -1):
            mask = (product >> _np.uint64(degree)) & _np.uint64(1)
            product ^= _np.uint64(modulus << (degree - width)) * mask
        return product

    def _pow_matrix(self, np: Any, bases: Sequence[int], count: int) -> Any:
        """The ``len(bases) x count`` uint64 matrix of powers (``count >= 1``).

        Column j holds x^(j+1).  Doubling: once columns [0, m) are filled,
        block [m, m+s) is block [0, s) times each row's x^m (column m-1), so
        the whole matrix takes ceil(log2 count) broadcast products.
        """
        matrix = np.empty((len(bases), count), dtype=np.uint64)
        matrix[:, 0] = bases
        filled = 1
        while filled < count:
            step = min(filled, count - filled)
            matrix[:, filled:filled + step] = self._mul_arrays(
                matrix[:, :step], matrix[:, filled - 1:filled])
            filled += step
        return matrix

    # --------------------------------------------------------------- xor ops

    def scatter_xor(self, num_rows: int, row_len: int,
                    row_indices: Sequence[int], col_indices: Sequence[int],
                    values: Sequence[int]) -> Matrix:
        np = self._arrays(len(values) // LANES_PER_ROW)
        if np is None:
            return super().scatter_xor(num_rows, row_len, row_indices,
                                       col_indices, values)
        matrix = np.zeros((num_rows, row_len), dtype=np.uint64)
        if len(values):
            rows = np.asarray(row_indices, dtype=np.intp)
            cols = np.asarray(col_indices, dtype=np.intp)
            vals = np.asarray(values, dtype=np.uint64)
            np.bitwise_xor.at(matrix, (rows, cols), vals)
        return matrix

    # --------------------------------------------------------- label matrices
    #
    # scatter_pow_rows makes an array from small_cutoff power rows up and
    # Python rows below that; the other methods work in the form of the
    # matrices they are given (merge_rows: an array if any part is one), so a
    # level stays an array from its power rows to its subtree sums and a
    # small level never loads numpy.

    def scatter_pow_rows(self, num_rows: int, count: int, bases: Sequence[int],
                         targets: Sequence[Sequence[int]]) -> Matrix:
        self._require_field()
        np = self._arrays(len(bases))
        if np is None or count <= 0 or not len(bases):
            return super().scatter_pow_rows(num_rows, count, bases, targets)
        powers = self._pow_matrix(np, bases, count)
        return self.merge_rows(num_rows, count,
                               [(indices, powers) for indices in targets])

    def merge_rows(self, num_rows: int, row_len: int,
                   parts: Iterable[tuple[Sequence[int], Any]]) -> Matrix:
        parts = list(parts)
        if not any(_is_array(rows) for _, rows in parts):
            return super().merge_rows(num_rows, row_len, parts)
        np = _numpy()
        matrix = np.zeros((num_rows, row_len), dtype=np.uint64)
        for indices, rows in parts:
            _check_targets(indices, rows)
            if not len(indices):
                continue
            block = np.asarray(rows, dtype=np.uint64)
            if block.shape[1:] != (row_len,):
                raise ValueError("rows of shape %s do not fit a %d-wide matrix"
                                 % (block.shape, row_len))
            np.bitwise_xor.at(matrix, np.asarray(indices, dtype=np.intp), block)
        return matrix

    def matrix_row(self, matrix: Matrix, index: int, bits: int) -> int:
        if not _is_array(matrix):
            return super().matrix_row(matrix, index, bits)
        return _packed_rows(matrix[index:index + 1], bits)[0]

    def subtree_xor(self, matrix: Matrix, order: Sequence[int],
                    last: Sequence[int], bits: int) -> list[int]:
        if not _is_array(matrix) or not len(order):
            return super().subtree_xor(matrix, order, last, bits)
        # One prefix-XOR scan over the rows in preorder: with
        # prefix[i] = rows[0] ^ ... ^ rows[i-1], the run p .. last[p] that
        # holds a subtree sums to prefix[last[p] + 1] ^ prefix[p].
        np = _numpy()
        rows = matrix[np.asarray(order, dtype=np.intp)]
        prefix = np.zeros((len(order) + 1, rows.shape[1]), dtype=np.uint64)
        np.bitwise_xor.accumulate(rows, axis=0, out=prefix[1:])
        return _packed_rows(prefix[np.asarray(last, dtype=np.intp) + 1] ^ prefix[:-1],
                            bits)


def lane_bytes(bits: int) -> int:
    """Bytes per lane of a packed word whose values are ``bits`` wide."""
    return max(1, -(-bits // 8))


def pack_lanes(values: Sequence[int], bits: int) -> int:
    """One packed word holding ``values``, value ``i`` in lane ``i``.

    Raises ``OverflowError`` for a value below 0 or wider than its lane.
    """
    size = lane_bytes(bits)
    return int.from_bytes(b"".join([value.to_bytes(size, "little")
                                    for value in values]), "little")


def unpack_lanes(word: int, count: int, bits: int) -> list[int]:
    """The ``count`` lane values of a packed word (inverse of
    :func:`pack_lanes`); raises ``OverflowError`` when the word does not fit
    ``count`` lanes."""
    size = lane_bytes(bits)
    data = word.to_bytes(count * size, "little")
    return [int.from_bytes(data[start:start + size], "little")
            for start in range(0, count * size, size)]


def _packed_rows(rows: Any, bits: int) -> list[int]:
    """Each row of a 2-D uint64 array as a packed word: the low
    ``lane_bytes(bits)`` bytes of every little-endian element are its lane."""
    np = _numpy()
    size = lane_bytes(bits)
    count, width = rows.shape
    data = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8).reshape(
        count, width, 8)[:, :, :size].tobytes()
    step = width * size
    return [int.from_bytes(data[start:start + step], "little")
            for start in range(0, count * step, step)] if step else [0] * count


def _is_array(matrix: Matrix) -> bool:
    """Whether a label matrix is a numpy array (else Python int rows).

    An array exists only once numpy is imported, so this imports nothing: it
    asks the numpy the array kernels imported, else the one in
    ``sys.modules`` (arrays made before any kernel ran).
    """
    numpy = _np or sys.modules.get("numpy")
    return numpy is not None and isinstance(matrix, numpy.ndarray)


def _check_targets(indices: Sequence[int], items: Sequence) -> None:
    """Raise ``ValueError`` unless there is one row index per item."""
    if len(indices) != len(items):
        raise ValueError("%d row indices for %d rows" % (len(indices), len(items)))


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed at all.

    Answered without importing numpy, from :func:`importlib.util.find_spec`
    (which also reports a numpy blocked by ``sys.modules["numpy"] = None``
    as absent).  A numpy that is found but fails to import still counts:
    the backend then runs every call on the Python kernels.
    """
    return _np is not None or importlib.util.find_spec("numpy") is not None


def available_backends(field: GF2m | None = None, max_bits: int | None = None) -> list[str]:
    """Names of the backends usable for the given field / value width."""
    names = ["python"]
    try:
        NumpyBulkOps(field, max_bits=max_bits)
    except BackendUnavailable:
        return names
    names.append("numpy")
    return names


def get_bulk_ops(field: GF2m | None = None, backend: str | None = None,
                 max_bits: int | None = None) -> BulkOps:
    """Select a bulk backend for the given field.

    Parameters
    ----------
    field:
        The GF(2^w) field, or ``None`` for XOR-only use (sketch labels).
    backend:
        ``"auto"`` (default), ``"python"``, or ``"numpy"``.  When omitted the
        ``REPRO_GF2_BACKEND`` environment variable is consulted.  ``"auto"``
        prefers numpy and falls back to pure Python when numpy is missing or
        the field is too wide; forcing ``"numpy"`` raises
        :class:`BackendUnavailable` instead of falling back.
    max_bits:
        Upper bound on the bit length of XOR-ed values (used by the sketch
        scheme, whose fingerprint-extended identifiers are not field elements).
    """
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR, "auto").strip().lower() or "auto"
    if backend == "python":
        return PyBulkOps(field)
    if backend == "numpy":
        return NumpyBulkOps(field, max_bits=max_bits)
    if backend != "auto":
        raise ValueError("unknown GF(2^w) bulk backend %r (expected auto/python/numpy)"
                         % (backend,))
    try:
        return NumpyBulkOps(field, max_bits=max_bits)
    except BackendUnavailable:
        return PyBulkOps(field)
