"""Arithmetic over the finite field GF(2^8).

This is the numeric foundation of the FEC codec.  Elements are integers in
``[0, 255]``; addition is XOR; multiplication is carried out through
logarithm/antilogarithm tables built once at import time from the primitive
polynomial ``x^8 + x^4 + x^3 + x^2 + 1`` (0x11d), the polynomial used by most
Reed–Solomon deployments.
"""

from __future__ import annotations

from typing import List, Sequence

_PRIMITIVE_POLYNOMIAL = 0x11D
_GENERATOR = 2

FIELD_SIZE = 256
"""Number of elements in GF(2^8)."""


def _build_tables() -> tuple[List[int], List[int]]:
    exp = [0] * (FIELD_SIZE * 2)
    log = [0] * FIELD_SIZE
    value = 1
    for power in range(FIELD_SIZE - 1):
        exp[power] = value
        log[value] = power
        value <<= 1
        if value & 0x100:
            value ^= _PRIMITIVE_POLYNOMIAL
    for power in range(FIELD_SIZE - 1, FIELD_SIZE * 2):
        exp[power] = exp[power - (FIELD_SIZE - 1)]
    return exp, log


_EXP, _LOG = _build_tables()


def _build_mul_tables() -> List[bytes]:
    """One 256-byte translation table per coefficient: ``table[c][x] = c·x``.

    These are what let the codec process whole shards at C speed:
    ``data.translate(table[c])`` multiplies every byte of ``data`` by ``c``
    in one call, instead of a Python-level loop per byte.
    """
    exp, log = _EXP, _LOG
    tables: List[bytes] = [bytes(FIELD_SIZE)]  # c = 0: everything maps to 0
    for coefficient in range(1, FIELD_SIZE):
        log_c = log[coefficient]
        tables.append(
            bytes([0] + [exp[log_c + log[x]] for x in range(1, FIELD_SIZE)])
        )
    return tables


_MUL_TABLE = _build_mul_tables()


def add(a: int, b: int) -> int:
    """Field addition (XOR); identical to subtraction in GF(2^8)."""
    return a ^ b


def multiply(a: int, b: int) -> int:
    """Field multiplication via log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


def divide(a: int, b: int) -> int:
    """Field division ``a / b``; raises ``ZeroDivisionError`` if ``b`` is 0."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return _EXP[(_LOG[a] - _LOG[b]) % (FIELD_SIZE - 1)]


def inverse(a: int) -> int:
    """Multiplicative inverse; raises ``ZeroDivisionError`` for 0."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return _EXP[(FIELD_SIZE - 1) - _LOG[a]]


def power(a: int, exponent: int) -> int:
    """Raise ``a`` to an integer power (exponent may be negative if a != 0)."""
    if exponent == 0:
        return 1
    if a == 0:
        if exponent < 0:
            raise ZeroDivisionError("zero has no inverse in GF(256)")
        return 0
    log_value = (_LOG[a] * exponent) % (FIELD_SIZE - 1)
    return _EXP[log_value]


def multiply_row(coefficient: int, row: Sequence[int]) -> List[int]:
    """Multiply every byte of ``row`` by ``coefficient`` (vector scaling)."""
    if coefficient == 0:
        return [0] * len(row)
    if coefficient == 1:
        return list(row)
    log_c = _LOG[coefficient]
    exp = _EXP
    log = _LOG
    return [0 if byte == 0 else exp[log_c + log[byte]] for byte in row]


def add_rows(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Element-wise XOR of two equal-length byte vectors."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return [x ^ y for x, y in zip(a, b)]


def multiply_accumulate(target: List[int], coefficient: int, row: Sequence[int]) -> None:
    """In-place ``target ^= coefficient * row`` (the codec's inner loop)."""
    if coefficient == 0:
        return
    if len(target) != len(row):
        raise ValueError(f"length mismatch: {len(target)} vs {len(row)}")
    log_c = _LOG[coefficient]
    exp = _EXP
    log = _LOG
    for index, byte in enumerate(row):
        if byte:
            target[index] ^= exp[log_c + log[byte]]


class Matrix:
    """A dense matrix over GF(256) with just enough linear algebra for RS.

    Rows are lists of ints in [0, 255].  The class supports multiplication
    and Gauss–Jordan inversion, which is what encoding and erasure decoding
    need.  Shard-length multiplications have two implementations:
    :meth:`multiply_vector_bytes` (the fast path — per-coefficient
    ``bytes.translate`` tables and big-int XOR accumulation, used by the
    codec) and :meth:`multiply_vector_rows` (the scalar byte-at-a-time
    reference the fast path is pinned against).
    """

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        if not rows:
            raise ValueError("matrix must have at least one row")
        width = len(rows[0])
        if width == 0:
            raise ValueError("matrix rows must be non-empty")
        for row in rows:
            if len(row) != width:
                raise ValueError("all matrix rows must have the same length")
            for value in row:
                if not 0 <= value <= 255:
                    raise ValueError(f"matrix entries must be bytes, got {value!r}")
        self.rows = [list(row) for row in rows]

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return len(self.rows)

    @property
    def num_cols(self) -> int:
        """Number of columns."""
        return len(self.rows[0])

    @classmethod
    def identity(cls, size: int) -> "Matrix":
        """The ``size`` × ``size`` identity matrix."""
        return cls([[1 if i == j else 0 for j in range(size)] for i in range(size)])

    def multiply_vector_rows(self, data_rows: Sequence[Sequence[int]]) -> List[List[int]]:
        """Compute ``self @ data_rows`` where each data row is a byte vector.

        ``data_rows`` has one byte-vector per matrix *column*; the result has
        one byte-vector per matrix *row*.  This is exactly the shape of
        encoding (parity rows from data rows) and decoding (data rows from
        received rows).
        """
        if len(data_rows) != self.num_cols:
            raise ValueError(
                f"need {self.num_cols} data rows, got {len(data_rows)}"
            )
        if not data_rows:
            return []
        length = len(data_rows[0])
        for row in data_rows:
            if len(row) != length:
                raise ValueError("all data rows must have the same length")
        result: List[List[int]] = []
        for matrix_row in self.rows:
            accumulator = [0] * length
            for coefficient, data_row in zip(matrix_row, data_rows):
                multiply_accumulate(accumulator, coefficient, data_row)
            result.append(accumulator)
        return result

    def multiply_vector_bytes(self, data_rows: Sequence[bytes]) -> List[bytes]:
        """Bulk version of :meth:`multiply_vector_rows` over whole shards.

        Each input row is scaled through its coefficient's 256-byte
        translation table and XOR-accumulated as one big integer, so the
        per-byte work happens in C.  Produces byte-identical results to the
        scalar path (pinned by the property tests).  ``bytes.translate`` +
        big-int XOR runs at ~1.5 ns/byte on CPython 3.11; a numpy
        fancy-index gather was tried at ~3 ns/byte on the paper's window
        shape and removed (docs/performance.md, "Tried and removed").
        """
        if len(data_rows) != self.num_cols:
            raise ValueError(
                f"need {self.num_cols} data rows, got {len(data_rows)}"
            )
        if not data_rows:
            return []
        length = len(data_rows[0])
        for row in data_rows:
            if len(row) != length:
                raise ValueError("all data rows must have the same length")
        shards = [bytes(row) for row in data_rows]
        tables = _MUL_TABLE
        result: List[bytes] = []
        for matrix_row in self.rows:
            accumulator = 0
            for coefficient, shard in zip(matrix_row, shards):
                if coefficient == 0:
                    continue
                scaled = shard if coefficient == 1 else shard.translate(tables[coefficient])
                accumulator ^= int.from_bytes(scaled, "little")
            result.append(accumulator.to_bytes(length, "little"))
        return result

    def inverted(self) -> "Matrix":
        """Return the inverse via Gauss–Jordan elimination.

        Raises
        ------
        ValueError
            If the matrix is singular or not square.
        """
        if self.num_rows != self.num_cols:
            raise ValueError("only square matrices can be inverted")
        size = self.num_rows
        work = [list(row) + identity_row for row, identity_row in zip(self.rows, Matrix.identity(size).rows)]

        for column in range(size):
            pivot_row = None
            for candidate in range(column, size):
                if work[candidate][column] != 0:
                    pivot_row = candidate
                    break
            if pivot_row is None:
                raise ValueError("matrix is singular and cannot be inverted")
            work[column], work[pivot_row] = work[pivot_row], work[column]

            pivot_inverse = inverse(work[column][column])
            work[column] = multiply_row(pivot_inverse, work[column])
            for row_index in range(size):
                if row_index == column:
                    continue
                factor = work[row_index][column]
                if factor:
                    scaled = multiply_row(factor, work[column])
                    work[row_index] = add_rows(work[row_index], scaled)

        return Matrix([row[size:] for row in work])
