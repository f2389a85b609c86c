"""Systematic Reed–Solomon erasure coding (Cauchy construction).

The paper's source groups packets in windows of 110, 9 of which are FEC
packets; receiving *any* 101 of the 110 reconstructs the window.  That
property — any ``k`` of the ``k + m`` symbols suffice — is exactly what an
MDS erasure code gives.  We implement the classic systematic Cauchy
Reed–Solomon construction:

* the generator matrix is ``G = [ I_k ; C ]`` where ``C`` is an ``m × k``
  Cauchy matrix over GF(256): ``C[i][j] = 1 / (x_i ⊕ y_j)`` with the
  ``x_i`` and ``y_j`` all distinct;
* every ``k × k`` submatrix of ``G`` is invertible, so any ``k`` received
  rows (data or parity) can be inverted to recover the data.

The simulator itself only needs the *counting* consequence ("a window is
decodable iff ≥ 101 packets arrived"), but this codec makes the library a
complete streaming system: the examples encode and decode real payloads.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.streaming.gf256 import FIELD_SIZE, Matrix, inverse


class ReedSolomonCode:
    """A systematic ``(k + m, k)`` erasure code over GF(256).

    Parameters
    ----------
    data_shards:
        ``k`` — number of source symbols per codeword.
    parity_shards:
        ``m`` — number of parity symbols per codeword.

    ``k + m`` must not exceed 255 (the Cauchy construction needs ``k + m``
    distinct non-zero field elements split into two disjoint sets).
    """

    def __init__(self, data_shards: int, parity_shards: int) -> None:
        if data_shards < 1:
            raise ValueError(f"data_shards must be >= 1, got {data_shards!r}")
        if parity_shards < 0:
            raise ValueError(f"parity_shards must be >= 0, got {parity_shards!r}")
        if data_shards + parity_shards > FIELD_SIZE - 1:
            raise ValueError(
                "data_shards + parity_shards must be <= 255 for GF(256) Cauchy RS, "
                f"got {data_shards + parity_shards}"
            )
        self.data_shards = data_shards
        self.parity_shards = parity_shards
        self._cauchy = (
            self._build_cauchy_matrix(data_shards, parity_shards) if parity_shards else None
        )

    @property
    def total_shards(self) -> int:
        """``k + m`` — the codeword length in symbols."""
        return self.data_shards + self.parity_shards

    @staticmethod
    def _build_cauchy_matrix(data_shards: int, parity_shards: int) -> Matrix:
        # x_i values for parity rows and y_j values for data columns must be
        # distinct across both sets; use 0..k-1 for data and k..k+m-1 for parity.
        rows: List[List[int]] = []
        for i in range(parity_shards):
            x = data_shards + i
            row = [inverse(x ^ j) for j in range(data_shards)]
            rows.append(row)
        return Matrix(rows)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, data: Sequence[bytes]) -> List[bytes]:
        """Compute the parity shards for ``data``.

        ``data`` must contain exactly ``k`` equal-length byte strings.
        Returns the ``m`` parity shards, each of the same length.
        """
        self._check_data_shards(data)
        if self.parity_shards == 0:
            return []
        return self._cauchy.multiply_vector_bytes([bytes(shard) for shard in data])

    def encode_window(self, data: Sequence[bytes]) -> List[bytes]:
        """Return the full codeword: the data shards followed by parity shards."""
        return list(data) + self.encode(data)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, shards: Mapping[int, bytes]) -> List[bytes]:
        """Reconstruct the ``k`` data shards from any ``k`` received shards.

        Parameters
        ----------
        shards:
            Mapping from shard index (0..k-1 are data, k..k+m-1 are parity)
            to the received shard bytes.  At least ``k`` entries are needed.

        Returns
        -------
        list[bytes]
            The ``k`` data shards in order.

        Raises
        ------
        ValueError
            If fewer than ``k`` shards are supplied, indices are out of
            range, or shard lengths differ.
        """
        if len(shards) < self.data_shards:
            raise ValueError(
                f"need at least {self.data_shards} shards to decode, got {len(shards)}"
            )
        lengths = {len(shard) for shard in shards.values()}
        if len(lengths) != 1:
            raise ValueError(f"all shards must have the same length, got lengths {sorted(lengths)}")
        for index in shards:
            if not 0 <= index < self.total_shards:
                raise ValueError(f"shard index {index} out of range [0, {self.total_shards})")

        # Fast path: all data shards present.
        if all(index in shards for index in range(self.data_shards)):
            return [bytes(shards[index]) for index in range(self.data_shards)]

        # Pick k received shards (prefer data shards — their rows are trivial).
        chosen = sorted(shards)[: self.data_shards]
        generator_rows: List[List[int]] = []
        received_rows: List[bytes] = []
        for index in chosen:
            generator_rows.append(self._generator_row(index))
            received_rows.append(bytes(shards[index]))

        decode_matrix = Matrix(generator_rows).inverted()
        return decode_matrix.multiply_vector_bytes(received_rows)

    def _generator_row(self, shard_index: int) -> List[int]:
        if shard_index < self.data_shards:
            return [1 if column == shard_index else 0 for column in range(self.data_shards)]
        return list(self._cauchy.rows[shard_index - self.data_shards])

    def _check_data_shards(self, data: Sequence[bytes]) -> None:
        if len(data) != self.data_shards:
            raise ValueError(f"expected {self.data_shards} data shards, got {len(data)}")
        lengths = {len(shard) for shard in data}
        if len(lengths) > 1:
            raise ValueError(f"all data shards must have the same length, got {sorted(lengths)}")


class WindowCodec:
    """FEC codec bound to a stream window layout.

    Thin convenience wrapper over :class:`ReedSolomonCode` using the stream
    terminology: *source packets* and *FEC packets* of one window.
    """

    def __init__(self, source_packets: int, fec_packets: int) -> None:
        self._code = ReedSolomonCode(source_packets, fec_packets)

    @property
    def source_packets(self) -> int:
        """Number of data packets per window."""
        return self._code.data_shards

    @property
    def fec_packets(self) -> int:
        """Number of parity packets per window."""
        return self._code.parity_shards

    @property
    def window_size(self) -> int:
        """Total packets per window."""
        return self._code.total_shards

    @property
    def required_packets(self) -> int:
        """Minimum number of packets needed to decode a window."""
        return self._code.data_shards

    def encode_window(self, source_payloads: Sequence[bytes]) -> List[bytes]:
        """All 110 payloads (source + parity) for one window's source data."""
        return self._code.encode_window(source_payloads)

    def can_decode(self, received_count: int) -> bool:
        """The counting rule the simulator uses: enough packets arrived?"""
        return received_count >= self.required_packets

    def decode_window(self, received: Mapping[int, bytes]) -> List[bytes]:
        """Recover the source payloads from any ``required_packets`` packets.

        ``received`` maps *index within the window* (0..window_size-1) to the
        packet payload.
        """
        return self._code.decode(received)

    def loss_tolerance(self) -> int:
        """How many packets of a window can be lost while staying decodable."""
        return self.fec_packets


def reference_encode(code: ReedSolomonCode, data: Sequence[bytes]) -> List[bytes]:
    """The pre-fast-path scalar encode (byte-at-a-time matrix multiply).

    Kept as the baseline the bulk path is pinned against (tests) and
    measured against (``python -m repro.bench run --filter large-session``).  Byte-identical
    to :meth:`ReedSolomonCode.encode` by construction.
    """
    code._check_data_shards(data)
    if code.parity_shards == 0:
        return []
    parity_rows = code._cauchy.multiply_vector_rows([list(shard) for shard in data])
    return [bytes(row) for row in parity_rows]


def reference_decode(code: ReedSolomonCode, shards: Mapping[int, bytes]) -> List[bytes]:
    """The pre-fast-path scalar decode; see :func:`reference_encode`."""
    if len(shards) < code.data_shards:
        raise ValueError(
            f"need at least {code.data_shards} shards to decode, got {len(shards)}"
        )
    if all(index in shards for index in range(code.data_shards)):
        return [bytes(shards[index]) for index in range(code.data_shards)]
    chosen = sorted(shards)[: code.data_shards]
    generator_rows = [code._generator_row(index) for index in chosen]
    received_rows = [list(shards[index]) for index in chosen]
    decode_matrix = Matrix(generator_rows).inverted()
    data_rows = decode_matrix.multiply_vector_rows(received_rows)
    return [bytes(row) for row in data_rows]
