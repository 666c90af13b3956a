"""Item-embedding catalog: row storage, identity bookkeeping, projection, snapshots.

The catalog owns the live embedding matrix. Item ids are stable within a run:
once removed, an id is retired and can never be re-added, so event logs stay
unambiguous. Rows are kept in a dense matrix aligned with the sorted id order.
"""

from __future__ import annotations

import bisect
import enum
import os
import struct
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConcurrentMutation,
    DimensionMismatch,
    DuplicateId,
    IdRetired,
    NonFiniteInput,
    SnapshotFormatError,
    UnknownId,
)

ItemId = str

SNAPSHOT_MAGIC = b"ORAG"
SNAPSHOT_VERSION = 1

_UNIT_BALL_SLACK = 1e-12


class ProjectionMode(enum.Enum):
    NONE = "none"
    UNIT_BALL = "unit_ball"


def project_row(v: np.ndarray, mode: ProjectionMode) -> np.ndarray:
    """Project a row, or each row of an (n, d) block, into the feasible set.

    Mode NONE returns the input unchanged; UNIT_BALL rescales a row onto the
    unit sphere only when its norm exceeds 1. The norm is sqrt(v . v) per
    row, the same bits as `np.linalg.norm` of that row alone.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput("row contains non-finite entries")
    if mode is ProjectionMode.NONE:
        return v
    norm = np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]
    return v / np.maximum(norm, 1.0)


class Catalog:
    """Mapping ItemId -> embedding row plus a generation counter.

    Single-writer: every mutation goes through `_mutate`, which detects
    re-entrant/concurrent writes. `generation` strictly increases across
    mutations so readers can tell snapshots apart.
    """

    def __init__(
        self,
        dim: int,
        items: Iterable[tuple[ItemId, Sequence[float]]] = (),
        projection: ProjectionMode = ProjectionMode.NONE,
        dtype: type = np.float64,
    ):
        if dim < 1:
            raise DimensionMismatch(f"dim must be >= 1, got {dim}")
        if dtype not in (np.float64, np.float32):
            raise TypeError("dtype must be numpy float64 or float32")
        self.dim = int(dim)
        self.projection = projection
        self.dtype = dtype
        self.generation = 0
        self._ids: list[ItemId] = []            # sorted
        self._index: dict[ItemId, int] = {}
        self._matrix = np.empty((0, dim), dtype=dtype)
        self._retired: set[ItemId] = set()
        self._writing = False
        for item_id, vec in items:
            self._insert(str(item_id), vec)
        self.generation = 0  # construction is not a mutation

    # -- read side ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._index

    @property
    def ids(self) -> tuple[ItemId, ...]:
        """Item ids in the canonical (sorted) order."""
        return tuple(self._ids)

    def matrix(self) -> np.ndarray:
        """Dense rows in id order; a view, do not write through it."""
        return self._matrix

    def row(self, item_id: ItemId) -> np.ndarray:
        try:
            return self._matrix[self._index[item_id]].copy()
        except KeyError:
            raise UnknownId(item_id) from None

    def items(self) -> list[tuple[ItemId, np.ndarray]]:
        return [(i, self._matrix[self._index[i]].copy()) for i in self._ids]

    # -- write side ---------------------------------------------------------

    def _mutate(self):
        if self._writing:
            raise ConcurrentMutation("catalog is already being mutated")
        self._writing = True

    def _check_rows(self, rows: list) -> np.ndarray:
        """A non-empty list of vectors as one finite (n, dim) block in the catalog dtype."""
        try:
            v = np.asarray(rows, dtype=self.dtype).reshape(len(rows), -1)
        except ValueError:
            raise DimensionMismatch("rows are not equal-length numeric vectors") from None
        if v.shape[1] != self.dim:
            raise DimensionMismatch(f"expected length {self.dim}, got {v.shape[1]}")
        if not np.all(np.isfinite(v)):
            raise NonFiniteInput("vector contains non-finite entries")
        return v

    def _insert(self, item_id: ItemId, vec):
        if item_id in self._index:
            raise DuplicateId(item_id)
        if item_id in self._retired:
            raise IdRetired(item_id)
        v = project_row(self._check_rows([vec])[0], self.projection).astype(self.dtype)
        pos = bisect.bisect_left(self._ids, item_id)
        self._ids.insert(pos, item_id)
        self._matrix = np.insert(self._matrix, pos, v, axis=0)
        self._index = {i: k for k, i in enumerate(self._ids)}

    def add_item(self, item_id: ItemId, init: Sequence[float]) -> None:
        self._mutate()
        try:
            self._insert(str(item_id), init)
        finally:
            self._writing = False
        self.generation += 1

    def remove_item(self, item_id: ItemId) -> None:
        self._mutate()
        try:
            if item_id not in self._index:
                raise UnknownId(item_id)
            pos = self._index[item_id]
            self._ids.pop(pos)
            self._matrix = np.delete(self._matrix, pos, axis=0)
            self._index = {i: k for k, i in enumerate(self._ids)}
            self._retired.add(item_id)
        finally:
            self._writing = False
        self.generation += 1

    def update_rows(self, deltas: dict[ItemId, np.ndarray], eta: float) -> None:
        """Apply theta_i <- project(theta_i - eta * g_i) for each id in `deltas`.

        All or nothing: every id, width and value is checked before any row
        is written, so a failed update leaves rows and `generation` as they were.
        """
        self._mutate()
        try:
            if deltas:
                try:
                    pos = list(map(self._index.__getitem__, deltas))
                except KeyError as e:
                    raise UnknownId(e.args[0]) from None
                g = self._check_rows(list(deltas.values()))
                new = self._matrix[pos] - eta * g
                self._matrix[pos] = project_row(new, self.projection).astype(self.dtype)
        finally:
            self._writing = False
        self.generation += 1

    def copy(self) -> "Catalog":
        out = Catalog(self.dim, projection=self.projection, dtype=self.dtype)
        out._ids = list(self._ids)
        out._index = dict(self._index)
        out._matrix = self._matrix.copy()
        out._retired = set(self._retired)
        out.generation = self.generation
        return out

    def max_row_norm(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(np.max(np.linalg.norm(self._matrix, axis=1)))


# -- binary snapshot --------------------------------------------------------
#
# Layout: magic "ORAG" | u32 version | u64 I | u64 d | u8 dtype (0=f64, 1=f32)
# | I x (u32 byte-length + UTF-8 id) | I*d row-major values, little-endian.


def write_snapshot(catalog: Catalog, path: str) -> None:
    """Write a bit-exact catalog snapshot via temp-file-then-rename."""
    dtag = 0 if catalog.dtype == np.float64 else 1
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(SNAPSHOT_MAGIC)
        f.write(struct.pack("<IQQB", SNAPSHOT_VERSION, len(catalog), catalog.dim, dtag))
        for item_id in catalog.ids:
            raw = item_id.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
        f.write(catalog.matrix().astype("<f8" if dtag == 0 else "<f4").tobytes())
    os.replace(tmp, path)


def read_snapshot(path: str, projection: ProjectionMode = ProjectionMode.NONE) -> Catalog:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("bad magic bytes")
    try:
        version, count, dim, dtag = struct.unpack_from("<IQQB", data, 4)
    except struct.error as e:
        raise SnapshotFormatError(str(e)) from None
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(f"unsupported version {version}")
    if dtag not in (0, 1):
        raise SnapshotFormatError(f"unknown dtype tag {dtag}")
    off = 4 + struct.calcsize("<IQQB")
    ids = []
    for _ in range(count):
        (n,) = struct.unpack_from("<I", data, off)
        off += 4
        ids.append(data[off : off + n].decode("utf-8"))
        off += n
    dtype = np.float64 if dtag == 0 else np.float32
    wire = "<f8" if dtag == 0 else "<f4"
    values = np.frombuffer(data, dtype=wire, count=count * dim, offset=off)
    rows = values.reshape(count, dim).astype(dtype)
    return Catalog(dim, zip(ids, rows), projection=projection, dtype=dtype)
