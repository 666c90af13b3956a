"""Item-embedding catalog: row storage, identity bookkeeping, projection, snapshots.

The catalog owns the live embedding matrix. Item ids are stable within a run:
once removed, an id is retired and can never be re-added, so event logs stay
unambiguous. The canonical order of rows is the sorted id order.
"""

from __future__ import annotations

import bisect
import copy
import enum
import math
import os
import struct
import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateId,
    IdRetired,
    IoError,
    NonFiniteInput,
    SnapshotFormatError,
    UnknownId,
)

ItemId = str

SNAPSHOT_MAGIC = b"ORAG"
SNAPSHOT_VERSION = 1
CHUNK_VALUES = 1 << 13  # float64 values in one 64 KB `row_chunks` chunk


class ProjectionMode(enum.Enum):
    NONE = "none"
    UNIT_BALL = "unit_ball"


def _project_rows(block: np.ndarray, mode: ProjectionMode,
                  error: str = "row contains non-finite entries") -> None:
    """Check an (n, d) block finite (else `NonFiniteInput(error)`) and project its rows, in place.

    Under NONE, a finite sum of the squares proves the block finite with one BLAS
    dot, which raises no floating-point warning, and leaves it. Any other block
    (UNIT_BALL, a NaN or infinity, or finite entries whose squares overflow) is
    checked 64 KB at a time: a whole-block mask or float32 `astype` would be a
    quarter to twice the block's size. UNIT_BALL rescales a row onto the unit
    sphere only when its norm exceeds 1 (see `_finite_row_norms`); float32 rows
    are divided by float64 norms, so they get the float64 rule's bits rounded once.
    """
    if mode is ProjectionMode.NONE and math.isfinite(np.vdot(block, block)):
        return
    for c in row_chunks(*block.shape):
        chunk = block[c]
        if not np.logical_and.reduce(np.isfinite(chunk), axis=None):
            raise NonFiniteInput(error)
        if mode is ProjectionMode.UNIT_BALL:
            chunk /= np.maximum(_finite_row_norms(chunk.astype(np.float64, copy=False)), 1.0)


def row_norms(v: np.ndarray) -> np.ndarray:
    """sqrt(v . v) per row, last axis kept; the bits of `np.linalg.norm` of each row alone."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None]))[..., 0]


def _finite_row_norms(rows: np.ndarray) -> np.ndarray:
    """`row_norms` of an (n, d) block, finite also for a finite row whose squared norm overflows."""
    with np.errstate(over="ignore"):  # such a row's squared norm: redone below
        norms = row_norms(rows)
    big = norms[:, 0] == np.inf
    if big.any():  # those rows: the norm of row / max|row|, scaled back
        top = np.maximum.reduce(np.abs(rows[big]), axis=1, keepdims=True)
        norms[big] = row_norms(rows[big] / top) * top
    return norms


def row_chunks(n: int, dim: int) -> list[slice]:
    """Slices covering range(n), each 64 KB of float64 rows of width `dim`.

    Row-wise work done chunk by chunk allocates 64 KB temporaries, not
    catalog-sized ones. Once glibc has freed one mapped catalog-sized block,
    it serves the next ones from the brk heap, where they fragment it: peak
    RSS then moved by whole blocks between identical runs.
    """
    step = max(1, CHUNK_VALUES // max(dim, 1))
    return [slice(a, min(a + step, n)) for a in range(0, n, step)]


class SortedIds(Sequence):
    """A catalog's sorted ids, read in place: `Catalog.ids` and every `score` at one id set
    share one. The catalog's next add or remove freezes one held outside it into a tuple
    of the ids it had. `index` bisects; it equals a tuple with the same ids."""

    __slots__ = ("_ids", "__weakref__")

    def __init__(self, ids: Sequence[ItemId]):
        self._ids = ids

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, k):
        return tuple(self._ids[k]) if isinstance(k, slice) else self._ids[k]

    def __iter__(self):
        return iter(self._ids)

    def index(self, item_id) -> int:
        ids = self._ids
        k = bisect.bisect_left(ids, item_id) if isinstance(item_id, str) else len(ids)
        if k == len(ids) or ids[k] != item_id:
            raise ValueError(f"{item_id!r} is not in the ids")
        return k

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (tuple, SortedIds)) else NotImplemented

    def __repr__(self) -> str:
        return f"SortedIds({tuple(self)!r})"


class Catalog:
    """Mapping ItemId -> embedding row plus a generation counter.

    Rows sit in slots [0, n) of a buffer that doubles when full; a dict maps
    id -> slot, `_slot_ids` slot -> id, `_order[:n]` (a buffer as long as the
    rows') lists the slots in id order, and a removal moves the last slot
    into the hole. `_order` is None while slot k holds the k-th id, as in every
    catalog built from sorted ids: reads and the full update then skip the
    permutation, and the first change to the id set makes it. Add/remove cost
    O(d) plus two bisects and O(I) in-place memmoves of the sorted ids and
    `_order`, with no allocation of O(I) unless a `SortedIds` held outside
    must be frozen; `update_rows` and `row` one dict lookup per row (none for
    all rows); `matrix()` one gather or copy (`logits` reads the slots in
    place). `apply_changes` is the one path that adds and removes rows. Each
    successful mutation bumps `generation`.
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
        self.dtype = np.dtype(dtype).type  # the scalar type, whatever equal form was given
        self.generation = 0
        # (generation, float64 query bytes, weak reference to the read-only
        # probabilities) of the last `policy.score`, which alone reads and writes
        # it; empty until then.
        self._scored: tuple = ()
        self._retired: set[ItemId] = set()
        pairs = list(items)
        self._load([str(i) for i, _ in pairs], [v for _, v in pairs])

    @classmethod
    def from_rows(cls, dim: int, ids: Sequence[ItemId], rows: np.ndarray,
                  projection: ProjectionMode = ProjectionMode.NONE, dtype: type = np.float64,
                  copy: bool = True):
        """Bulk constructor: `ids[k]` -> `rows[k]` for an (n, dim) block.

        With `copy=False` the caller gives `rows` up: a writable block of the
        catalog dtype becomes the catalog's storage as it is.
        """
        if len(ids) != len(rows):
            raise DimensionMismatch(f"{len(ids)} ids for {len(rows)} rows")
        cat = cls(dim, projection=projection, dtype=dtype)
        cat._load([str(i) for i in ids], rows, copy)
        return cat

    def _load(self, ids: list[ItemId], rows, copy: bool = True) -> None:
        """Fill the empty storage in one block; `rows` is a list of vectors or an (n, dim) block."""
        n = len(ids)
        self._slot = dict(zip(ids, range(n)))    # id -> slot
        if len(self._slot) != n:
            raise DuplicateId(next(i for k, i in enumerate(ids) if self._slot[i] != k))
        v = self._check_rows(rows)
        shared = isinstance(rows, np.ndarray) and np.may_share_memory(v, rows)
        self._rows = v.copy() if copy and shared else v  # copy only a block still the caller's
        _project_rows(self._rows, self.projection)
        self._ids = sorted(ids)
        self._slot_ids = ids                     # slot -> id
        self._order = None if self._ids == ids else np.array(
            sorted(range(n), key=ids.__getitem__), dtype=np.intp)
        self._shared: SortedIds | None = None  # what `ids` returns until the id set changes

    # -- read side ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: ItemId) -> bool:
        return item_id in self._slot

    @property
    def ids(self) -> SortedIds:
        """Item ids in the canonical (sorted) order: one shared object per id set."""
        if self._shared is None:
            self._shared = SortedIds(self._ids)
        return self._shared

    def logits(self, q: np.ndarray) -> np.ndarray:
        """q . row for every row, in id order, as a fresh float64 array."""
        # One dot product per row where the rows sit (slot order), then the I
        # logits into id order. `np.vecdot` sums each row on its own, so a logit's
        # bits depend only on its row and q, not on its slot; a matrix-vector
        # product's can depend on where the row falls in the block. float32 rows
        # widen 64 KB at a time: a whole-block `astype` would be catalog-sized.
        n = len(self._ids)
        rows, out = self._rows[:n], np.empty(n)
        if self.dtype is np.float64:
            np.vecdot(rows, q, out=out)
        else:
            for c in row_chunks(n, self.dim):
                np.vecdot(rows[c].astype(np.float64), q, out=out[c])
        return out if self._order is None else out[self._order[:n]]

    def matrix(self) -> np.ndarray:
        """The rows in id order, as a fresh (I, dim) array the caller owns."""
        n = len(self)
        return self._rows[:n].copy() if self._order is None else self._rows[self._order[:n]]

    def row(self, item_id: ItemId) -> np.ndarray:
        try:
            return self._rows[self._slot[item_id]].copy()
        except KeyError:
            raise UnknownId(item_id) from None

    # -- write side ---------------------------------------------------------

    def _check_rows(self, rows) -> np.ndarray:
        """Rows (a list of vectors or a block) as one (n, dim) block in the catalog dtype."""
        try:
            return np.asarray(rows, dtype=self.dtype).reshape(len(rows), self.dim)
        except ValueError:
            raise DimensionMismatch(f"rows must be numeric vectors of length {self.dim}") from None

    def add_item(self, item_id: ItemId, init: Sequence[float]) -> None:
        self.apply_changes((), [(item_id, init)])

    def remove_item(self, item_id: ItemId) -> None:
        self.apply_changes([item_id], ())

    def apply_changes(self, removed: Sequence[ItemId],
                      added: Sequence[tuple[ItemId, Sequence[float]]]) -> None:
        """Remove each of `removed`, then add each (id, row) of `added`, with one
        `generation` bump per item. All or nothing: every id is checked, and the
        added rows are checked and projected as one block, before the first change."""
        gone: set[ItemId] = set()
        for item_id in removed:
            if item_id not in self._slot or item_id in gone:
                raise UnknownId(item_id)
            gone.add(item_id)
        new_ids, new = [str(i) for i, _ in added], set()
        for item_id in new_ids:
            if item_id in self._retired or item_id in gone:
                raise IdRetired(item_id)
            if item_id in self._slot or item_id in new:
                raise DuplicateId(item_id)
            new.add(item_id)
        rows = self._check_rows([v for _, v in added])
        _project_rows(rows, self.projection)
        if self._shared is not None and (removed or new_ids):
            held, self._shared = weakref.ref(self._shared), None  # drop the catalog's reference
            if (shared := held()) is not None:  # still held elsewhere: it keeps the ids it had
                shared._ids = tuple(self._ids)
        if self._order is None and (removed or new_ids):  # slots in id order until now
            self._order = np.arange(len(self._rows), dtype=np.intp)
        order = self._order  # shifted in place: overlapping slice copies are memmoves
        for item_id in removed:
            hole, last = self._slot.pop(item_id), len(self._ids) - 1
            pos = bisect.bisect_left(self._ids, item_id)
            del self._ids[pos]
            order[pos:last] = order[pos + 1:last + 1]
            moved = self._slot_ids.pop()
            if hole != last:  # the last slot moves into the hole
                self._rows[hole] = self._rows[last]
                self._slot[moved] = order[bisect.bisect_left(self._ids, moved)] = hole
                self._slot_ids[hole] = moved
            self._retired.add(item_id)
            self.generation += 1
        for item_id, v in zip(new_ids, rows):
            n = len(self._ids)
            if n == len(self._rows):  # full: double the capacity
                grow = max(n, 8)
                self._rows = np.concatenate([self._rows, np.empty((grow, self.dim), self.dtype)])
                self._order = order = np.concatenate([order, np.empty(grow, np.intp)])
            self._rows[n] = v
            self._slot[item_id] = n
            self._slot_ids.append(item_id)
            pos = bisect.bisect_left(self._ids, item_id)
            self._ids.insert(pos, item_id)
            order[pos + 1:n + 1] = order[pos:n]
            order[pos] = n
            self.generation += 1

    def update_rows(self, ids: Sequence[ItemId], coeff, q, eta: float) -> None:
        """Apply theta_i <- project(theta_i - eta * g_i), where g for `ids[k]` is
        the rank-1 row `coeff[k] * q`: (n,) coefficients over one (dim,) query.

        The catalog's own `ids` steps the slot block where it sits, with no id
        lookups. g is formed in float64 and rounded once to the catalog dtype.
        `_project_rows` checks and projects the new rows. All or nothing: a
        failed update leaves rows and `generation` as they were."""
        n = len(ids)
        try:
            coeff, q = np.asarray(coeff, np.float64), np.asarray(q, np.float64)
            if coeff.shape != (n,) or q.shape != (self.dim,):
                raise ValueError
        except (TypeError, ValueError):
            raise DimensionMismatch(f"need ({n},) and ({self.dim},) arrays") from None
        if ids is self._shared:  # every row
            slots = slice(0, n)
            if self._order is not None:  # the coefficients go into slot order
                by_slot = np.empty_like(coeff)
                by_slot[self._order[:n]] = coeff
                coeff = by_slot
        else:
            try:
                slots = list(map(self._slot.__getitem__, ids))
            except KeyError as e:
                raise UnknownId(e.args[0]) from None
            if n == 1:  # one row: a view of it, not a gather and a scatter
                slots = slice(slots[0], slots[0] + 1)
            elif len(set(slots)) != n:
                raise DuplicateId(next(i for k, i in enumerate(ids) if i in ids[:k]))
        if self.dtype is np.float64:
            new = np.multiply(coeff[:, None], q)
        else:  # the float64 products, rounded once
            new = np.multiply(coeff[:, None], q, out=np.empty((n, self.dim), self.dtype))
        new *= eta
        whole = n == len(self._rows) and ids is self._shared  # every slot of the buffer
        np.subtract(self._rows if whole else self._rows[slots], new, out=new)
        _project_rows(new, self.projection, "update makes a row non-finite")
        if whole:  # the new block becomes the storage: no copy back
            self._rows = new
        else:
            self._rows[slots] = new
        self.generation += 1

    def copy(self) -> "Catalog":
        out = copy.copy(self)
        n = len(self)
        out._rows = self._rows[:n].copy()
        out._order = None if self._order is None else self._order[:n].copy()
        out._slot, out._ids, out._retired = dict(self._slot), list(self._ids), set(self._retired)
        out._slot_ids, out._shared = list(self._slot_ids), None
        return out

    def max_row_norm(self) -> float:  # 64 KB of rows at a time; 0.0 when empty
        return max((float(np.maximum.reduce(_finite_row_norms(self._rows[c]), axis=None))
                    for c in row_chunks(len(self), self.dim)), default=0.0)


# -- binary snapshot --------------------------------------------------------
#
# Layout: magic "ORAG" | u32 version | u64 I | u64 d | u8 dtype (0=f64, 1=f32)
# | I x (u32 byte-length + UTF-8 id) | I*d row-major values, little-endian.


def write_snapshot(catalog: Catalog, path: str) -> None:
    """Write a bit-exact snapshot via a synced temp file and a rename; failure leaves no temp
    file. An OS error raises `IoError`, an id UTF-8 cannot encode `SnapshotFormatError`."""
    try:
        raw_ids = [i.encode() for i in catalog.ids]
    except UnicodeEncodeError as e:  # an id such as a lone surrogate
        raise SnapshotFormatError(f"id {e.object!r} cannot be encoded as UTF-8") from None
    dtag = 0 if catalog.dtype == np.float64 else 1
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(SNAPSHOT_MAGIC)
            f.write(struct.pack("<IQQB", SNAPSHOT_VERSION, len(catalog), catalog.dim, dtag))
            for raw in raw_ids:
                f.write(struct.pack("<I", len(raw)) + raw)
            order = catalog._order
            for chunk in row_chunks(len(catalog), catalog.dim):
                rows = catalog._rows[chunk if order is None else order[chunk]]
                f.write(np.ascontiguousarray(rows, dtype="<f8" if dtag == 0 else "<f4"))
            f.flush()
            os.fsync(f.fileno())  # the rename must not land before the data
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(str(e)) from None
    finally:
        if os.path.isfile(tmp):  # writing or renaming failed
            os.remove(tmp)


def read_snapshot(path: str, projection: ProjectionMode = ProjectionMode.NONE) -> Catalog:
    """Read a snapshot; any deviation from the layout raises `SnapshotFormatError`, a
    file that cannot be read `IoError`."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise IoError(str(e)) from None
    if data[:4] != SNAPSHOT_MAGIC:
        raise SnapshotFormatError("bad magic bytes")
    try:
        version, count, dim, dtag = struct.unpack_from("<IQQB", data, 4)
        if version != SNAPSHOT_VERSION:
            raise SnapshotFormatError(f"unsupported version {version}")
        if dtag not in (0, 1):
            raise SnapshotFormatError(f"unknown dtype tag {dtag}")
        off = 4 + struct.calcsize("<IQQB")
        ids = []
        for _ in range(count):
            (n,) = struct.unpack_from("<I", data, off)
            (raw,) = struct.unpack_from(f"{n}s", data, off + 4)
            ids.append(raw.decode("utf-8"))
            off += 4 + n
    except (struct.error, UnicodeDecodeError) as e:
        raise SnapshotFormatError(f"truncated or malformed: {e}") from None
    if any(a >= b for a, b in zip(ids, ids[1:])):
        raise SnapshotFormatError("ids are not strictly increasing")
    wire = np.dtype("<f8" if dtag == 0 else "<f4")
    if dim * wire.itemsize > np.iinfo(np.intp).max:  # a width no row can have, even with no rows
        raise SnapshotFormatError(f"row width {dim} is too large")
    if len(data) - off != count * dim * wire.itemsize:
        raise SnapshotFormatError("row block is truncated or followed by extra bytes")
    rows = np.frombuffer(data, dtype=wire, offset=off).reshape(count, dim)
    return Catalog.from_rows(dim, ids, rows, projection=projection, dtype=wire.type)
