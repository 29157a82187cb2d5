"""The banded LSH index over per-column MinHash sketches.

:class:`SketchIndex` keeps one :class:`~repro.sketch.minhash.ColumnSketch`
per (table, column) and hashes each signature into ``bands`` buckets of
``rows`` slots each.  A query signature collides with a column's bucket in
at least one band with probability ``1 - (1 - s^rows)^bands`` at Jaccard
similarity ``s`` — the classic S-curve — so the default recall-leaning
shape (``num_perm=128``, ``bands=64``, ``rows=2``) all but guarantees that
genuinely joinable tables survive the prune while unrelated tables fall
out before the exact pipeline ever fetches their postings.

**Buckets.**  A band's bucket is keyed by the band's slice of the *packed*
signature (``8 * rows`` bytes; ``bytes`` are not tracked by the garbage
collector, a tuple of integers is) and holds a bare table id until a second
table shares it, then a set — most buckets of a lake have one member, and
the store holds ``bands`` of them per column.  Buckets are derived state:
writes and loads store signatures only, and the first
:meth:`~SketchIndex.candidate_tables` / :meth:`~SketchIndex.query` after
them buckets every table added or loaded since the last read, under the
store lock.  Exact requests never read buckets, so neither they nor a
store that is only saved pay for them.

**Signing.**  Nothing on the write path signs: a session signs the tables
its index serves at its first sketch-mode read, and afterwards only the
tables written since the last one
(:meth:`~repro.api.session.DiscoverySession.sketch_index`).  A batch of
tables is signed from its dictionary pass
(:func:`~repro.index.bulk.encode_tables`): one sort of
``(column, value id)`` codes over the non-missing cells gives each column's
distinct ids and cardinality, each vocabulary value is hashed once through
the store's memo, and :func:`~repro.sketch.minhash.sign_columns` permutes
them all.

**Persistence.**  An explicit API (:meth:`SketchIndex.save` /
:meth:`SketchIndex.load`); no index directory holds a sketch file.  One
self-describing file per store (``<stem>.sk``): a header with the shape and
seed, the ``(table, column, cardinality)`` entries, the packed signatures, a
CRC.  It is written to a temporary name, fsynced and atomically renamed into
place, with the directory fsynced afterwards — the ``.seg`` discipline of
:mod:`repro.ingest.live`.
"""

from __future__ import annotations

import os
import struct
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence
from zlib import crc32

import numpy as _np

from ..datamodel import Table
from ..exceptions import ConfigurationError, StorageError
from ..hashing.base import Memo
from ..index.bulk import EncodedTables, encode_tables
from .minhash import (
    ColumnSketch,
    containment_estimates,
    hash_value,
    minhash_signature,
    pack_signature,
    permutation_params,
    sign_columns,
)

#: On-disk format version of a sketch file.
SKETCH_FORMAT_VERSION = 2

#: Magic prefix and suffix of a sketch file.
SKETCH_MAGIC = b"MSK2"
SKETCH_SUFFIX = ".sk"

#: Default file stem: ``<stem>.sk`` holds a whole store.
SKETCH_FILE_STEM = "sketches"

#: Native order, like the entries and signatures behind it: a file of a
#: foreign byte order fails the version check.
_HEADER = struct.Struct("=4sIIIIQQ")
_CHECKSUM = struct.Struct("=I")


@dataclass(frozen=True)
class SketchIndexConfig:
    """Shape of the MinHash signatures and the banded LSH split.

    ``num_perm`` must equal ``bands * rows``; the defaults lean toward
    recall (collision probability ~0.99 at Jaccard 0.5).
    """

    num_perm: int = 128
    bands: int = 64
    rows: int = 2
    seed: int = 1_000_003

    def __post_init__(self) -> None:
        if self.num_perm <= 0 or self.bands <= 0 or self.rows <= 0:
            raise ConfigurationError(
                "num_perm, bands and rows must all be positive, got "
                f"{self.num_perm}/{self.bands}/{self.rows}"
            )
        if self.bands * self.rows != self.num_perm:
            raise ConfigurationError(
                f"bands * rows must equal num_perm: {self.bands} * "
                f"{self.rows} != {self.num_perm}"
            )

    def estimated_recall(self, threshold: float) -> float:
        """Probability a column at Jaccard ``threshold`` shares a bucket."""
        if threshold <= 0.0:
            return 1.0
        return 1.0 - (1.0 - threshold**self.rows) ** self.bands


#: The process-wide default shape.
DEFAULT_SKETCH_CONFIG = SketchIndexConfig()


class SketchIndex:
    """Per-column MinHash sketches behind a banded LSH candidate lookup."""

    def __init__(self, config: SketchIndexConfig | None = None):
        self.config = config or DEFAULT_SKETCH_CONFIG
        self._params = permutation_params(self.config.num_perm, self.config.seed)
        #: table_id -> column_index -> ColumnSketch
        self._sketches: dict[int, dict[int, ColumnSketch]] = {}
        #: One bucket dict per band: band key -> a table id, or a set of them.
        self._buckets: list[dict[bytes, int | set[int]]] = [
            {} for _ in range(self.config.bands)
        ]
        #: Stored tables not in the buckets yet: the next read buckets them.
        self._unbucketed: set[int] = set()
        #: ``value -> base hash``: a value recurring across the columns and
        #: tables this store sketches is hashed once.
        self._value_hashes: Memo[int] = Memo(hash_value)
        #: Where each band's key sits in a packed signature.
        step = 8 * self.config.rows
        self._bands = [
            slice(at, at + step) for at in range(0, step * self.config.bands, step)
        ]
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Signatures
    # ------------------------------------------------------------------
    def signature(self, values: Iterable[str]) -> tuple[int, ...]:
        """The MinHash signature of a value set under this index's seed."""
        return minhash_signature(values, *self._params)

    def _band_keys(self, packed: bytes) -> Iterator[bytes]:
        return map(packed.__getitem__, self._bands)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> int:
        """Sketch every non-empty column of ``table``; returns columns added."""
        return self.add_tables((table,))

    def add_tables(self, tables: Sequence[Table]) -> int:
        """Sketch every non-empty column of ``tables`` in one pass; returns
        columns added.  All columns are signed before the first is stored:
        a batch that cannot be sketched leaves no trace."""
        sketches = self._sign(tables, encode_tables(tables))
        with self._lock:
            for sketch in sketches:
                self._store_locked(sketch)
        return len(sketches)

    def _sign(
        self, tables: Sequence[Table], encoded: EncodedTables
    ) -> list[ColumnSketch]:
        """The sketch of every column of ``tables`` holding a value (see the
        module docstring), in table, then column order."""
        num_values = len(encoded.values)
        if not num_values:
            return []
        value_ids, cell_rows, cell_columns = encoded.cells()
        widths = _np.fromiter((t.num_columns for t in tables), _np.int64, len(tables))
        rows = _np.fromiter((t.num_rows for t in tables), _np.int64, len(tables))
        # Column ``c`` of the batch's table ``t`` is column
        # ``first_columns[t] + c`` of the batch.
        first_columns = _np.cumsum(widths) - widths
        cell_slots = _np.repeat(first_columns, rows)[cell_rows] + cell_columns
        codes = cell_slots * num_values + value_ids
        codes.sort()
        codes = codes[_np.concatenate(([True], codes[1:] != codes[:-1]))]
        slots, ids = _np.divmod(codes, num_values)
        starts = _np.flatnonzero(_np.concatenate(([True], slots[1:] != slots[:-1])))
        hashes = _np.fromiter(
            map(self._value_hashes.__getitem__, encoded.values),
            _np.uint64,
            num_values,
        )
        packed = sign_columns(hashes[ids], starts, *self._params).tobytes()
        slots = slots[starts]
        positions = _np.searchsorted(first_columns, slots, "right") - 1
        width = 8 * self.config.num_perm
        return [
            ColumnSketch(
                tables[position].table_id, column, cardinality, packed[at : at + width]
            )
            for position, column, cardinality, at in zip(
                positions.tolist(),
                (slots - first_columns[positions]).tolist(),
                _np.diff(starts, append=len(codes)).tolist(),
                range(0, len(packed), width),
            )
        ]

    def _store_locked(self, sketch: ColumnSketch) -> None:
        """Store ``sketch``; its table is bucketed (again) by the next read."""
        table_id = sketch.table_id
        columns = self._sketches.get(table_id)
        if columns is None:
            columns = self._sketches[table_id] = {}
            self._unbucketed.add(table_id)
        elif table_id not in self._unbucketed:
            self._unbucket_locked(table_id, columns.values())
            self._unbucketed.add(table_id)
        columns[sketch.column_index] = sketch

    def remove_table(self, table_id: int) -> bool:
        """Drop every sketch of ``table_id``; returns whether any existed."""
        with self._lock:
            columns = self._sketches.pop(table_id, None)
            if columns is None:
                return False
            if table_id in self._unbucketed:
                self._unbucketed.discard(table_id)
            else:
                self._unbucket_locked(table_id, columns.values())
            return True

    def fill_buckets(self) -> None:
        """Bucket every table stored since the last read now, as the next
        read would first (for a store built to be read at once)."""
        with self._lock:
            self._bucket_locked()

    def _bucket_locked(self) -> None:
        """Put every table stored since the last read into the buckets."""
        for table_id in self._unbucketed:
            for sketch in self._sketches[table_id].values():
                for bucket, key in zip(self._buckets, self._band_keys(sketch.packed)):
                    members = bucket.get(key)
                    if members is None:
                        bucket[key] = table_id
                    elif isinstance(members, set):
                        members.add(table_id)
                    elif members != table_id:
                        bucket[key] = {members, table_id}
        self._unbucketed.clear()

    def _unbucket_locked(
        self, table_id: int, sketches: Iterable[ColumnSketch]
    ) -> None:
        """Take the ``sketches`` of a bucketed table out of the buckets."""
        for sketch in sketches:
            for bucket, key in zip(self._buckets, self._band_keys(sketch.packed)):
                members = bucket.get(key)
                if isinstance(members, set):
                    members.discard(table_id)
                    if len(members) == 1:
                        (bucket[key],) = members
                elif members == table_id:
                    del bucket[key]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def table_ids(self) -> set[int]:
        """Ids of every sketched table."""
        with self._lock:
            return set(self._sketches)

    @property
    def num_tables(self) -> int:
        """Number of sketched tables."""
        with self._lock:
            return len(self._sketches)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(columns) for columns in self._sketches.values())

    def column_sketches(self) -> list[ColumnSketch]:
        """Every stored sketch, ordered by table id, then column (the order
        :meth:`save` writes)."""
        with self._lock:
            return [
                self._sketches[table_id][column_index]
                for table_id in sorted(self._sketches)
                for column_index in sorted(self._sketches[table_id])
            ]

    def candidate_tables(self, signature: Sequence[int]) -> set[int]:
        """Tables sharing at least one LSH bucket with ``signature``."""
        candidates: set[int] = set()
        with self._lock:
            self._bucket_locked()
            for bucket, key in zip(
                self._buckets, self._band_keys(pack_signature(signature))
            ):
                members = bucket.get(key)
                if isinstance(members, set):
                    candidates.update(members)
                elif members is not None:
                    candidates.add(members)
        return candidates

    def query(
        self,
        values: Iterable[str],
        threshold: float = 0.0,
        max_candidates: int | None = None,
    ) -> list[tuple[int, float]]:
        """Candidate tables for a query value set, best first.

        Banded LSH proposes tables, the stored signatures refine each
        proposal to an estimated containment (query values in the table's
        best-matching column; every column of every proposal is scored in
        one comparison), and tables below ``threshold`` drop out.
        The result is ``(table_id, estimated_containment)`` pairs sorted by
        descending containment (ties by ascending id, so the order is
        deterministic); ``max_candidates`` keeps only the best ones.
        """
        distinct = set(values)
        signature = self.signature(distinct)
        with self._lock:
            table_ids = sorted(self.candidate_tables(signature))
            tables = [list(self._sketches[table_id].values()) for table_id in table_ids]
        if not table_ids:
            return []
        sketches = [sketch for columns in tables for sketch in columns]
        stored = _np.frombuffer(
            b"".join(sketch.packed for sketch in sketches), dtype=_np.uint64
        ).reshape(len(sketches), self.config.num_perm)
        scores = containment_estimates(
            stored,
            signature,
            len(distinct),
            _np.fromiter((s.cardinality for s in sketches), _np.int64, len(sketches)),
        )
        counts = _np.fromiter(map(len, tables), _np.int64, len(tables))
        best = _np.maximum.reduceat(scores, _np.cumsum(counts) - counts)
        scored = [
            (table_id, score)
            for table_id, score in zip(table_ids, best.tolist())
            if score >= threshold
        ]
        scored.sort(key=lambda entry: (-entry[1], entry[0]))
        if max_candidates is not None:
            scored = scored[:max_candidates]
        return scored

    def estimated_recall(self, threshold: float) -> float:
        """The LSH collision probability at Jaccard ``threshold``."""
        return self.config.estimated_recall(threshold)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(
        self,
        directory: str | Path,
        stem: str = SKETCH_FILE_STEM,
        fsync: bool = True,
    ) -> Path:
        """Persist the sketches into ``directory / <stem>.sk`` atomically
        (tmp-write + fsync + rename); returns the path.  Entries are
        ordered by table id, then column.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sketches = self.column_sketches()
        config = self.config
        parts = [
            _HEADER.pack(
                SKETCH_MAGIC,
                SKETCH_FORMAT_VERSION,
                config.num_perm,
                config.bands,
                config.rows,
                config.seed,
                len(sketches),
            ),
            array(
                "Q",
                [
                    field
                    for sketch in sketches
                    for field in (
                        sketch.table_id,
                        sketch.column_index,
                        sketch.cardinality,
                    )
                ],
            ).tobytes(),
            *(sketch.packed for sketch in sketches),
        ]
        checksum = 0
        for part in parts:  # running: the payload is never joined twice
            checksum = crc32(part, checksum)
        parts.append(_CHECKSUM.pack(checksum))
        path = directory / f"{stem}{SKETCH_SUFFIX}"
        _atomic_write(path, b"".join(parts), fsync)
        return path

    @classmethod
    def load(
        cls, directory: str | Path, stem: str = SKETCH_FILE_STEM
    ) -> "SketchIndex":
        """Load a persisted sketch index (see :meth:`save`)."""
        path = Path(directory) / f"{stem}{SKETCH_SUFFIX}"
        config, sketches = _read_sketch_file(path)
        index = cls(config)
        with index._lock:
            for sketch in sketches:
                index._store_locked(sketch)
        return index


def _read_sketch_file(path: Path) -> tuple[SketchIndexConfig, list[ColumnSketch]]:
    """The shape and the sketches of one ``.sk`` file, every claim checked."""
    try:
        payload = path.read_bytes()
    except FileNotFoundError as exc:
        raise StorageError(f"no sketch file at {path}") from exc
    body = len(payload) - _CHECKSUM.size
    if body < _HEADER.size:
        raise StorageError(f"sketch file {path} is truncated")
    if _CHECKSUM.unpack_from(payload, body) != (crc32(memoryview(payload)[:body]),):
        raise StorageError(f"sketch file {path} fails its checksum (torn or corrupt)")
    magic, version, num_perm, bands, rows, seed, count = _HEADER.unpack_from(payload)
    if magic != SKETCH_MAGIC or version != SKETCH_FORMAT_VERSION:
        raise StorageError(
            f"sketch file {path} has bad magic/version ({magic!r}/{version})"
        )
    try:
        config = SketchIndexConfig(num_perm=num_perm, bands=bands, rows=rows, seed=seed)
    except ConfigurationError as exc:
        raise StorageError(f"sketch file {path} declares no valid shape: {exc}") from exc
    signatures = _HEADER.size + 24 * count
    width = 8 * num_perm
    if signatures + width * count != body:
        raise StorageError(
            f"sketch file {path} is {len(payload)} bytes, its header implies "
            f"{signatures + width * count + _CHECKSUM.size}"
        )
    fields = array("Q")
    fields.frombytes(payload[_HEADER.size : signatures])
    return config, [
        ColumnSketch(table_id, column_index, cardinality, payload[at : at + width])
        for table_id, column_index, cardinality, at in zip(
            fields[0::3], fields[1::3], fields[2::3], range(signatures, body, width)
        )
    ]


def _atomic_write(path: Path, payload: bytes, fsync: bool = True) -> None:
    """Write ``payload`` to ``path`` via tmp + fsync + rename (crash safe)."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    tmp.replace(path)
    if not fsync:
        return
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
