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
the store holds ``bands`` of them per column.

**Persistence.**  One self-describing file per store (``<stem>.sk``): a
header with the shape and seed, the ``(table, column, cardinality)`` entries,
the packed signatures, a CRC.  It is written to a temporary name, fsynced and
atomically renamed into place, with the directory fsynced afterwards — the
``.seg`` discipline of :mod:`repro.ingest.live`, whose directories hold one
such file per segment.  :meth:`SketchIndex.load_legacy` still reads the
``<stem>.json`` + ``<stem>.bin`` pair older builds wrote.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence
from zlib import crc32

from ..datamodel import MISSING, Table
from ..exceptions import ConfigurationError, StorageError
from ..hashing.base import Memo
from .minhash import (
    ColumnSketch,
    column_signatures,
    hash_value,
    minhash_signature,
    pack_signature,
    permutation_params,
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

#: The pair format older builds wrote (read by :meth:`SketchIndex.load_legacy`).
_LEGACY_FORMAT_VERSION = 1
_LEGACY_MAGIC = b"MSKB"
_LEGACY_HEADER = struct.Struct("<4sIIQ")
_LEGACY_ENTRY = struct.Struct("<QIQ")


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
        """Sketch every non-empty column of ``table``; returns columns added.

        All columns are signed in one pass
        (:func:`~repro.sketch.minhash.column_signatures`) before the first
        is stored: a table that cannot be sketched leaves no trace.
        """
        columns = []
        for column_index, cells in enumerate(zip(*table.rows)):
            values = set(cells)
            values.discard(MISSING)
            if values:
                columns.append((column_index, values))
        signatures = column_signatures(
            [values for _column_index, values in columns],
            *self._params,
            hash_of=self._value_hashes,
        )
        with self._lock:
            for (column_index, values), packed in zip(columns, signatures):
                self.add_column_sketch(
                    ColumnSketch(table.table_id, column_index, len(values), packed)
                )
        return len(columns)

    def add_column_sketch(self, sketch: ColumnSketch) -> None:
        """Insert one prebuilt column sketch (the load / builder path)."""
        table_id = sketch.table_id
        with self._lock:
            self._sketches.setdefault(table_id, {})[sketch.column_index] = sketch
            for bucket, key in zip(self._buckets, self._band_keys(sketch.packed)):
                members = bucket.get(key)
                if members is None:
                    bucket[key] = table_id
                elif isinstance(members, set):
                    members.add(table_id)
                elif members != table_id:
                    bucket[key] = {members, table_id}

    def remove_table(self, table_id: int) -> bool:
        """Drop every sketch of ``table_id``; returns whether any existed."""
        with self._lock:
            columns = self._sketches.pop(table_id, None)
            if columns is None:
                return False
            for sketch in columns.values():
                for bucket, key in zip(
                    self._buckets, self._band_keys(sketch.packed)
                ):
                    members = bucket.get(key)
                    if isinstance(members, set):
                        members.discard(table_id)
                        if len(members) == 1:
                            (bucket[key],) = members
                    elif members == table_id:
                        del bucket[key]
            return True

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

    def column_sketch(self, table_id: int, column_index: int) -> ColumnSketch | None:
        """The stored sketch of one column (``None`` when absent)."""
        with self._lock:
            return self._sketches.get(table_id, {}).get(column_index)

    def column_sketches(
        self, table_ids: Collection[int] | None = None
    ) -> list[ColumnSketch]:
        """Every stored sketch — of ``table_ids`` when given — ordered by
        table id, then column (the order :meth:`save` writes)."""
        with self._lock:
            wanted = set(self._sketches)
            if table_ids is not None:
                wanted.intersection_update(table_ids)
            return [
                self._sketches[table_id][column_index]
                for table_id in sorted(wanted)
                for column_index in sorted(self._sketches[table_id])
            ]

    def candidate_tables(self, signature: Sequence[int]) -> set[int]:
        """Tables sharing at least one LSH bucket with ``signature``."""
        candidates: set[int] = set()
        with self._lock:
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
        best-matching column), and tables below ``threshold`` drop out.
        The result is ``(table_id, estimated_containment)`` pairs sorted by
        descending containment (ties by ascending id, so the order is
        deterministic); ``max_candidates`` keeps only the best ones.
        """
        distinct = set(values)
        signature = self.signature(distinct)
        cardinality = len(distinct)
        scored: list[tuple[int, float]] = []
        with self._lock:
            for table_id in self.candidate_tables(signature):
                best = max(
                    sketch.containment_of(signature, cardinality)
                    for sketch in self._sketches[table_id].values()
                )
                if best >= threshold:
                    scored.append((table_id, best))
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
        table_ids: Collection[int] | None = None,
        fsync: bool = True,
    ) -> Path:
        """Persist the sketches into ``directory / <stem>.sk`` atomically
        (tmp-write + fsync + rename); returns the path.

        ``table_ids`` restricts the file to those tables — a live index
        keeps one file per segment, holding the segment's tables.  Entries
        are ordered by table id, then column.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        sketches = self.column_sketches(table_ids)
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
        for sketch in sketches:
            index.add_column_sketch(sketch)
        return index

    def load_file(
        self, path: str | Path, table_ids: Collection[int] | None = None
    ) -> None:
        """Add the sketches of one more file written by :meth:`save` —
        those of ``table_ids`` when given.  The file must have been written
        with this index's shape and seed."""
        config, sketches = _read_sketch_file(Path(path))
        if config != self.config:
            raise StorageError(
                f"sketch file {path} was written as {config}, this store is "
                f"{self.config}"
            )
        with self._lock:
            for sketch in sketches:
                if table_ids is None or sketch.table_id in table_ids:
                    self.add_column_sketch(sketch)

    @classmethod
    def load_legacy(
        cls, directory: str | Path, stem: str = SKETCH_FILE_STEM
    ) -> "SketchIndex":
        """Load the ``<stem>.json`` + ``<stem>.bin`` pair of format 1."""
        directory = Path(directory)
        manifest_path = directory / f"{stem}.json"
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise StorageError(f"no sketch manifest at {manifest_path}") from exc
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"corrupt sketch manifest at {manifest_path}: {exc}"
            ) from exc
        if manifest.get("format_version") != _LEGACY_FORMAT_VERSION:
            raise StorageError(
                f"sketch manifest {manifest_path} has format_version "
                f"{manifest.get('format_version')}, expected "
                f"{_LEGACY_FORMAT_VERSION}"
            )
        config = SketchIndexConfig(
            num_perm=int(manifest["num_perm"]),
            bands=int(manifest["bands"]),
            rows=int(manifest["rows"]),
            seed=int(manifest["seed"]),
        )
        data_path = directory / str(manifest["data_file"])
        try:
            payload = data_path.read_bytes()
        except FileNotFoundError as exc:
            raise StorageError(f"missing sketch file at {data_path}") from exc
        if len(payload) != int(manifest["data_bytes"]):
            raise StorageError(
                f"sketch file {data_path} is {len(payload)} bytes, manifest "
                f"says {manifest['data_bytes']}"
            )
        if len(payload) < _LEGACY_HEADER.size:
            raise StorageError(f"sketch file {data_path} is truncated")
        magic, version, num_perm, count = _LEGACY_HEADER.unpack_from(payload, 0)
        if magic != _LEGACY_MAGIC or version != _LEGACY_FORMAT_VERSION:
            raise StorageError(
                f"sketch file {data_path} has bad magic/version "
                f"({magic!r}/{version})"
            )
        if num_perm != config.num_perm or count != int(manifest["count"]):
            raise StorageError(
                f"sketch file {data_path} disagrees with its manifest"
            )
        index = cls(config)
        offset = _LEGACY_HEADER.size
        signature_bytes = 8 * num_perm
        for _ in range(count):
            table_id, column_index, cardinality = _LEGACY_ENTRY.unpack_from(
                payload, offset
            )
            offset += _LEGACY_ENTRY.size
            packed = payload[offset : offset + signature_bytes]
            offset += signature_bytes
            index.add_column_sketch(
                ColumnSketch(table_id, column_index, cardinality, packed)
            )
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
