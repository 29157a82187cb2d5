"""MinHash never changes a bit: golden signatures of a small fixed corpus.

A persisted ``.sk`` file (``SketchIndex.save``) is compared against freshly
signed query values, so a drifted bit in a column signature silently costs
recall on every store saved before it.  ``tests/data/minhash_golden.json`` holds the
sha256 of every packed column signature of :func:`golden_corpus`, of a few
query-side signatures, and of the ``.sk`` file the store saves; it was
generated by the implementation those files were written with.  Never
regenerate it to make a test pass.

The corpus covers unicode, a value repeated across the columns of one table
and across tables, an all-missing column, a one-row table and a 40-column
table.  Every entry point that signs columns is held to the same vectors:
``SketchIndex.add_table``, ``build_sketch_index``, and the store a session
signs at its first sketch read — over a bulk-built index, a live index and
a reopened live directory.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro import DiscoverySession, MateConfig, SketchIndex, build_sketch_index
from repro.datamodel import MISSING, Table, TableCorpus
from repro.ingest import LiveIndex

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "minhash_golden.json").read_text(encoding="utf-8")
)

#: Packed signatures and ``.sk`` files are native-order ``uint64``.
pytestmark = pytest.mark.skipif(
    sys.byteorder != "little", reason="the golden bytes are little-endian"
)

#: Value sets signed on the query side (``SketchIndex.signature``).
PROBES = {
    "unicode": ["İstanbul", "straße", "漢字", "naïve", "🎉 party"],
    "shared": ["shared"],
    "numbers": [str(i) for i in range(50)],
    "empty": [],
}


def golden_corpus() -> TableCorpus:
    """The fixed corpus the golden vectors sign (ids deliberately unsorted)."""
    corpus = TableCorpus(name="minhash_golden")
    corpus.add_table(
        Table(
            7,
            "unicode",
            ["city", "word", "echo"],
            [
                ["İstanbul", "straße", "shared"],
                ["漢字", "naïve", "İstanbul"],
                ["🎉 party", "Ωmega", "shared"],
                ["İstanbul", "x y", "漢字"],
            ],
        )
    )
    corpus.add_table(
        Table(
            3,
            "with_a_blank_column",
            ["id", "blank", "value"],
            [[str(i), MISSING, "shared" if i % 4 == 0 else f"v{i}"] for i in range(30)],
        )
    )
    corpus.add_table(Table(12, "one_row", ["a", "b"], [["shared", "lonely"]]))
    corpus.add_table(
        Table(
            5,
            "forty_columns",
            [f"c{column}" for column in range(40)],
            [
                [
                    MISSING if (row + column) % 11 == 0 else f"c{column % 13}_{row % 3}"
                    for column in range(40)
                ]
                for row in range(6)
            ],
        )
    )
    corpus.add_table(
        Table(
            9,
            "many_values",
            ["n", "sparse"],
            [[str(i), str(i * 7) if i % 3 else MISSING] for i in range(300)],
        )
    )
    return corpus


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_record(store: SketchIndex, directory: Path) -> dict:
    """What the golden file pins of a store built from :func:`golden_corpus`."""
    sketches = store.column_sketches()
    return {
        "signatures": {
            f"{sketch.table_id}/{sketch.column_index}": {
                "cardinality": sketch.cardinality,
                "sha256": digest(sketch.packed),
            }
            for sketch in sketches
        },
        "probes": {
            name: digest(b"".join(slot.to_bytes(8, "little") for slot in store.signature(values)))
            for name, values in PROBES.items()
        },
        "sk_sha256": digest(store.save(directory, stem="golden", fsync=False).read_bytes()),
    }


def test_the_vectors_cover_what_they_claim():
    corpus = golden_corpus()
    assert any(table.num_columns == 40 for table in corpus)
    assert any(table.num_rows == 1 for table in corpus)
    # The all-missing column has no sketch; every other column has one.
    assert "3/1" not in GOLDEN["signatures"]
    assert len(GOLDEN["signatures"]) == sum(
        1
        for table in corpus
        for column in range(table.num_columns)
        if table.distinct_column_values(column)
    )
    assert GOLDEN["config"] == {"num_perm": 128, "bands": 64, "rows": 2, "seed": 1_000_003}


def stores(tmp_path: Path):
    corpus = golden_corpus()
    by_table = SketchIndex()
    for table in corpus:
        by_table.add_table(table)
    yield "add_table", by_table
    yield "build_sketch_index", build_sketch_index(corpus)
    with DiscoverySession(corpus, config=MateConfig()) as session:
        yield "session", session.sketch_index()
    live = LiveIndex(config=MateConfig(), directory=tmp_path / "live", fsync=False)
    try:
        with DiscoverySession(TableCorpus(name="live"), live) as session:
            for table in corpus:
                session.ingest(table)
            live.seal()
            yield "live", session.sketch_index()
    finally:
        live.close()
    reopened = LiveIndex(config=MateConfig(), directory=tmp_path / "live", fsync=False)
    try:
        with DiscoverySession(corpus, reopened) as session:
            yield "reopened", session.sketch_index()
    finally:
        reopened.close()


def test_every_entry_point_signs_the_golden_bits(tmp_path):
    expected = {key: GOLDEN[key] for key in ("signatures", "probes", "sk_sha256")}
    for name, store in stores(tmp_path):
        assert golden_record(store, tmp_path / name) == expected, name


def test_the_persisted_file_reads_back_to_the_golden_bits(tmp_path):
    store = build_sketch_index(golden_corpus())
    path = store.save(tmp_path, stem="golden", fsync=False)
    loaded = SketchIndex.load(tmp_path, "golden")
    record = golden_record(loaded, tmp_path / "again")
    assert record["sk_sha256"] == GOLDEN["sk_sha256"] == digest(path.read_bytes())
    assert record["signatures"] == GOLDEN["signatures"]
