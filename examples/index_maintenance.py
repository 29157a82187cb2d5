"""Index maintenance: keeping the MATE index consistent under corpus edits.

Section 5.4 of the paper describes how the extended inverted index reacts to
inserts, updates, and deletes.  This example applies each edit type through
:class:`repro.index.IndexMaintainer`, shows which parts of the index change,
and verifies consistency after every step.  It also writes the edited index
to a ``.seg`` segment, the persisted index format, and maps it back.

Run with::

    python examples/index_maintenance.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import MateConfig, MateDiscovery, build_index
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.hashing import SuperKeyGenerator
from repro.index import IndexMaintainer, storage_report
from repro.storage import load_segment, write_segment


def report(label: str, maintainer: IndexMaintainer) -> None:
    index = maintainer.index
    issues = maintainer.verify_consistency()
    status = "consistent" if not issues else f"INCONSISTENT: {issues}"
    print(f"  after {label:<28} postings={index.num_posting_items():>4} "
          f"values={len(index):>4} rows={index.num_rows():>4}  [{status}]")


def fetched_columns(index, values: list[str]) -> list[tuple]:
    """What ``fetch_batch`` returns, column by column, as plain values."""
    return [
        (block.value, list(block.table_ids), list(block.column_indexes),
         list(block.row_indexes), bytes(block.super_key_bytes))
        for block in index.fetch_batch(values)
    ]


def main() -> None:
    config = MateConfig(hash_size=128, k=2, expected_unique_values=700_000_000)

    corpus = TableCorpus(name="editable-lake")
    corpus.add_table(
        Table(
            table_id=0,
            name="employees",
            columns=["first", "last", "city"],
            rows=[
                ["ada", "lovelace", "london"],
                ["alan", "turing", "cambridge"],
                ["grace", "hopper", "new york"],
            ],
        )
    )
    corpus.add_table(
        Table(
            table_id=1,
            name="offices",
            columns=["city", "country"],
            rows=[["london", "uk"], ["cambridge", "uk"], ["berlin", "germany"]],
        )
    )

    index = build_index(corpus, config=config)
    generator = SuperKeyGenerator.from_name("xash", config)
    maintainer = IndexMaintainer(corpus, index, generator)

    print("initial state:")
    report("building the index", maintainer)

    print("\napplying Section 5.4 edit operations:")
    maintainer.insert_table(
        Table(
            table_id=2,
            name="projects",
            columns=["owner_last", "city", "budget"],
            rows=[["lovelace", "london", "100"], ["turing", "cambridge", "250"]],
        )
    )
    report("insert table 'projects'", maintainer)

    maintainer.insert_row(0, ["katherine", "johnson", "hampton"])
    report("insert row into 'employees'", maintainer)

    maintainer.insert_column(1, "timezone", ["utc", "utc", "cet"])
    report("insert column 'timezone'", maintainer)

    maintainer.update_cell(0, 2, 2, "arlington")
    report("update grace hopper's city", maintainer)

    maintainer.delete_row(1, 2)
    report("delete the berlin office row", maintainer)

    maintainer.delete_column(0, "city")
    report("delete column 'city'", maintainer)

    # The index stays immediately queryable after every edit.
    query = QueryTable(
        table=Table(
            table_id=99,
            name="q",
            columns=["last", "city"],
            rows=[["lovelace", "london"], ["turing", "cambridge"]],
        ),
        key_columns=["last", "city"],
    )
    result = MateDiscovery(corpus, index, config=config).discover(query)
    print("\ndiscovery on the edited corpus, key <last, city>:")
    for entry in result.tables:
        print(f"  {corpus.get_table(entry.table_id).name:<12} joinability={entry.joinability}")

    # Storage footprint of the two super-key layouts (Section 7.1).
    storage = storage_report(index)
    print("\nindex storage footprint:")
    print(f"  postings:             {storage.posting_bytes} B")
    print(f"  super keys per cell:  {storage.super_key_bytes_per_cell} B")
    print(f"  super keys per row:   {storage.super_key_bytes_per_row} B")

    # Persist as a segment file and map it back.
    with tempfile.TemporaryDirectory() as tmp:
        path = write_segment(index, Path(tmp) / "edited.seg")
        reloaded = load_segment(path)
        values = sorted(index.values())
        same = fetched_columns(reloaded, values) == fetched_columns(index, values)
        print(f"\npersisted to {path.name}: the mapped index has "
              f"{reloaded.num_posting_items()} postings "
              f"({'identical' if same else 'MISMATCH'})")
        reloaded.close()


if __name__ == "__main__":
    main()
