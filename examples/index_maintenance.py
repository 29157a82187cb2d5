"""Index maintenance: keeping the MATE index consistent under corpus edits.

Section 5.4 of the paper describes how the extended inverted index reacts to
inserts, updates, and deletes at table, row, column and cell granularity.
This example applies each edit kind through a
:class:`~repro.api.session.DiscoverySession` over a
:class:`~repro.ingest.LiveIndex` kept in a temporary directory: inserting or
deleting a table is one ``ingest`` / ``remove``, and every finer edit is
``remove`` of the table followed by ``ingest`` of its edited copy (the
rebuilt rows get fresh super keys, the paper's rehash).  After every step
the live index is checked against a bulk build of the edited corpus.  The
pair is not atomic: a request between the two calls does not see the table.
Finally the directory is sealed, merged, closed and reopened, and the
reopened index fetches exactly what the one that wrote it did.

Run with::

    python examples/index_maintenance.py
"""

from __future__ import annotations

import tempfile

from repro import DiscoveryRequest, DiscoverySession, LiveIndex, MateConfig, build_index
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.index import InvertedIndex, storage_report


def fetched_columns(index, values: list[str]) -> list[tuple]:
    """What ``fetch_batch`` returns, column by column, as plain values."""
    return [
        (block.value, list(block.table_ids), list(block.column_indexes),
         list(block.row_indexes), bytes(block.super_key_bytes))
        for block in index.fetch_batch(values)
    ]


def visible_corpus(session: DiscoverySession, live: LiveIndex) -> TableCorpus:
    """The tables the live index serves, in the order it took them."""
    sequences = live.table_sequences()
    order = sorted(sequences, key=sequences.get)
    return TableCorpus(
        name="bulk", tables=[session.corpus.get_table(table_id) for table_id in order]
    )


def report(label: str, session: DiscoverySession, live: LiveIndex) -> None:
    tables = visible_corpus(session, live)
    bulk = build_index(tables, config=live.config)
    values = sorted(bulk.values())
    same = fetched_columns(live, values) == fetched_columns(bulk, values)
    status = "matches a bulk build" if same else "MISMATCH with a bulk build"
    print(f"  after {label:<28} postings={live.num_posting_items():>4} "
          f"values={len(values):>4} tables={len(tables):>2}  [{status}]")


def edit(session: DiscoverySession, table_id: int, columns=None, rows=None) -> None:
    """Replace table ``table_id`` with an edited copy: remove, then ingest."""
    table = session.corpus.get_table(table_id)
    edited = Table(
        table_id,
        table.name,
        list(table.columns if columns is None else columns),
        [list(row) for row in (table.rows if rows is None else rows)],
    )
    session.remove(table_id)
    session.ingest(edited)


def main() -> None:
    config = MateConfig(hash_size=128, k=2, expected_unique_values=700_000_000)
    employees = Table(
        table_id=0,
        name="employees",
        columns=["first", "last", "city"],
        rows=[
            ["ada", "lovelace", "london"],
            ["alan", "turing", "cambridge"],
            ["grace", "hopper", "new york"],
        ],
    )
    offices = Table(
        table_id=1,
        name="offices",
        columns=["city", "country"],
        rows=[["london", "uk"], ["cambridge", "uk"], ["berlin", "germany"]],
    )

    with tempfile.TemporaryDirectory() as directory:
        live = LiveIndex.open(directory, config=config)
        session = DiscoverySession(
            TableCorpus(name="editable-lake"), live, config=config
        )
        session.ingest(employees)
        session.ingest(offices)
        print("initial state:")
        report("ingesting two tables", session, live)
        # Seal the two tables into a segment: the edits below mask their
        # segment copies with tombstones, as they would on a long-lived lake.
        live.seal()

        print("\napplying Section 5.4 edit operations:")
        session.ingest(
            Table(
                table_id=2,
                name="projects",
                columns=["owner_last", "city", "budget"],
                rows=[["lovelace", "london", "100"], ["turing", "cambridge", "250"]],
            )
        )
        report("insert table 'projects'", session, live)

        rows = session.corpus.get_table(0).rows
        edit(session, 0, rows=[*rows, ["katherine", "johnson", "hampton"]])
        report("insert row into 'employees'", session, live)

        table = session.corpus.get_table(1)
        edit(
            session,
            1,
            columns=[*table.columns, "timezone"],
            rows=[[*row, zone] for row, zone in zip(table.rows, ["utc", "utc", "cet"])],
        )
        report("insert column 'timezone'", session, live)

        rows = [list(row) for row in session.corpus.get_table(0).rows]
        rows[2][2] = "arlington"
        edit(session, 0, rows=rows)
        report("update grace hopper's city", session, live)

        edit(session, 1, rows=session.corpus.get_table(1).rows[:2])
        report("delete the berlin office row", session, live)

        table = session.corpus.get_table(0)
        edit(session, 0, columns=["first", "last"], rows=[row[:2] for row in table.rows])
        report("delete column 'city'", session, live)

        session.remove(1)
        report("delete table 'offices'", session, live)

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
        result = session.discover(DiscoveryRequest(query=query, engine="live"))
        print("\ndiscovery on the edited corpus, key <last, city>:")
        for entry in result.tables:
            name = session.corpus.get_table(entry.table_id).name
            print(f"  {name:<12} joinability={entry.joinability}")

        # Storage footprint of the two super-key layouts (Section 7.1).
        storage = storage_report(InvertedIndex(live.snapshot().block))
        print("\nindex storage footprint:")
        print(f"  postings:             {storage.posting_bytes} B")
        print(f"  super keys per cell:  {storage.super_key_bytes_per_cell} B")
        print(f"  super keys per row:   {storage.super_key_bytes_per_row} B")

        # Persist: seal the buffer, merge the segments (purging what the
        # tombstones mask), close, and reopen the directory.
        values = sorted(build_index(visible_corpus(session, live), config=config).values())
        before = fetched_columns(live, values)
        live.seal()
        live.merge()
        session.close()
        live.close()
        reopened = LiveIndex.open(directory, config=config)
        same = fetched_columns(reopened, values) == before
        print(f"\nreopened the directory ({reopened.num_segments} segment): "
              f"{reopened.num_posting_items()} postings "
              f"({'identical' if same else 'MISMATCH'})")
        reopened.close()


if __name__ == "__main__":
    main()
