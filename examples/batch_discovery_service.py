"""Batch discovery serving: one index, query batches.

The other examples run one query at a time against a cold index.  This one
shows the serving facade (a :class:`repro.DiscoverySession`) that the
production-scale deployment would expose: the session serves one extended
inverted index, which memoises the fetch block of every value it has served
(so a probe value shared between queries is joined only once), and a whole
*batch* of :class:`repro.DiscoveryRequest` objects is answered in one
call.

Run with::

    python examples/batch_discovery_service.py
"""

from __future__ import annotations

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    QueryTable,
    ServiceConfig,
    Table,
    TableCorpus,
    build_index,
)


def build_corpus() -> TableCorpus:
    """A small data lake: person tables plus unrelated distractors."""
    corpus = TableCorpus(name="service-lake")
    corpus.create_table(
        name="employees_de",
        columns=["vorname", "nachname", "land", "besetzung"],
        rows=[
            ["Helmut", "Newton", "Germany", "Photographer"],
            ["Muhammad", "Lee", "US", "Dancer"],
            ["Ansel", "Adams", "UK", "Dancer"],
            ["Ansel", "Adams", "US", "Photographer"],
            ["Muhammad", "Ali", "US", "Boxer"],
            ["Muhammad", "Lee", "Germany", "Birder"],
        ],
    )
    corpus.create_table(
        name="payroll",
        columns=["first", "last", "country", "salary"],
        rows=[
            ["Muhammad", "Lee", "US", "60k"],
            ["Ansel", "Adams", "UK", "50k"],
            ["Helmut", "Newton", "Germany", "300k"],
            ["Gretchen", "Lee", "Germany", "70k"],
        ],
    )
    corpus.create_table(
        name="cities",
        columns=["city", "country", "population"],
        rows=[
            ["berlin", "germany", "3600000"],
            ["london", "uk", "8900000"],
            ["new york", "us", "8400000"],
        ],
    )
    return corpus


def build_queries() -> list[QueryTable]:
    """Three query tables; the first two share most of their probe values."""
    hr = Table(
        table_id=100,
        name="hr_export",
        columns=["f_name", "l_name", "country", "note"],
        rows=[
            ["Muhammad", "Lee", "US", "a"],
            ["Ansel", "Adams", "UK", "b"],
            ["Helmut", "Newton", "Germany", "c"],
        ],
    )
    audit = Table(
        table_id=101,
        name="audit_sample",
        columns=["f_name", "l_name", "country", "flag"],
        rows=[
            ["Muhammad", "Lee", "Germany", "x"],
            ["Ansel", "Adams", "US", "y"],
            ["Helmut", "Newton", "Germany", "z"],
        ],
    )
    census = Table(
        table_id=102,
        name="census_slice",
        columns=["city", "country", "code"],
        rows=[
            ["Berlin", "Germany", "b1"],
            ["London", "UK", "l1"],
        ],
    )
    return [
        QueryTable(table=hr, key_columns=["f_name", "l_name", "country"]),
        QueryTable(table=audit, key_columns=["f_name", "l_name", "country"]),
        QueryTable(table=census, key_columns=["city", "country"]),
    ]


def main() -> None:
    corpus = build_corpus()
    queries = build_queries()
    config = MateConfig(hash_size=128, k=2, expected_unique_values=100_000)

    # Offline: build the extended inverted index once.
    index = build_index(corpus, config=config)
    print(
        f"index: {index.num_posting_items()} posting items over "
        f"{len(index)} distinct values"
    )

    # Online: one session call answers the whole batch.
    session = DiscoverySession(
        corpus,
        index,
        config=config,
        service_config=ServiceConfig(max_workers=2),
    )
    requests = [DiscoveryRequest(query=query) for query in queries]
    batch = session.discover_batch(requests)

    print(f"\nbatch of {len(batch)} queries:")
    for query, result in zip(queries, batch):
        ranked = ", ".join(
            f"{entry.table_name} (joinability={entry.joinability})"
            for entry in result.tables
        )
        print(f"  {query.table.name}: {ranked}")

    # The index's fetch blocks stay memoised across batches: the same batch
    # again joins no posting list and answers the same.
    warm = session.discover_batch(requests)
    repeated = all(
        first.result_tuples() == again.result_tuples()
        for first, again in zip(batch, warm)
    )
    print(f"\nwarm batch identical to the first: {repeated}")

    # Serving is exact: the batch reproduces cold sequential engine runs.
    reference = build_index(corpus, config=config)
    engine = MateDiscovery(corpus, reference, config=config)
    identical = all(
        served.result_tuples() == engine.discover(query).result_tuples()
        for query, served in zip(queries, batch)
    )
    print(f"identical to sequential discovery: {identical}")


if __name__ == "__main__":
    main()
