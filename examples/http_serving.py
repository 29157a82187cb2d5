"""Process-parallel HTTP serving: worker pool, admission control, drain.

The other examples call the library in process.  This one runs the full
serving stack a deployment would: a :class:`repro.DiscoverySession` in
``execution="process"`` mode (one worker process per corpus shard, each
mapping its shard's ``.seg`` segment read-only), fronted by the asyncio
HTTP server with admission control.  A client then talks to it over real
sockets and verifies the deployment contract — the served top-k is exactly
what an in-process engine returns — before draining the server gracefully.

Run with::

    python examples/http_serving.py
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.request

from repro import (
    AdmissionController,
    DiscoveryHTTPServer,
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    QueryTable,
    ServeConfig,
    Table,
    TableCorpus,
    TenantQuota,
)

NUM_SHARDS = 2
K = 3


def build_corpus() -> TableCorpus:
    """A small data lake: person tables spread across two shards."""
    corpus = TableCorpus(name="serving-lake")
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
            ["Berlin", "Germany", "3600000"],
            ["Hamburg", "Germany", "1800000"],
            ["London", "UK", "9000000"],
        ],
    )
    corpus.create_table(
        name="sports",
        columns=["athlete", "sport"],
        rows=[
            ["Muhammad", "Boxing"],
            ["Gretchen", "Golf"],
        ],
    )
    return corpus


def build_query() -> QueryTable:
    table = Table(
        table_id=0,
        name="people",
        columns=["f_name", "l_name", "country"],
        rows=[
            ["Muhammad", "Lee", "US"],
            ["Ansel", "Adams", "UK"],
            ["Helmut", "Newton", "Germany"],
        ],
    )
    return QueryTable(table=table, key_columns=["f_name", "l_name", "country"])


def post_discover(base_url: str, query: QueryTable) -> dict:
    body = {
        "query": {
            "name": query.table.name,
            "columns": list(query.table.columns),
            "rows": [list(row) for row in query.table.rows],
        },
        "key_columns": list(query.key_columns),
        "k": K,
        "engine": "sharded",
    }
    request = urllib.request.Request(
        f"{base_url}/v1/discover",
        data=json.dumps(body).encode("utf-8"),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.load(response)


def main() -> None:
    corpus = build_corpus()
    query = build_query()
    config = MateConfig(hash_size=128, expected_unique_values=100_000)

    # The in-process reference the served results must match byte for byte.
    with DiscoverySession(corpus, config=config) as reference_session:
        reference = reference_session.discover(
            DiscoveryRequest(query=query, k=K, engine="sharded")
        )
        expected = json.loads(json.dumps(reference.to_dict()))["tables"]

    session = DiscoverySession(
        corpus,
        config=config,
        execution="process",
        serve_config=ServeConfig(num_shards=NUM_SHARDS),
    )
    server = DiscoveryHTTPServer(
        session,
        admission=AdmissionController(
            max_pending=8, tenant_quota=TenantQuota(max_inflight=4)
        ),
    )

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30)
        base_url = f"http://{server.host}:{server.port}"
        print(f"serving {len(corpus)} tables on {base_url} "
              f"({NUM_SHARDS} worker processes)")

        envelope = post_discover(base_url, query)
        print(f"top-{K} over HTTP:")
        for entry in envelope["tables"]:
            print(
                f"  table {entry['table_id']}: "
                f"joinability={entry['joinability']}"
            )
        print(
            "served top-k identical to in-process engine: "
            f"{envelope['tables'] == expected}"
        )

        stats = json.load(
            urllib.request.urlopen(f"{base_url}/v1/stats", timeout=30)
        )
        print(
            f"admission stats: {stats['admission']['admitted_total']} admitted, "
            f"{stats['admission']['rejected_total']} rejected"
        )

        asyncio.run_coroutine_threadsafe(
            server.drain_and_stop(), loop
        ).result(timeout=30)
        print("server drained cleanly")
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()
        session.close()


if __name__ == "__main__":
    main()
