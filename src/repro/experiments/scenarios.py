"""Deterministic skewed corpora the planner and sketch-tier tests run on.

These are fixture corpora, not studies: each builder returns a
``(corpus, query)`` pair whose shape makes one planning decision matter.

* **skew** — the query's first (and lowest-cardinality) key column is *hot*
  in the corpus: its four distinct values fetch long posting lists, while
  the second key column's values are rare.  The fixed first-column seed (and
  the classic cardinality heuristic) both walk into the hot column; the
  ``cost`` mode counts the posting volumes and seeds from the cold column.
* **drift** — a trap column that looks cheap to any evenly spaced sample:
  its probe values at every 12th position have tiny posting lists while
  every other value is hot.  A sample of 16 lengths would seed from it;
  ``cost`` mode counts every probed posting and seeds from the honest
  alternative.
* **sketch** — a handful of match tables genuinely joinable with the query
  key, and a large majority of noise tables sharing exactly one hot key
  value, so the exact engine must fetch and reject their posting lists while
  a containment-threshold LSH probe discards them up front.
"""

from __future__ import annotations

from ..datamodel import QueryTable, Table, TableCorpus
from .runner import ExperimentSettings

#: Query-table id (outside every corpus id range, mirroring the CLI).
_QUERY_TABLE_ID = 10_000_000


def _hot_run_length(settings: ExperimentSettings) -> int:
    """Posting-list length of one hot value (scaled, floor keeps skew real)."""
    return max(10, int(80 * settings.corpus_scale))


def _build_skew_scenario(
    settings: ExperimentSettings,
) -> tuple[TableCorpus, QueryTable]:
    """Hot first key column vs cold second key column."""
    hot_length = _hot_run_length(settings)
    num_pairs = 48
    hot_values = [f"h{i}" for i in range(4)]
    pairs = [(hot_values[i % 4], f"c{i:03d}") for i in range(num_pairs)]

    corpus = TableCorpus(name="planner_skew")
    # Noise tables: every hot value repeated, partnered with junk — long
    # posting lists for the hot column, zero joinability.
    for j in range(6):
        rows = [
            [hot, f"junk{j}_{hot}_{r}"]
            for hot in hot_values
            for r in range(hot_length // 6 + 1)
        ]
        corpus.add_table(Table(100 + j, f"noise_{j}", ["n1", "n2"], rows))
    # Match tables: genuine joinable rows with distinct joinability scores.
    for j in range(6):
        matched = pairs[: 8 + 4 * j]
        rows = [[hot, cold, f"pay{j}"] for hot, cold in matched]
        corpus.add_table(Table(200 + j, f"match_{j}", ["k1", "k2", "pay"], rows))

    query = QueryTable(
        table=Table(
            _QUERY_TABLE_ID,
            "planner_query_skew",
            ["hot", "cold", "payload"],
            [[hot, cold, f"p{i}"] for i, (hot, cold) in enumerate(pairs)],
        ),
        key_columns=["hot", "cold"],
    )
    return corpus, query


def _build_drift_scenario(
    settings: ExperimentSettings,
) -> tuple[TableCorpus, QueryTable]:
    """A trap column whose evenly spaced probe values hide the hot majority."""
    hot_length = _hot_run_length(settings) // 2
    num_pairs = 192
    pairs = [(f"t{i:03d}", f"a{i:03d}") for i in range(num_pairs)]
    # The probe order of the trap column is its first-seen order over the
    # sorted key tuples — with unique zero-padded values that is simply the
    # index order.  The values at every 12th position (where 16 evenly
    # spaced samples land) stay cold; every other one gets hot.
    sampled = set(range(0, num_pairs, 12))

    corpus = TableCorpus(name="planner_drift")
    for j in range(4):
        rows = [
            [trap, f"junk{j}_{i}_{r}"]
            for i, (trap, _alt) in enumerate(pairs)
            if i not in sampled
            for r in range(hot_length // 4 + 1)
        ]
        corpus.add_table(Table(100 + j, f"noise_{j}", ["n1", "n2"], rows))
    # The honest alternative: every alt value appears uniformly often (more
    # often than the trap's cold values, far less than its hot ones).
    for j in range(2):
        rows = [[f"alt{j}_{i}", alt] for i, (_trap, alt) in enumerate(pairs)]
        corpus.add_table(Table(150 + j, f"alt_noise_{j}", ["m1", "m2"], rows))
    # Match rows are spread evenly over the pair range.
    for j in range(6):
        matched = pairs[j::6][: 12 + 6 * j]
        rows = [[trap, alt, f"pay{j}"] for trap, alt in matched]
        corpus.add_table(Table(200 + j, f"match_{j}", ["k1", "k2", "pay"], rows))

    query = QueryTable(
        table=Table(
            _QUERY_TABLE_ID,
            "planner_query_drift",
            ["trap", "alt", "payload"],
            [[trap, alt, f"p{i}"] for i, (trap, alt) in enumerate(pairs)],
        ),
        key_columns=["trap", "alt"],
    )
    return corpus, query


def build_sketch_scenario(
    settings: ExperimentSettings,
) -> tuple[TableCorpus, QueryTable]:
    """Skewed corpus where LSH pruning pays: few matches, many hot-value lurkers.

    Every noise table repeats the query's hottest key value ``k00`` (long
    posting lists the exact engine must fetch) next to 20 unique junk rows
    (driving its column containment of the query towards zero); the four
    match tables contain genuine key pairs at joinabilities 12/18/24/30.
    """
    num_pairs = 40
    pairs = [(f"k{i:02d}", f"v{i:02d}") for i in range(num_pairs)]
    num_noise = max(15, int(120 * settings.corpus_scale))

    corpus = TableCorpus(name="sketch_skew")
    for j in range(num_noise):
        rows = [["k00", f"noise{j}_{r}"] for r in range(3)]
        rows += [[f"x{j}_{r:03d}", f"y{j}_{r:03d}"] for r in range(20)]
        corpus.add_table(Table(1000 + j, f"noise_{j}", ["n1", "n2"], rows))
    for j in range(4):
        matched = pairs[: 12 + 6 * j]
        rows = [[key, value, f"pay{j}"] for key, value in matched]
        corpus.add_table(Table(200 + j, f"match_{j}", ["k1", "k2", "pay"], rows))

    query = QueryTable(
        table=Table(
            _QUERY_TABLE_ID,
            "sketch_query",
            ["a", "b", "payload"],
            [[key, value, f"p{i}"] for i, (key, value) in enumerate(pairs)],
        ),
        key_columns=["a", "b"],
    )
    return corpus, query
