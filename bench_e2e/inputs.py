"""Seeded input generation and the correctness oracle of the benchmark.

The program under test only ever sees what this module generates: a table
corpus, query tables, and the planting records.  Generation reuses the
repository's own generators (``generate_entity_query``,
``plant_joinable_table`` / ``plant_distractor_table`` with the parameter
draws of ``build_workload``); what is added here is the split between a
fixed *shape* stream and the ``--seed``-driven *value* stream (see
``config.SHAPE_SEED``), an output-identical fast path for
``vocab.zipf_choice``, and an exact joinability oracle that shares no code
with the engines.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.datagen import vocab
from repro.datagen.corpora import COLUMN_FACTORIES, PROFILES, CorpusProfile
from repro.datagen.planting import (
    PlantedTable,
    plant_distractor_table,
    plant_joinable_table,
)
from repro.datagen.queries import generate_entity_query
from repro.datamodel import MISSING, QueryTable, Table, TableCorpus

from .config import SHAPE_SEED, InputSpec


@contextmanager
def _fast_zipf_choice():
    """Swap ``vocab.zipf_choice`` for a memoising twin while generating.

    The library recomputes the rank weights (and copies the vocabulary) on
    every draw — 280 us per ``token`` cell, 90 % of generation time.  The
    twin caches the cumulative weights per vocabulary; ``random.choices``
    accumulates given weights the same way internally, so every draw is
    bit-identical to the library's.
    """
    cache: dict[tuple[int, float], tuple[list[str], list[float]]] = {}

    def zipf_choice(rng: random.Random, values, skew: float = 1.2) -> str:
        if not values:
            raise ValueError("cannot sample from an empty sequence")
        entry = cache.get((id(values), skew))
        if entry is None:
            weights = [1.0 / (rank**skew) for rank in range(1, len(values) + 1)]
            entry = (list(values), list(itertools.accumulate(weights)))
            cache[(id(values), skew)] = entry
        return rng.choices(entry[0], cum_weights=entry[1], k=1)[0]

    original = vocab.zipf_choice
    vocab.zipf_choice = zipf_choice
    try:
        yield
    finally:
        vocab.zipf_choice = original


@dataclass
class WorkloadInputs:
    """Everything a workload hands to the program, plus ground truth."""

    corpus: TableCorpus
    queries: list[QueryTable]
    #: Query index -> planting records of that query.
    planted: dict[int, list[PlantedTable]]
    #: Ids of the unplanted (base) tables, in generation order.
    base_table_ids: list[int]
    #: Seconds spent generating (benchmark work, never part of a metric
    #: except ``bench.generate_s``).
    generate_s: float = 0.0
    _oracle: "ExactOracle | None" = field(default=None, repr=False)

    def oracle(self) -> "ExactOracle":
        if self._oracle is None:
            self._oracle = ExactOracle(self.corpus)
        return self._oracle


def _column_names(column_types: list[str]) -> list[str]:
    counts: dict[str, int] = {}
    names = []
    for column_type in column_types:
        seen = counts.get(column_type, 0)
        names.append(column_type if seen == 0 else f"{column_type}_{seen + 1}")
        counts[column_type] = seen + 1
    return names


def _add_base_tables(
    corpus: TableCorpus,
    profile: CorpusProfile,
    shape_rng: random.Random,
    value_rng: random.Random,
) -> None:
    """The profile's random tables: shapes from one stream, cells from another.

    Shapes follow ``SyntheticCorpusGenerator.add_random_table`` draw for
    draw; only the cell values come from the ``--seed`` stream, so every
    seed sees the same table sizes and column types with different content.
    """
    for _ in range(profile.num_tables):
        if shape_rng.random() < profile.wide_table_fraction:
            num_columns = shape_rng.randint(
                profile.max_columns,
                max(profile.wide_max_columns, profile.max_columns),
            )
        else:
            num_columns = shape_rng.randint(
                profile.min_columns, profile.max_columns
            )
        num_rows = shape_rng.randint(profile.min_rows, profile.max_rows)
        column_types = [
            shape_rng.choice(profile.column_types) for _ in range(num_columns)
        ]
        factories = [COLUMN_FACTORIES[column_type] for column_type in column_types]
        rows = [
            [factory(value_rng) for factory in factories]
            for _ in range(num_rows)
        ]
        corpus.create_table(
            name=f"table_{profile.name}_{corpus.next_table_id()}",
            columns=_column_names(column_types),
            rows=rows,
        )


def generate_inputs(spec: InputSpec, seed: int, name: str) -> WorkloadInputs:
    """Build corpus, queries and planting records for one workload."""
    return generate_from_streams(
        spec,
        name,
        shape_rng=random.Random(f"{SHAPE_SEED}:{name}:shape"),
        plant_rng=random.Random(f"{SHAPE_SEED}:{name}:plant"),
        value_rng=random.Random(f"{seed}:{name}:values"),
    )


def generate_from_streams(
    spec: InputSpec,
    name: str,
    *,
    shape_rng: random.Random,
    plant_rng: random.Random,
    value_rng: random.Random,
) -> WorkloadInputs:
    """:func:`generate_inputs` on explicit random streams.

    With ``shape_rng is value_rng`` and one query class this draws exactly
    what ``repro.datagen.build_workload`` draws; the smoke test holds the
    two against each other so the copies here cannot drift unnoticed.
    """
    started = time.perf_counter()
    profile = PROFILES[spec.profile].scaled(spec.base_scale)
    corpus = TableCorpus(name=f"{name}_corpus")
    queries: list[QueryTable] = []
    planted: dict[int, list[PlantedTable]] = {}
    with _fast_zipf_choice():
        _add_base_tables(corpus, profile, shape_rng, value_rng)
        base_table_ids = corpus.table_ids()
        for query_class in spec.classes:
            for _ in range(query_class.count):
                query_index = len(queries)
                query = generate_entity_query(
                    1_000_000 + query_index,
                    plant_rng,
                    cardinality=query_class.cardinality,
                    key_size=query_class.key_size,
                    name=f"{name}_query_{query_index}",
                )
                queries.append(query)
                planted[query_index] = _plant(corpus, query, plant_rng, spec)
    return WorkloadInputs(
        corpus=corpus,
        queries=queries,
        planted=planted,
        base_table_ids=base_table_ids,
        generate_s=time.perf_counter() - started,
    )


def _plant(
    corpus: TableCorpus, query: QueryTable, rng: random.Random, spec: InputSpec
) -> list[PlantedTable]:
    """Plant one query's tables with ``build_workload``'s parameter draws."""
    records: list[PlantedTable] = []
    cardinality = max(len(query.key_tuples()), 1)
    for plant_index in range(spec.joinable_per_query):
        fraction = 0.2 + 0.8 * (plant_index + 1) / spec.joinable_per_query
        records.append(
            plant_joinable_table(
                corpus,
                query,
                rng,
                joinability=max(1, int(cardinality * fraction)),
                noise_rows=rng.randint(5, 15),
                partial_rows=min(rng.randint(1, 3) * cardinality, 400),
            )
        )
    for _ in range(spec.distractors_per_query):
        records.append(
            plant_distractor_table(
                corpus,
                query,
                rng,
                matching_rows=min(rng.randint(2, 5) * cardinality, 600),
                noise_rows=rng.randint(5, 15),
            )
        )
    return records


def non_empty_cells(tables) -> int:
    """Number of non-missing cells (the denominator of bytes-per-cell)."""
    return sum(
        1 for table in tables for row in table.rows for value in row
        if value != MISSING
    )


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
class ExactOracle:
    """Exact top-k n-ary joinability (Eq. 2) from a value -> rows map.

    Independent of ``repro.core`` / ``repro.index``: for every query key
    tuple it intersects the row sets of the tuple's values, enumerates the
    injective column assignments of each surviving row, and scores a table
    by the best-supported assignment.  Ties rank by ascending table id, as
    the engines report them.
    """

    def __init__(self, tables):
        self._tables: dict[int, Table] = {}
        self._rows_of: dict[str, set[tuple[int, int]]] = defaultdict(set)
        for table in tables:
            self.add_table(table)

    def add_table(self, table: Table) -> None:
        self._tables[table.table_id] = table
        rows_of = self._rows_of
        for row_index, row in enumerate(table.rows):
            location = (table.table_id, row_index)
            for value in row:
                if value != MISSING:
                    rows_of[value].add(location)

    def remove_table(self, table_id: int) -> None:
        table = self._tables.pop(table_id)
        for row_index, row in enumerate(table.rows):
            location = (table_id, row_index)
            for value in row:
                if value != MISSING:
                    self._rows_of[value].discard(location)

    def scores(self, query: QueryTable) -> dict[int, int]:
        """Joinability of every table with a non-zero score."""
        support: dict[int, dict[tuple[int, ...], set]] = defaultdict(
            lambda: defaultdict(set)
        )
        for key_tuple in query.key_tuples():
            if any(value == MISSING for value in key_tuple):
                continue
            row_sets = sorted(
                (self._rows_of.get(value, set()) for value in key_tuple), key=len
            )
            locations = set.intersection(*row_sets) if row_sets[0] else set()
            for table_id, row_index in locations:
                row = self._tables[table_id].rows[row_index]
                positions = [
                    [index for index, cell in enumerate(row) if cell == value]
                    for value in key_tuple
                ]
                for mapping in itertools.product(*positions):
                    if len(set(mapping)) == len(mapping):
                        support[table_id][mapping].add(key_tuple)
        return {
            table_id: max(len(tuples) for tuples in mappings.values())
            for table_id, mappings in support.items()
        }

    def mapping_score(
        self, query: QueryTable, table_id: int, mapping: tuple[int, ...]
    ) -> int:
        """Joinability the given column mapping achieves on ``table_id``."""
        table = self._tables[table_id]
        projected = {tuple(row[column] for column in mapping) for row in table.rows}
        return len(query.key_tuples() & projected)


def result_rows(tables) -> list[tuple[int, int, tuple[int, ...] | None]]:
    """``(table_id, joinability, column_mapping)`` of ranked result tables.

    Accepts ``TableResult`` objects or the dicts of the JSON envelope.
    """
    rows = []
    for entry in tables:
        if isinstance(entry, dict):
            mapping = entry.get("column_mapping")
            rows.append(
                (
                    int(entry["table_id"]),
                    int(entry["joinability"]),
                    None if mapping is None else tuple(mapping),
                )
            )
        else:
            rows.append((entry.table_id, entry.joinability, entry.column_mapping))
    return rows


def topk_digest(per_query: dict[int, list]) -> str:
    """sha256 over the ordered ``(query, table_id, joinability, mapping)``."""
    digest = hashlib.sha256()
    for query_index in sorted(per_query):
        for table_id, joinability, mapping in per_query[query_index]:
            digest.update(
                f"{query_index}|{table_id}|{joinability}|{mapping}\n".encode()
            )
    return digest.hexdigest()


def check_result(
    inputs: WorkloadInputs,
    query_index: int,
    rows: list[tuple[int, int, tuple[int, ...] | None]],
    complete: bool,
    k: int,
    oracle: ExactOracle | None = None,
) -> str | None:
    """Return why one answer is wrong, or ``None`` when it is correct.

    Correct means: ``complete``; the ranked joinability scores equal the
    exact top-k scores and every reported table really has its reported
    score (so any exact top-k is accepted — which of several tables tied at
    the k-th score makes the cut is the engine's choice); the ranking is
    best first, ties by ascending table id; every reported column mapping
    achieves the reported joinability; and every planted joinable table
    that made the top-k scores at least its planted joinability.
    """
    if not complete:
        return "result is not complete"
    oracle = oracle or inputs.oracle()
    query = inputs.queries[query_index]
    exact = oracle.scores(query)
    expected = sorted(exact.items(), key=lambda pair: (-pair[1], pair[0]))[:k]
    got = [(table_id, joinability) for table_id, joinability, _ in rows]
    if [score for _, score in got] != [score for _, score in expected]:
        return f"top-k {got} does not have the exact top-k scores {expected}"
    if got != sorted(got, key=lambda pair: (-pair[1], pair[0])):
        return f"top-k {got} is not ranked best first, ties by table id"
    for table_id, joinability in got:
        if exact.get(table_id, 0) != joinability:
            return (
                f"table {table_id} reported {joinability}, exact joinability "
                f"is {exact.get(table_id, 0)}"
            )
    for table_id, joinability, mapping in rows:
        if mapping is None:
            return f"table {table_id} has no column mapping"
        if oracle.mapping_score(query, table_id, mapping) != joinability:
            return f"mapping {mapping} of table {table_id} does not score {joinability}"
    scored = dict(got)
    for record in inputs.planted.get(query_index, []):
        if record.is_distractor or record.table_id not in scored:
            continue
        if scored[record.table_id] < record.planted_joinability:
            return (
                f"planted table {record.table_id} scores {scored[record.table_id]}"
                f" < planted {record.planted_joinability}"
            )
    return None


def self_check(result, inputs: WorkloadInputs, reference: dict, query_index: int,
               k: int, oracle: ExactOracle | None = None) -> None:
    """``--self-check``: corrupt one reference answer; the gate must trip.

    The perturbed answer goes through the same ``check_result`` as every
    real one and replaces the reference, so the digest changes as well.
    """
    rows = list(reference[query_index])
    table_id, joinability, mapping = rows[0]
    rows[0] = (table_id, joinability + 1, mapping)
    result.attempted += 1
    why = check_result(inputs, query_index, rows, True, k, oracle)
    if why is not None:
        result.fail(f"self-check: perturbed query {query_index}: {why}")
    reference[query_index] = rows
