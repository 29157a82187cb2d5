"""Small shared assertion helpers for the test-suite."""

from __future__ import annotations

import time
from typing import NamedTuple


class FetchedItem(NamedTuple):
    """One posting as line 4 of Algorithm 1 fetches it, with its row's key."""

    value: str
    table_id: int
    column_index: int
    row_index: int
    super_key: int


def _unpacked(packed, width: int) -> list[int]:
    packed = bytes(packed)
    return [
        int.from_bytes(packed[at : at + width], "big")
        for at in range(0, len(packed), width)
    ]


def block_items(block) -> list[FetchedItem]:
    """A ``FetchBlock``'s columns as per-item records, posting order."""
    columns = (block.table_ids, block.column_indexes, block.row_indexes)
    keys = _unpacked(block.super_key_bytes, block.key_width)
    return [FetchedItem(block.value, *item) for item in zip(*columns, keys)]


def fetch_items(index, values) -> list[FetchedItem]:
    """The per-item oracle of ``fetch_batch``: its blocks, flattened."""
    return [item for block in index.fetch_batch(values) for item in block_items(block)]


def row_keys(index) -> list[tuple[int, int, int]]:
    """``(table_id, row_index, super_key)`` per row of an index's block."""
    block = index.block
    keys = _unpacked(block.row_keys, block.key_width)
    return list(zip(block.row_table_ids, block.row_row_indexes, keys))


def block_postings(block):
    """``(value, table_ids, column_indexes, row_indexes)`` of every value of
    a ``SegmentBlock``, vocabulary order: the row columns joined through the
    ordinals once, then sliced per value."""
    from repro.index.columnar import column_view

    columns = block.arrays()
    table_ids = column_view(columns.row_tables[columns.ordinals], "q")
    row_indexes = column_view(columns.row_rows[columns.ordinals], "q")
    bounds, column_indexes = block.posting_offsets, block.column_indexes
    for value, at, end in zip(block.values, bounds, bounds[1:]):
        yield value, table_ids[at:end], column_indexes[at:end], row_indexes[at:end]


class CellIndex:
    """The per-cell reference index: ``value -> three lists`` and
    ``(table, row) -> int key``, filled one cell at a time.

    The oracle of every path that lays a block out — the bulk build, the
    ingest buffer, merges, edits and shards.  :meth:`to_block` goes through
    the one shared constructor, ``SegmentBlock.from_postings``; ``keys`` may
    be set directly (a key wider than the packed width is refused there).
    """

    def __init__(self, hash_size=128, hash_function_name="xash", generator=None):
        self.hash_size = hash_size
        self.hash_function_name = hash_function_name
        self.generator = generator
        self.postings: dict[str, tuple[list, list, list]] = {}
        self.keys: dict[tuple[int, int], int] = {}

    @classmethod
    def built(cls, tables, config=None, hash_function_name="xash"):
        """The reference of ``build_index(tables, config, hash_function_name)``:
        every table through :meth:`add_table`."""
        from repro import MateConfig
        from repro.hashing import SuperKeyGenerator

        generator = SuperKeyGenerator.from_name(
            hash_function_name, config or MateConfig()
        )
        reference = cls(generator.hash_size, hash_function_name, generator)
        for table in tables:
            reference.add_table(table)
        return reference

    @classmethod
    def of(cls, index):
        """What an ``InvertedIndex`` holds, cell by cell."""
        reference = cls(index.hash_size, index.hash_function_name)
        for value, *columns in block_postings(index.block):
            reference.postings[value] = tuple(column.tolist() for column in columns)
        reference.keys = {(table, row): key for table, row, key in row_keys(index)}
        return reference

    def add_posting(self, value, table_id, column_index, row_index) -> None:
        columns = self.postings.setdefault(value, ([], [], []))
        for column, item in zip(columns, (table_id, column_index, row_index)):
            column.append(item)

    def add_table(self, table) -> int:
        """One key per row, one posting per non-missing cell, in table, row,
        column order; returns the number of rows."""
        from repro.datamodel import MISSING

        for row_index, row in enumerate(table.rows):
            self.keys[(table.table_id, row_index)] = self.generator.row_super_key(row)
            for column_index, value in enumerate(row):
                if value != MISSING:
                    self.add_posting(value, table.table_id, column_index, row_index)
        return table.num_rows

    def remove_table(self, table_id) -> int:
        """Filter every posting list (an emptied value vanishes, the others
        keep their place); returns the number of removed postings."""
        removed = 0
        for value, columns in list(self.postings.items()):
            keep = [at for at, owner in enumerate(columns[0]) if owner != table_id]
            removed += len(columns[0]) - len(keep)
            if keep:
                self.postings[value] = tuple(
                    [column[at] for at in keep] for column in columns
                )
            else:
                del self.postings[value]
        self.keys = {row: key for row, key in self.keys.items() if row[0] != table_id}
        return removed

    def num_posting_items(self) -> int:
        return sum(len(columns[0]) for columns in self.postings.values())

    def to_block(self):
        from repro.storage.segment_block import SegmentBlock

        return SegmentBlock.from_postings(
            self.hash_function_name,
            self.hash_size,
            ((value, *columns) for value, columns in self.postings.items()),
            ((table, row, key) for (table, row), key in self.keys.items()),
        )

    def to_index(self):
        from repro.index import InvertedIndex

        return InvertedIndex(self.to_block())


#: The lanes of a bulk index build: the per-cell reference (laid out by
#: ``SegmentBlock.from_postings``) and the array passes (``layout_block``).
BUILD_LANES = ["loop", "block"]


def build_in_lane(lane: str, corpus, config=None, **kwargs):
    """``build_index`` in one of :data:`BUILD_LANES`: ``"block"`` is the
    bulk build itself, ``"loop"`` the per-cell reference's index."""
    from repro.index import build_index

    if lane == "block":
        return build_index(corpus, config=config, **kwargs)
    return CellIndex.built(corpus, config=config, **kwargs).to_index()


def legacy_minhash_signature(hashes, a, b):
    """The stdlib MinHash signature of sorted value hashes, kept verbatim:
    the per-slot loop with an explicit ``uint64`` wrap-around mask, the
    oracle of the numpy signature passes."""
    from repro.sketch.minhash import EMPTY_SLOT, MERSENNE_PRIME

    mask_64 = (1 << 64) - 1
    signature = [EMPTY_SLOT] * len(a)
    for value_hash in hashes:
        for position, (a_i, b_i) in enumerate(zip(a, b)):
            permuted = ((a_i * value_hash + b_i) & mask_64) % MERSENNE_PRIME
            if permuted < signature[position]:
                signature[position] = permuted
    return tuple(signature)


def legacy_row_mappings(row, key_values):
    """``row_mappings`` as it shipped before the table-at-a-time kernel."""
    from repro.datamodel import MISSING

    positions = [
        [index for index, cell in enumerate(row) if cell == value and value != MISSING]
        for value in key_values
    ]
    if any(not options for options in positions):
        return []

    assignments = []

    def backtrack(index, used, current):
        if index == len(positions):
            assignments.append(tuple(current))
            return
        for column in positions[index]:
            if column in used:
                continue
            used.add(column)
            current.append(column)
            backtrack(index + 1, used, current)
            current.pop()
            used.remove(column)

    backtrack(0, set(), [])
    return assignments


def legacy_joinability_from_matches(matches):
    """``joinability_from_matches`` on :func:`legacy_row_mappings`."""
    support = {}
    for row, key_tuple in matches:
        for mapping in legacy_row_mappings(row, key_tuple):
            support.setdefault(mapping, set()).add(key_tuple)
    if not support:
        return 0, None
    best_mapping, best_tuples = max(
        support.items(), key=lambda item: (len(item[1]), item[0])
    )
    return len(best_tuples), best_mapping


def legacy_verify_table(rows, surviving):
    """The per-pair verify-then-rescore loop, kept verbatim.

    This is the oracle of :func:`repro.core.joinability.verify_table`: the
    loop every engine carried its own copy of.  Returns ``(joinability,
    mapping, verified, hit_rows, miss_rows, value_comparisons)`` — what the
    kernel returns followed by what it charges to the counters.
    """
    verified = []
    row_outcome = {}
    value_comparisons = 0
    for row_index, key_tuple in surviving:
        row = tuple(rows[row_index])
        value_comparisons += len(row) * len(key_tuple)
        if legacy_row_mappings(row, key_tuple):
            verified.append((row, key_tuple))
            row_outcome[row_index] = True
        else:
            row_outcome.setdefault(row_index, False)
    joinability, mapping = legacy_joinability_from_matches(verified)
    hit_rows = sum(1 for hit in row_outcome.values() if hit)
    return (
        joinability,
        mapping,
        len(verified),
        hit_rows,
        len(row_outcome) - hit_rows,
        value_comparisons,
    )


class LegacyIngestBuffer:
    """``IngestBuffer`` as it shipped before tables entered it as columns.

    The per-cell reference (``cells``) filled one table at a time, a
    buffered drop filtering every posting list, ``seal`` laying it out: the
    oracle of the ingest differential suite.
    """

    def __init__(self, config=None, hash_function_name="xash"):
        self.cells = CellIndex.built((), config, hash_function_name)
        self.table_seqs: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.table_seqs)

    def num_rows(self) -> int:
        return len(self.cells.keys)

    def num_posting_items(self) -> int:
        return self.cells.num_posting_items()

    def add_table(self, table, seq: int) -> int:
        self.table_seqs[table.table_id] = seq
        return self.cells.add_table(table)

    def drop_table(self, table_id: int) -> int:
        if self.table_seqs.pop(table_id, None) is None:
            return 0
        return self.cells.remove_table(table_id)

    @property
    def index(self):
        """What is buffered now, as an index."""
        return self.cells.to_index()

    def seal(self):
        return self.cells.to_index()


def legacy_ingest_buffer(config=None, hash_function_name="xash") -> LegacyIngestBuffer:
    """A fresh :class:`LegacyIngestBuffer` (``IngestBuffer``'s signature)."""
    return LegacyIngestBuffer(config, hash_function_name)


def sketch_rows(store) -> list[tuple]:
    """``(table, column, cardinality, packed)`` of every sketch of a
    ``SketchIndex``, in its ``column_sketches`` order (table, then
    column)."""
    return [
        (s.table_id, s.column_index, s.cardinality, s.packed)
        for s in store.column_sketches()
    ]


class LegacySketchIndex:
    """``SketchIndex`` as it shipped before buckets were keyed by signature
    bytes: one ``minhash_signature`` call and one 128-integer tuple per
    column, ``bands`` tuple keys per signature, every bucket a set, filled
    by every add.  The oracle of the sketch differential — kept verbatim
    apart from the dropped persistence and the signature, which is the
    stdlib loop (:func:`legacy_minhash_signature`)."""

    def __init__(self, config=None):
        from repro.sketch import DEFAULT_SKETCH_CONFIG, permutation_params

        self.config = config or DEFAULT_SKETCH_CONFIG
        self._params = permutation_params(self.config.num_perm, self.config.seed)
        self._sketches: dict = {}
        self._buckets: list[dict] = [{} for _ in range(self.config.bands)]

    def signature(self, values):
        from repro.sketch.minhash import hash_value

        hashes = sorted({hash_value(value) for value in values})
        return legacy_minhash_signature(hashes, *self._params)

    def _band_keys(self, signature):
        rows = self.config.rows
        return [
            tuple(signature[band * rows : (band + 1) * rows])
            for band in range(self.config.bands)
        ]

    def add_table(self, table) -> int:
        added = 0
        for column_index in range(table.num_columns):
            values = table.distinct_column_values(column_index)
            if not values:
                continue
            signature = self.signature(values)
            self._sketches.setdefault(table.table_id, {})[column_index] = (
                len(values),
                signature,
            )
            for bucket, key in zip(self._buckets, self._band_keys(signature)):
                bucket.setdefault(key, set()).add(table.table_id)
            added += 1
        return added

    def remove_table(self, table_id: int) -> bool:
        columns = self._sketches.pop(table_id, None)
        if columns is None:
            return False
        for _cardinality, signature in columns.values():
            for bucket, key in zip(self._buckets, self._band_keys(signature)):
                members = bucket.get(key)
                if members is None:
                    continue
                members.discard(table_id)
                if not members:
                    del bucket[key]
        return True

    def table_ids(self) -> set[int]:
        return set(self._sketches)

    def candidate_tables(self, signature) -> set[int]:
        candidates: set[int] = set()
        for bucket, key in zip(self._buckets, self._band_keys(signature)):
            candidates.update(bucket.get(key, ()))
        return candidates

    def query(self, values, threshold=0.0, max_candidates=None):
        from repro.sketch import containment_estimate, jaccard_estimate

        distinct = set(values)
        signature = self.signature(distinct)
        scored = []
        for table_id in self.candidate_tables(signature):
            best = max(
                containment_estimate(
                    jaccard_estimate(stored, signature), len(distinct), cardinality
                )
                for cardinality, stored in self._sketches[table_id].values()
            )
            if best >= threshold:
                scored.append((table_id, best))
        scored.sort(key=lambda entry: (-entry[1], entry[0]))
        return scored if max_candidates is None else scored[:max_candidates]


def legacy_discover(
    engine,
    query,
    k=None,
    *,
    budget=None,
    seed_column=None,
    allowed_tables=None,
):
    """The pre-planner ``MateDiscovery.discover`` loop, kept verbatim.

    This is the byte-identity oracle of the plan-equivalence suite: the
    monolithic Algorithm 1 loop exactly as it shipped before the
    planner/executor refactor, driven through the *current* engine's
    components (corpus, index, selector, row filter).  The executor must
    reproduce its output byte for byte.

    ``seed_column`` (instead of the engine's selector) and
    ``allowed_tables`` (the candidates kept, ``None``: all) are what a
    planner run decided — the ``cost`` mode's seed, the sketch tier's
    verdict — so such a run can be replayed by the loop too.
    """
    from repro.core.filters import should_abandon_table, should_prune_table
    from repro.core.results import DiscoveryResult
    from repro.core.topk import TopKHeap
    from repro.exceptions import DiscoveryError
    from repro.metrics import DiscoveryCounters

    def evaluate_table(table_id, block, key_map, topk, counters):
        posting_count = len(block)
        rows_checked = 0
        rows_matched = 0
        surviving = []
        use_table_filters = engine.use_table_filters
        key_map_get = key_map.get
        get_row = engine.corpus.get_row
        passes = engine.row_filter.passes
        for value, row_index, super_key in block:
            if use_table_filters and should_abandon_table(
                posting_count, rows_checked, rows_matched, topk
            ):
                counters.tables_pruned_by_rule2 += 1
                break
            rows_checked += 1
            counters.rows_checked += 1
            row = get_row(table_id, row_index)
            row_survived = False
            for key_tuple, key_super_key in key_map_get(value, ()):
                if passes(super_key, key_super_key, row, key_tuple, counters):
                    surviving.append((row_index, key_tuple))
                    row_survived = True
            if row_survived:
                rows_matched += 1

        rows = engine.corpus.get_table(table_id).rows
        joinability, mapping, _, hit_rows, miss_rows, value_comparisons = (
            legacy_verify_table(rows, surviving)
        )
        counters.value_comparisons += value_comparisons
        counters.rows_passed_filter += hit_rows + miss_rows
        counters.true_positive_rows += hit_rows
        counters.false_positive_rows += miss_rows
        return joinability, mapping

    if k is None:
        k = engine.config.k
    if k <= 0:
        raise DiscoveryError(f"k must be positive, got {k}")
    counters = DiscoveryCounters()
    started = time.perf_counter()

    initial_column = seed_column or engine.column_selector(query, engine.index)
    if initial_column not in query.key_columns:
        raise DiscoveryError(
            f"initial column {initial_column!r} is not a key column of the query"
        )
    key_map = engine._build_key_super_key_map(query, initial_column)
    probe_values = list(key_map)

    if budget is not None:
        if budget.deadline_expired():
            probe_values = []
        else:
            granted = budget.take_pl_fetches(len(probe_values))
            probe_values = probe_values[:granted]

    grouped = fetch_grouped_by_table(engine.index, probe_values)
    counters.pl_items_fetched = sum(len(block) for block in grouped.values())
    if allowed_tables is not None:
        grouped = {t: block for t, block in grouped.items() if t in allowed_tables}
    counters.candidate_tables = len(grouped)
    counters.extra["initial_column_cardinality"] = float(len(probe_values))

    candidates = sorted(grouped.items(), key=lambda entry: (-len(entry[1]), entry[0]))

    topk = TopKHeap(k)
    mappings = {}
    for position, (table_id, block) in enumerate(candidates):
        if budget is not None and budget.deadline_expired():
            break
        if engine.use_table_filters and should_prune_table(len(block), topk):
            counters.tables_pruned_by_rule1 += len(candidates) - position
            break
        joinability, mapping = evaluate_table(
            table_id, block, key_map, topk, counters
        )
        counters.tables_evaluated += 1
        if topk.update(table_id, joinability):
            mappings[table_id] = mapping

    complete = True
    if budget is not None:
        counters.budget_exhausted = int(budget.exhausted)
        counters.deadline_expired = int(budget.expired)
        complete = budget.complete
    counters.runtime_seconds = time.perf_counter() - started
    names = {
        table_id: engine.corpus.get_table(table_id).name
        for table_id, _ in topk.result_tuples()
    }
    return DiscoveryResult.from_ranked(
        system=engine.system_name,
        k=k,
        ranked=topk.results(),
        counters=counters,
        mappings=mappings,
        names=names,
        complete=complete,
    )


def fetch_grouped_by_table(index, values):
    """Line 5 of Algorithm 1 for any index with ``fetch_batch``: ``table id
    -> [(value, row_index, super_key)]``, per table in probe order, then
    posting order."""
    grouped = {}
    for item in fetch_items(index, values):
        grouped.setdefault(item.table_id, []).append(
            (item.value, item.row_index, item.super_key)
        )
    return grouped


def assert_results_byte_identical(result, oracle) -> None:
    """Assert two discovery results agree byte for byte.

    Compares the ranked tables (ids, scores, mappings, names), the
    completeness flag, and every counter except wall-clock time and the
    per-stage breakdown (the legacy loop has no stages by construction).
    """
    assert result.system == oracle.system
    assert result.k == oracle.k
    assert result.complete == oracle.complete
    assert [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in result.tables
    ] == [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in oracle.tables
    ]
    mine = result.counters.as_dict()
    theirs = oracle.counters.as_dict()
    mine.pop("runtime_seconds")
    theirs.pop("runtime_seconds")
    assert mine == theirs


#: Counters only the planner's stages write: the verbatim loop has no
#: sketch tier.
PLANNER_EXTRAS = (
    "sketch_candidates",
    "sketch_estimated_recall",
)


def assert_matches_legacy(
    engine, query, *, make_kwargs=dict, allowed_tables=None, **kwargs
):
    """The executor against the verbatim loop: answers, mappings, names,
    completeness and every counter.

    ``make_kwargs`` builds the per-run keyword arguments that cannot be
    shared between two runs (a budget is a ledger).  The loop replays the
    planner's decisions: the plan's seed column, and ``allowed_tables``,
    the candidates the sketch tier kept.  Returns the executor's run.
    """
    result = engine.discover(query, **kwargs, **make_kwargs())
    legacy = legacy_discover(
        engine,
        query,
        kwargs.get("k"),
        seed_column=result.plan.plan.seed.column,
        allowed_tables=allowed_tables,
        **make_kwargs(),
    )
    import copy

    mine = copy.deepcopy(result)
    for name in PLANNER_EXTRAS:
        mine.counters.extra.pop(name, None)
    assert_results_byte_identical(mine, legacy)
    return result


def assert_topk_equivalent(result, truth) -> None:
    """Result must match the brute-force top-k up to ties at the cut-off score.

    Tables whose joinability strictly exceeds the k-th best score must match
    exactly; at the cut-off score any tied table is an equally valid answer
    (the paper's table-filtering rule 1 legitimately drops ties).
    """
    assert [j for _, j in result] == [j for _, j in truth]
    if not truth:
        return
    cutoff = truth[-1][1]
    assert {t for t, j in result if j > cutoff} == {t for t, j in truth if j > cutoff}


class LegacyXash:
    """XASH as it shipped before the one-pass rewrite, kept verbatim.

    This is the bit-identity oracle of ``tests/test_hash_stability.py``: every
    persisted index was hashed by this code, so the one-pass implementation
    must reproduce it bit for bit.  It re-scans the value once per selected
    character and averages positions through ``statistics.mean``.
    """

    def __init__(self, config):
        self.config = config
        self.hash_size = config.hash_size
        self.alphabet = config.alphabet
        self.beta = config.beta
        self.char_region_bits = config.character_region_bits
        self.length_segment_bits = config.length_segment_bits
        self.characters_per_value = config.characters_per_value
        self._segment_of = {c: i for i, c in enumerate(self.alphabet)}
        frequencies = config.character_frequencies
        default_frequency = max(frequencies.values(), default=1.0) + 1.0
        self._frequency_of = {
            c: frequencies.get(c, default_frequency) for c in self.alphabet
        }

    @staticmethod
    def normalize_character(character, alphabet):
        from repro.exceptions import HashingError

        if len(character) != 1:
            raise HashingError(f"expected a single character, got {character!r}")
        lowered = character.lower()
        if lowered in alphabet:
            return lowered
        return alphabet[ord(lowered) % len(alphabet)]

    def normalized_characters(self, value):
        return [self.normalize_character(c, self.alphabet) for c in value]

    def select_characters(self, characters):
        distinct = sorted(set(characters))
        if not distinct:
            return []
        budget = self.characters_per_value
        if self.config.use_rare_characters:
            ranked = sorted(distinct, key=lambda c: (self._frequency_of[c], c))
        else:
            seen = []
            for character in characters:
                if character not in seen:
                    seen.append(character)
            ranked = seen
        return ranked[:budget]

    def character_location_bit(self, character, characters):
        import math
        from statistics import mean

        from repro.exceptions import HashingError

        if not self.config.encode_location or self.beta == 1:
            return 0
        positions = [
            index + 1 for index, c in enumerate(characters) if c == character
        ]
        if not positions:
            raise HashingError(
                f"character {character!r} not present in value {characters!r}"
            )
        average_location = mean(positions)
        length = len(characters)
        x = math.ceil(average_location * self.beta / length)
        x = min(max(x, 1), self.beta)
        return x - 1

    def hash_value(self, value):
        from repro.hashing import rotate_left

        if value == "":
            return 0
        characters = self.normalized_characters(value)
        length = len(characters)

        character_region = 0
        for character in self.select_characters(characters):
            segment = self._segment_of[character]
            offset = self.character_location_bit(character, characters)
            character_region |= 1 << (segment * self.beta + offset)

        if self.config.rotation and character_region:
            character_region = rotate_left(
                character_region, length, self.char_region_bits
            )

        result = character_region
        if self.config.encode_length and self.length_segment_bits > 0:
            length_bit = length % self.length_segment_bits
            result |= 1 << (self.char_region_bits + length_bit)
        return result


class LegacyShortXash(LegacyXash):
    """``xash_short`` before it shared the one-pass core, kept verbatim."""

    def hash_value(self, value):
        from repro.hashing import rotate_left

        if value == "":
            return 0
        characters = self.normalized_characters(value)
        length = len(characters)
        budget = self.characters_per_value

        selected = self.select_characters(characters)
        character_region = 0
        for character in selected:
            segment = self._segment_of[character]
            offset = self.character_location_bit(character, characters)
            character_region |= 1 << (segment * self.beta + offset)

        remaining_budget = budget - len(selected)
        if remaining_budget > 0 and length >= 2:
            character_region |= self._bigram_bits(characters, remaining_budget)

        if self.config.rotation and character_region:
            character_region = rotate_left(
                character_region, length, self.char_region_bits
            )

        result = character_region
        if self.config.encode_length and self.length_segment_bits > 0:
            result |= 1 << (self.char_region_bits + length % self.length_segment_bits)
        return result

    def _bigram_bits(self, characters, budget):
        import math

        from repro.hashing import bigram_bucket

        bits = 0
        used = 0
        length = len(characters)
        for position in range(length - 1):
            if used >= budget:
                break
            bigram = characters[position] + characters[position + 1]
            bucket = bigram_bucket(bigram, self.alphabet)
            segment = self._segment_of[bucket]
            if self.beta == 1 or not self.config.encode_location:
                offset = 0
            else:
                offset = min(
                    max(math.ceil((position + 1) * self.beta / length), 1), self.beta
                ) - 1
            bit = 1 << (segment * self.beta + offset)
            if bits & bit:
                continue  # this bigram bucket/offset is already used
            bits |= bit
            used += 1
        return bits


def legacy_xash_hash(value, config):
    """``XashHashFunction(config).hash_value(value)`` before the rewrite."""
    return LegacyXash(config).hash_value(value)


def assert_blocks_equal(mine, theirs) -> None:
    """Fetch blocks equal — postings, super keys and the packed key
    buffers."""
    assert [block_items(block) for block in mine] == [
        block_items(block) for block in theirs
    ]
    for left, right in zip(mine, theirs):
        assert bytes(left.super_key_bytes) == bytes(right.super_key_bytes)
        assert left.key_width == right.key_width


def block_columns(block) -> dict:
    """Everything a ``SegmentBlock`` holds, as plain comparable Python objects."""
    columns = {name: getattr(block, name) for name in type(block).__slots__}
    return {
        name: value.tolist() if isinstance(value, memoryview) else value
        for name, value in columns.items()
    }


def legacy_merge_segments(segments, tombstones, generation):
    """``merge_segments`` as it shipped before segments became CSR blocks.

    The per-value reference: each value's surviving postings appended
    segment by segment, super keys re-set row by row — the oracle of the
    merge differential suite.
    """
    from repro.ingest import Segment

    first = segments[0].index
    merged = CellIndex(first.hash_size, first.hash_function_name)
    table_seqs: dict[int, int] = {}
    for segment in segments:
        masked = segment.masked_tables(tombstones)
        for table_id, add_seq in segment.table_seqs.items():
            if table_id not in masked:
                table_seqs[table_id] = add_seq
        for value, *columns in block_postings(segment.index.block):
            for item in zip(*columns):
                if item[0] not in masked:
                    merged.add_posting(value, *item)
        for table_id, row_index, super_key in row_keys(segment.index):
            if table_id not in masked:
                merged.keys[(table_id, row_index)] = super_key
    return Segment(index=merged.to_index(), table_seqs=table_seqs, generation=generation)


# ----------------------------------------------------------------------
# Section 5.4 edits through the one write path
# ----------------------------------------------------------------------
# A table never changes after construction: an edit builds a new table (same
# id and name) and the session puts it in the old one's place.
def edited(table, columns=None, rows=None):
    """A copy of ``table`` with ``columns`` and / or ``rows`` replaced."""
    from repro.datamodel import Table

    return Table(
        table.table_id,
        table.name,
        list(table.columns if columns is None else columns),
        [list(row) for row in (table.rows if rows is None else rows)],
    )


def with_row(table, values):
    """Insert row: ``values`` appended."""
    return edited(table, rows=[*table.rows, values])


def without_row(table, row_index: int):
    """Delete row: the rows after it shift up."""
    return edited(table, rows=table.rows[:row_index] + table.rows[row_index + 1 :])


def with_column(table, name: str, values):
    """Insert column: ``values`` (one per row) appended as column ``name``."""
    return edited(
        table,
        columns=[*table.columns, name],
        rows=[[*row, value] for row, value in zip(table.rows, values, strict=True)],
    )


def without_column(table, name: str):
    """Delete column ``name``."""
    at = table.column_index(name)
    return edited(
        table,
        columns=table.columns[:at] + table.columns[at + 1 :],
        rows=[row[:at] + row[at + 1 :] for row in table.rows],
    )


def with_cell(table, row_index: int, column_index: int, value):
    """Update cell: one value replaced."""
    rows = [list(row) for row in table.rows]
    rows[row_index][column_index] = value
    return edited(table, rows=rows)


def replace_table(session, table) -> None:
    """Put ``table`` in the place of the session's table of its id: remove,
    then ingest.  Not atomic: a request in between does not see the table."""
    session.remove(table.table_id)
    session.ingest(table)


def visible_corpus(live, corpus):
    """The ``corpus`` tables ``live`` serves, in its ingest order: the corpus
    whose bulk build fetches exactly what ``live`` fetches."""
    from repro.datamodel import TableCorpus

    sequences = live.table_sequences()
    return TableCorpus(
        name="visible",
        tables=[corpus.get_table(tid) for tid in sorted(sequences, key=sequences.get)],
    )


def stage_volumes(result) -> dict[str, tuple[int, int, int]]:
    """``(calls, items_in, items_out)`` per planner stage of a run."""
    return {
        name: (stats.calls, stats.items_in, stats.items_out)
        for name, stats in result.counters.stages.items()
    }


def assert_live_matches_bulk(session, live, queries, values) -> None:
    """``live``, edited through ``session``, against a bulk build of the
    tables it serves: fetches of ``values``, and for every query the answers,
    mappings, names and every ``DiscoveryCounters`` field.  Two differ by
    design, both wall-clock: ``runtime_seconds`` and each stage's
    ``seconds`` (its calls and item volumes are compared)."""
    from repro import DiscoveryRequest, DiscoverySession, build_index

    tables = visible_corpus(live, session.corpus)
    bulk = build_index(tables, config=live.config)
    assert fetch_items(live, values) == fetch_items(bulk, values)
    with DiscoverySession(tables, bulk, config=live.config) as reference:
        for query in queries:
            got = session.discover(DiscoveryRequest(query=query, engine="live"))
            want = reference.discover(DiscoveryRequest(query=query))
            assert_results_byte_identical(got.response, want.response)
            assert stage_volumes(got) == stage_volumes(want)
