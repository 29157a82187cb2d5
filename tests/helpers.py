"""Small shared assertion helpers for the test-suite."""

from __future__ import annotations

import time


def available_kernel_modes() -> list[str]:
    """Prefilter kernel modes exercisable in this environment.

    Always contains ``"off"`` (the per-row loop) and ``"fallback"`` (the
    pure-stdlib kernel); ``"numpy"`` is appended when numpy is importable.
    Parametrizing over this list keeps the equivalence suites meaningful on
    the no-numpy CI entry instead of erroring out.
    """
    from repro.index import numpy_available

    modes = ["off", "fallback"]
    if numpy_available():
        modes.append("numpy")
    return modes


def available_sketch_kernel_modes() -> list[str]:
    """MinHash sketch kernel modes exercisable in this environment.

    Always contains ``"fallback"`` (the pure-stdlib signature path);
    ``"numpy"`` is appended when numpy is importable.  Mirrors
    :func:`available_kernel_modes` for the ``MATE_SKETCH`` selector.
    """
    from repro.sketch import sketch_numpy_available

    modes = ["fallback"]
    if sketch_numpy_available():
        modes.append("numpy")
    return modes


def _build_lanes() -> list[str]:
    from repro.index import numpy_available

    return ["loop"] + (["block"] if numpy_available() else [])


#: The lanes of a bulk index build exercisable here: the per-cell
#: ``add_table`` loop always, the array passes (whose index is served from
#: a CSR block until its first mutation) when numpy is importable.
BUILD_LANES = _build_lanes()


def build_in_lane(lane: str, corpus, config=None, **kwargs):
    """``build_index`` with the bulk build held to one lane of
    :data:`BUILD_LANES` — the kernel is forced for the build only, so what
    the caller does with the index runs under the process' own selection."""
    from repro.index import build_index, use_kernel

    with use_kernel({"loop": "fallback", "block": "numpy"}[lane]):
        return build_index(corpus, config=config, **kwargs)


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

    The per-cell reference: a mutable columnar ``InvertedIndex`` filled one
    ``add_posting`` at a time with scalar-hashed row super keys, a buffered
    drop filtering every posting list, ``seal`` flattening the index.  The
    oracle of the ingest differential suite — kept verbatim apart from the
    inlined ``IndexBuilder.add_table`` loop.
    """

    def __init__(self, config=None, hash_function_name="xash"):
        from repro import MateConfig
        from repro.hashing import SuperKeyGenerator
        from repro.index import InvertedIndex

        self.config = config or MateConfig()
        self.generator = SuperKeyGenerator.from_name(hash_function_name, self.config)
        self.index = InvertedIndex(
            hash_function_name=hash_function_name,
            hash_size=self.config.hash_size,
            layout="columnar",
        )
        self.table_seqs: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.table_seqs)

    def num_rows(self) -> int:
        return self.index.num_rows()

    def num_posting_items(self) -> int:
        return self.index.num_posting_items()

    def add_table(self, table, seq: int) -> int:
        from repro.datamodel import MISSING

        for row_index, row in enumerate(table.rows):
            self.index.set_super_key(
                table.table_id, row_index, self.generator.row_super_key(row)
            )
            for column_index, value in enumerate(row):
                if value != MISSING:
                    self.index.add_posting(
                        value, table.table_id, column_index, row_index
                    )
        self.table_seqs[table.table_id] = seq
        return table.num_rows

    def drop_table(self, table_id: int) -> int:
        if table_id not in self.table_seqs:
            return 0
        del self.table_seqs[table_id]
        return self.index.remove_table(table_id)

    def seal(self):
        from repro.storage.paged import MappedSegmentIndex
        from repro.storage.segment_block import flatten_index

        return MappedSegmentIndex(flatten_index(self.index))


def legacy_ingest_buffer(config=None, hash_function_name="xash") -> LegacyIngestBuffer:
    """A fresh :class:`LegacyIngestBuffer` (``IngestBuffer``'s signature)."""
    return LegacyIngestBuffer(config, hash_function_name)


class LegacySketchIndex:
    """``SketchIndex`` as it shipped before buckets were keyed by signature
    bytes: one ``minhash_signature`` call and one 128-integer tuple per
    column, ``bands`` tuple keys per signature, every bucket a set.  The
    oracle of the sketch differential — kept verbatim apart from the
    dropped persistence."""

    def __init__(self, config=None):
        from repro.sketch import DEFAULT_SKETCH_CONFIG, permutation_params

        self.config = config or DEFAULT_SKETCH_CONFIG
        self._params = permutation_params(self.config.num_perm, self.config.seed)
        self._sketches: dict = {}
        self._buckets: list[dict] = [{} for _ in range(self.config.bands)]

    def signature(self, values):
        from repro.sketch import minhash_signature

        return minhash_signature(values, *self._params)

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


def write_legacy_sketch_pair(index, directory, stem="sketches") -> None:
    """``SketchIndex.save`` as it shipped before the one-file format: the
    ``<stem>.bin`` + ``<stem>.json`` pair a live directory of an older
    build holds (what ``SketchIndex.load_legacy`` and the migration read)."""
    import json
    import struct
    from pathlib import Path

    sketches = index.column_sketches()
    payload = bytearray(
        struct.pack("<4sIIQ", b"MSKB", 1, index.config.num_perm, len(sketches))
    )
    for sketch in sketches:
        payload += struct.pack(
            "<QIQ", sketch.table_id, sketch.column_index, sketch.cardinality
        )
        payload += struct.pack(f"={len(sketch.signature)}Q", *sketch.signature)
    directory = Path(directory)
    (directory / f"{stem}.bin").write_bytes(bytes(payload))
    manifest = {
        "format_version": 1,
        "kind": "sketch-index",
        "num_perm": index.config.num_perm,
        "bands": index.config.bands,
        "rows": index.config.rows,
        "seed": index.config.seed,
        "count": len(sketches),
        "data_file": f"{stem}.bin",
        "data_bytes": len(payload),
    }
    (directory / f"{stem}.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )


def legacy_discover(engine, query, k=None, *, budget=None, on_snapshot=None):
    """The pre-planner ``MateDiscovery.discover`` loop, kept verbatim.

    This is the byte-identity oracle of the plan-equivalence suite: the
    monolithic Algorithm 1 loop exactly as it shipped before the
    planner/executor refactor, driven through the *current* engine's
    components (corpus, index, selector, row filter).  The executor with
    re-planning disabled must reproduce its output byte for byte.
    """
    from repro.core.filters import should_abandon_table, should_prune_table
    from repro.core.results import DiscoveryResult
    from repro.core.topk import TopKHeap
    from repro.exceptions import DiscoveryError
    from repro.index import fetch_table_blocks
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
        for value, row_index, super_key in zip(
            block.values, block.row_indexes, block.super_keys
        ):
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

    initial_column = engine.column_selector(query, engine.index)
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

    grouped = fetch_table_blocks(engine.index, probe_values)
    counters.pl_items_fetched = sum(len(block) for block in grouped.values())
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
            if on_snapshot is not None:
                on_snapshot(topk.result_tuples())

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
    """Fetch blocks equal — postings, super keys, the packed key buffers
    (or their absence) and the table runs."""
    assert mine == theirs
    assert [block.value for block in mine] == [block.value for block in theirs]
    for left, right in zip(mine, theirs):
        assert (left.super_key_bytes is None) == (right.super_key_bytes is None)
        if left.super_key_bytes is not None:
            assert bytes(left.super_key_bytes) == bytes(right.super_key_bytes)
            assert left.key_width == right.key_width
        assert list(left.runs) == list(right.runs)


def block_columns(block) -> dict:
    """Everything a ``SegmentBlock`` holds, as plain comparable Python objects."""
    columns = {name: getattr(block, name) for name in type(block).__slots__}
    return {
        name: value.tolist() if isinstance(value, memoryview) else value
        for name, value in columns.items()
    }


def legacy_merge_segments(segments, tombstones, generation):
    """``merge_segments`` as it shipped before segments became CSR blocks.

    The per-value reference: one posting list copied and extended per value,
    super keys re-set row by row.  The oracle of the merge differential
    suite — kept verbatim apart from the import location.
    """
    from repro.index import InvertedIndex
    from repro.ingest import Segment

    first = segments[0].index
    merged_index = InvertedIndex(
        hash_function_name=first.hash_function_name,
        hash_size=first.hash_size,
        layout="columnar",
    )
    table_seqs: dict[int, int] = {}
    combined: dict = {}
    for segment in segments:
        masked = segment.masked_tables(tombstones)
        for table_id, add_seq in segment.table_seqs.items():
            if table_id not in masked:
                table_seqs[table_id] = add_seq
        for value in segment.index.values():
            columns = segment.index.posting_columns(value)
            if columns is None or not len(columns):
                continue
            if masked:
                columns, _ = columns.filtered(
                    lambda table_id, _column, _row: table_id not in masked
                )
                if not len(columns):
                    continue
            target = combined.get(value)
            if target is None:
                combined[value] = columns.copy()
            else:
                target.table_ids.extend(columns.table_ids)
                target.column_indexes.extend(columns.column_indexes)
                target.row_indexes.extend(columns.row_indexes)
        for table_id, row_index, super_key in segment.index.iter_super_keys():
            if table_id not in masked:
                merged_index.set_super_key(table_id, row_index, super_key)
    for value, columns in combined.items():
        merged_index.set_posting_columns(value, columns)
    return Segment(index=merged_index, table_seqs=table_seqs, generation=generation)
