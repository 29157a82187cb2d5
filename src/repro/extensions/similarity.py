"""Similarity-join discovery (the future-work direction of Section 9).

The paper's conclusion observes that "because XASH uses syntactic features
including the character and length features of the cell values, it has the
potential to discover similarity joins as well" — its false positives are
precisely the values that are syntactically close to the query key (the
<"brooklyn", "cambridge"> vs <"brooklyn", "bay ridge"> example).  This module
turns that observation into a working extension:

* :func:`xash_similarity` — a cheap similarity proxy between two values
  computed purely from their XASH hashes (Jaccard overlap of the set bits,
  split into the character region and the length segment);
* :class:`SimilarityJoinDiscovery` — top-k *similarity-joinable* table
  discovery: instead of requiring every key value to match exactly, a
  candidate row counts when each key value has a candidate cell within a
  configurable edit-distance budget.  Super keys are used as a prefilter: a
  row whose super key shares too few bits with the query key's hash cannot
  contain similar values and is skipped before any edit-distance computation.

At scale the edit-distance verification dominates, so the class optionally
runs behind the approximate candidate tier of :mod:`repro.sketch`: with a
:class:`~repro.sketch.SketchIndex` and enabled
:class:`~repro.sketch.SketchOptions`, every query key column is probed
against the banded MinHash-LSH store first and only tables whose best
column containment clears the threshold enter the exact pipeline —
typically shrinking the verified row set by an order of magnitude on
skewed corpora.

This remains an *extension*: nothing in the paper's evaluation depends on it,
but it showcases how the same index supports fuzzy discovery, and the
``beyond_joins`` example exercises it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..config import MateConfig
from ..datamodel import MISSING, QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..hashing import SuperKeyGenerator, popcount
from ..index import InvertedIndex
from ..metrics import DiscoveryCounters
from ..sketch import DEFAULT_SKETCH_OPTIONS, SketchIndex, SketchOptions


def levenshtein_distance(first: str, second: str, upper_bound: int | None = None) -> int:
    """Classic Levenshtein edit distance with an optional early-exit bound.

    When ``upper_bound`` is given and the true distance exceeds it, any value
    strictly greater than ``upper_bound`` may be returned (the caller only
    checks ``<= upper_bound``), which keeps the common reject case cheap.
    """
    if first == second:
        return 0
    if not first:
        return len(second)
    if not second:
        return len(first)
    if upper_bound is not None and abs(len(first) - len(second)) > upper_bound:
        return upper_bound + 1

    previous = list(range(len(second) + 1))
    for row_index, first_char in enumerate(first, start=1):
        current = [row_index]
        best_in_row = row_index
        for column_index, second_char in enumerate(second, start=1):
            cost = 0 if first_char == second_char else 1
            value = min(
                previous[column_index] + 1,
                current[column_index - 1] + 1,
                previous[column_index - 1] + cost,
            )
            current.append(value)
            if value < best_in_row:
                best_in_row = value
        if upper_bound is not None and best_in_row > upper_bound:
            return upper_bound + 1
        previous = current
    return previous[-1]


def xash_similarity(
    first: str, second: str, generator: SuperKeyGenerator
) -> float:
    """Similarity proxy in [0, 1] from the Jaccard overlap of XASH bits.

    Two identical values always score 1.0; values sharing neither rare
    characters nor length score 0.0.  The proxy is *not* an edit-distance
    substitute — it is the cheap signal the prefilter uses before paying for
    the exact distance.
    """
    if first == second:
        return 1.0
    first_hash = generator.value_hash(first)
    second_hash = generator.value_hash(second)
    union = popcount(first_hash | second_hash)
    if union == 0:
        return 0.0
    return popcount(first_hash & second_hash) / union


@dataclass(frozen=True)
class SimilarRowMatch:
    """One candidate row that matched the query key approximately."""

    table_id: int
    row_index: int
    key_tuple: tuple[str, ...]
    matched_values: tuple[str, ...]
    total_distance: int


@dataclass(frozen=True)
class SimilarityTableResult:
    """One table ranked by its number of similarity-joinable key tuples."""

    table_id: int
    similarity_joinability: int
    exact_joinability: int
    matches: tuple[SimilarRowMatch, ...]

    def as_dict(self) -> dict[str, object]:
        """Return the result as a plain dictionary (for reporting)."""
        return {
            "table_id": self.table_id,
            "similarity_joinability": self.similarity_joinability,
            "exact_joinability": self.exact_joinability,
            "matches": len(self.matches),
        }


class SimilarityJoinDiscovery:
    """Top-k similarity-join discovery on top of the MATE index.

    Parameters
    ----------
    max_distance:
        Edit-distance budget *per key value* (1 tolerates a single typo).
    min_bit_overlap:
        Prefilter threshold: the fraction of the query key's super-key bits
        that must be present in a candidate row's super key for the row to be
        verified at all.  1.0 degenerates to the exact-join subsumption check;
        lower values admit progressively fuzzier candidates.
    sketch_index / sketch_options:
        Optional approximate candidate tier: with a
        :class:`~repro.sketch.SketchIndex` over the corpus and *enabled*
        options (``threshold > 0`` or ``max_candidates``), each query key
        column is LSH-probed first and only tables passing the containment
        threshold are fetched and verified.  Disabled (the defaults) the
        behaviour is exhaustive and unchanged.
    """

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        config: MateConfig | None = None,
        max_distance: int = 1,
        min_bit_overlap: float = 0.6,
        sketch_index: SketchIndex | None = None,
        sketch_options: SketchOptions | None = None,
    ):
        if max_distance < 0:
            raise DiscoveryError(f"max_distance must be >= 0, got {max_distance}")
        if not 0.0 < min_bit_overlap <= 1.0:
            raise DiscoveryError(
                f"min_bit_overlap must be in (0, 1], got {min_bit_overlap}"
            )
        self.corpus = corpus
        self.index = index
        self.config = config or MateConfig()
        self.max_distance = max_distance
        self.min_bit_overlap = min_bit_overlap
        self.sketch_index = sketch_index
        self.sketch_options = sketch_options or DEFAULT_SKETCH_OPTIONS
        self.generator = SuperKeyGenerator.from_name(
            index.hash_function_name, self.config
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover(
        self, query: QueryTable, k: int = 10, counters: DiscoveryCounters | None = None
    ) -> list[SimilarityTableResult]:
        """Return the top-k tables by similarity joinability.

        A key tuple counts as similarity-joinable with a candidate row when
        every key value matches a *distinct* cell of the row within the edit
        distance budget; the per-table score is the number of distinct key
        tuples with at least one such row (the fuzzy analogue of Eq. 2).
        """
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = counters if counters is not None else DiscoveryCounters()

        key_tuples = [
            key_tuple
            for key_tuple in sorted(query.key_tuples())
            if all(value != MISSING for value in key_tuple)
        ]
        if not key_tuples:
            return []
        key_super_keys = {
            key_tuple: self.generator.key_super_key(key_tuple)
            for key_tuple in key_tuples
        }

        candidate_rows = self._candidate_rows(key_tuples, counters)

        per_table_tuples: dict[int, set[tuple[str, ...]]] = {}
        per_table_exact: dict[int, set[tuple[str, ...]]] = {}
        per_table_matches: dict[int, list[SimilarRowMatch]] = {}
        for table_id, row_index in sorted(candidate_rows):
            row = self.corpus.get_row(table_id, row_index)
            row_super_key = self.index.super_key(table_id, row_index)
            for key_tuple in key_tuples:
                if not self._passes_prefilter(
                    row_super_key, key_super_keys[key_tuple], counters
                ):
                    continue
                counters.rows_checked += 1
                match = self._match_row(table_id, row_index, row, key_tuple, counters)
                if match is None:
                    continue
                per_table_tuples.setdefault(table_id, set()).add(key_tuple)
                per_table_matches.setdefault(table_id, []).append(match)
                if match.total_distance == 0:
                    per_table_exact.setdefault(table_id, set()).add(key_tuple)

        results = [
            SimilarityTableResult(
                table_id=table_id,
                similarity_joinability=len(tuples),
                exact_joinability=len(per_table_exact.get(table_id, ())),
                matches=tuple(per_table_matches.get(table_id, ())),
            )
            for table_id, tuples in per_table_tuples.items()
        ]
        results.sort(
            key=lambda r: (-r.similarity_joinability, -r.exact_joinability, r.table_id)
        )
        return results[:k]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidate_rows(
        self, key_tuples: Sequence[tuple[str, ...]], counters: DiscoveryCounters
    ) -> set[tuple[int, int]]:
        """Rows worth looking at: any row containing any exact key value.

        Exact posting-list probes seed the candidate set; within those rows
        the per-value matching then tolerates edit distance.  (Rows where
        *every* key value is misspelled are out of reach of the inverted
        index — the same trade-off JOSIE-style systems make.)
        """
        rows: set[tuple[int, int]] = set()
        probe_values = {value for key_tuple in key_tuples for value in key_tuple}
        allowed = self._sketch_allowed_tables(key_tuples, counters)
        for block in self.index.fetch_batch(sorted(probe_values)):
            for location in zip(block.table_ids, block.row_indexes):
                if allowed is None or location[0] in allowed:
                    rows.add(location)
        counters.pl_items_fetched += len(rows)
        return rows

    def _sketch_allowed_tables(
        self, key_tuples: Sequence[tuple[str, ...]], counters: DiscoveryCounters
    ) -> set[int] | None:
        """LSH-prune the table universe (``None`` = exhaustive, no pruning).

        Each key column's value set is probed separately and the allowed
        sets are unioned: a table similar to *any* key column survives, so
        the prune can only drop tables no column of which resembles any
        part of the key — exactly the tables the edit-distance verification
        would reject anyway (modulo MinHash noise at the threshold).
        """
        if self.sketch_index is None or not self.sketch_options.enabled:
            return None
        allowed: set[int] = set()
        key_width = len(key_tuples[0])
        for position in range(key_width):
            values = {key_tuple[position] for key_tuple in key_tuples}
            scored = self.sketch_index.query(
                values,
                threshold=self.sketch_options.threshold,
                max_candidates=self.sketch_options.max_candidates,
            )
            allowed.update(table_id for table_id, _ in scored)
        counters.extra["sketch_candidates"] = float(len(allowed))
        counters.extra["sketch_estimated_recall"] = (
            self.sketch_index.estimated_recall(self.sketch_options.threshold)
        )
        return allowed

    def _passes_prefilter(
        self, row_super_key: int, key_super_key: int, counters: DiscoveryCounters
    ) -> bool:
        """Bit-overlap prefilter between a row super key and a key hash."""
        counters.superkey_checks += 1
        key_bits = popcount(key_super_key)
        if key_bits == 0:
            return False
        shared = popcount(row_super_key & key_super_key)
        return shared / key_bits >= self.min_bit_overlap

    def _match_row(
        self,
        table_id: int,
        row_index: int,
        row: Sequence[str],
        key_tuple: tuple[str, ...],
        counters: DiscoveryCounters,
    ) -> SimilarRowMatch | None:
        """Greedy assignment of key values to distinct row cells within budget."""
        used: set[int] = set()
        matched: list[str] = []
        total_distance = 0
        for value in key_tuple:
            best_column: int | None = None
            best_distance = self.max_distance + 1
            for column_index, cell in enumerate(row):
                if column_index in used or cell == MISSING:
                    continue
                counters.value_comparisons += 1
                distance = levenshtein_distance(
                    value, cell, upper_bound=self.max_distance
                )
                if distance < best_distance:
                    best_distance = distance
                    best_column = column_index
                    if distance == 0:
                        break
            if best_column is None or best_distance > self.max_distance:
                counters.false_positive_rows += 1
                return None
            used.add(best_column)
            matched.append(row[best_column])
            total_distance += best_distance
        counters.true_positive_rows += 1
        return SimilarRowMatch(
            table_id=table_id,
            row_index=row_index,
            key_tuple=key_tuple,
            matched_values=tuple(matched),
            total_distance=total_distance,
        )
