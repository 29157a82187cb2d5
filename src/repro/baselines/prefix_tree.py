"""Prefix-tree (trie) baseline for multi-attribute joinability (related work).

The paper's related-work section discusses Li et al.'s prefix-tree index for
multi-attribute similarity joins [24] and points out its two limitations for
data-lake discovery: it assumes the one-to-one mapping between the composite
key columns and the candidate columns is known apriori, and it does not scale
to corpora where that mapping has to be guessed.  This module implements that
style of index faithfully so the limitation can be measured rather than
asserted:

* :class:`TablePrefixTree` — a trie over a table's rows, one level per
  column.  With a *known* mapping it answers "does any row contain this key
  combination at these columns?" by a constrained descent; columns that are
  not part of the mapping act as wildcards (the descent branches).
* :class:`PrefixTreeDiscovery` — top-k n-ary join discovery built on those
  tries.  Because no mapping is known, it enumerates all ``P(|T'|, |Q|)``
  ordered column mappings per candidate table (Eq. 3 of the paper) and takes
  the best — exactly the factorial behaviour MATE's super key avoids.

The discovery class exists as a measurable related-work baseline, not as a
recommended engine; the ``related_work`` experiment compares it against MATE
on small workloads and reports how the mapping enumeration explodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

from ..config import MateConfig
from ..core.results import DiscoveryResult
from ..core.topk import TopKHeap
from ..datamodel import MISSING, QueryTable, Table, TableCorpus
from ..exceptions import DiscoveryError
from ..metrics import DiscoveryCounters


@dataclass
class _TrieNode:
    """One trie level: children keyed by the cell value of that column."""

    children: dict[str, "_TrieNode"] = field(default_factory=dict)

    def child(self, value: str) -> "_TrieNode | None":
        return self.children.get(value)


class TablePrefixTree:
    """A trie over a table's rows (one level per column, in table order)."""

    def __init__(self, table: Table):
        self.table_id = table.table_id
        self.num_columns = table.num_columns
        self.num_rows = table.num_rows
        self.root = _TrieNode()
        for row in table.rows:
            self._insert(row)

    def _insert(self, row: Sequence[str]) -> None:
        node = self.root
        for value in row:
            child = node.children.get(value)
            if child is None:
                child = _TrieNode()
                node.children[value] = child
            node = child

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def contains(
        self, assignment: dict[int, str], counters: DiscoveryCounters | None = None
    ) -> bool:
        """Whether any row matches ``assignment`` (column index -> value).

        Columns absent from the assignment are wildcards: the descent branches
        over every child at that level.  ``counters.value_comparisons`` is
        incremented per visited node so experiments can report the probe cost.
        """
        for column_index in assignment:
            if not 0 <= column_index < self.num_columns:
                raise DiscoveryError(
                    f"column index {column_index} out of range for table "
                    f"{self.table_id} ({self.num_columns} columns)"
                )
        return self._descend(self.root, 0, assignment, counters)

    def _descend(
        self,
        node: _TrieNode,
        level: int,
        assignment: dict[int, str],
        counters: DiscoveryCounters | None,
    ) -> bool:
        if level == self.num_columns:
            return True
        if counters is not None:
            counters.value_comparisons += 1
        constrained = assignment.get(level)
        if constrained is not None:
            child = node.child(constrained)
            if child is None:
                return False
            return self._descend(child, level + 1, assignment, counters)
        return any(
            self._descend(child, level + 1, assignment, counters)
            for child in node.children.values()
        )

    def joinability_with_mapping(
        self,
        key_tuples: Sequence[tuple[str, ...]],
        mapping: Sequence[int],
        counters: DiscoveryCounters | None = None,
    ) -> int:
        """Joinability under a *known* column mapping (Li et al.'s setting).

        ``mapping[i]`` is the candidate column holding the ``i``-th key
        component; the score is the number of distinct key tuples present.
        """
        if len(set(mapping)) != len(mapping):
            raise DiscoveryError(f"mapping must not repeat columns: {mapping}")
        score = 0
        for key_tuple in key_tuples:
            assignment = {
                column_index: value
                for column_index, value in zip(mapping, key_tuple)
            }
            if self.contains(assignment, counters):
                score += 1
        return score


class PrefixTreeDiscovery:
    """Top-k n-ary join discovery over per-table prefix trees.

    The engine mirrors the public interface of the other baselines
    (``discover(query, k) -> DiscoveryResult``) so the experiment harness can
    treat it uniformly.  It builds one trie per corpus table up front (its
    offline phase) and, online, enumerates every ordered column mapping per
    table — the factorial cost of Eq. 3.

    ``max_candidate_columns`` guards against tables whose column count makes
    the enumeration intractable; such tables are skipped and counted in
    ``counters.extra["tables_skipped_too_wide"]`` (a limitation of the
    baseline itself, not of the harness).
    """

    system_name = "prefix-tree"

    def __init__(
        self,
        corpus: TableCorpus,
        config: MateConfig | None = None,
        max_candidate_columns: int = 12,
    ):
        if max_candidate_columns < 1:
            raise DiscoveryError(
                f"max_candidate_columns must be positive, got {max_candidate_columns}"
            )
        self.corpus = corpus
        self.config = config or MateConfig()
        self.max_candidate_columns = max_candidate_columns
        self.trees: dict[int, TablePrefixTree] = {
            table.table_id: TablePrefixTree(table) for table in corpus
        }

    def discover(self, query: QueryTable, k: int | None = None) -> DiscoveryResult:
        """Return the top-k joinable tables (same result type as MATE)."""
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = DiscoveryCounters()
        started = time.perf_counter()

        key_tuples = [
            key_tuple
            for key_tuple in sorted(query.key_tuples())
            if all(value != MISSING for value in key_tuple)
        ]
        key_size = query.key_size

        topk = TopKHeap(k)
        mappings: dict[int, tuple[int, ...] | None] = {}
        skipped_too_wide = 0
        mappings_evaluated = 0

        for table_id in sorted(self.trees):
            tree = self.trees[table_id]
            if tree.num_columns < key_size:
                continue
            if tree.num_columns > self.max_candidate_columns:
                skipped_too_wide += 1
                continue
            counters.tables_evaluated += 1
            best_score = 0
            best_mapping: tuple[int, ...] | None = None
            for mapping in permutations(range(tree.num_columns), key_size):
                mappings_evaluated += 1
                score = tree.joinability_with_mapping(key_tuples, mapping, counters)
                if score > best_score:
                    best_score = score
                    best_mapping = mapping
            if topk.update(table_id, best_score):
                mappings[table_id] = best_mapping

        counters.runtime_seconds = time.perf_counter() - started
        counters.extra["mappings_evaluated"] = float(mappings_evaluated)
        counters.extra["tables_skipped_too_wide"] = float(skipped_too_wide)
        names = {
            table_id: self.corpus.get_table(table_id).name
            for table_id, _ in topk.result_tuples()
        }
        return DiscoveryResult.from_ranked(
            system=self.system_name,
            k=k,
            ranked=topk.results(),
            counters=counters,
            mappings=mappings,
            names=names,
        )
