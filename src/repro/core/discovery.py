"""The MATE discovery engine: Algorithm 1 of the paper.

:class:`MateDiscovery` wires together the four online phases of Figure 2,
each an explicit operator of the :mod:`repro.plan` pipeline:

1. **Initialization** (Section 6.1): the planner picks the initiator column
   (classic selector heuristics, or exact posting counts off the index);
   the candidate-generation stage fetches its PL items (with super keys),
   groups and sorts the candidate tables, and builds the dictionary mapping
   initial-column values to the aggregated super keys of the query's
   composite key combinations.
2. **Table filtering** (Section 6.2): the two coarse-grained pruning rules
   (rule 1 in the executor's candidate loop, rule 2 inside the prefilter).
3. **Row filtering** (Section 6.3): the super-key prefilter stage.
4. **Joinability calculation**: the row-verification stage's exact check and
   Eq. 2 best-mapping score, feeding the top-k maintenance stage.

The engine is deliberately configurable along exactly the axes the paper's
experiments vary: the hash function (Tables 2/3, Figure 5), the row-filter
mode (SCR baseline, ideal oracle), the initial-column selector
(Section 7.5.4), ``k`` (Section 7.5.1), and the hash size.  Per-request
planner behaviour (seeding from the column with the fewest exactly counted
probed postings, or the sketch tier) arrives through the ``planner`` keyword
of :meth:`MateDiscovery.discover`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable

from ..config import MateConfig
from ..datamodel import QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..hashing import SuperKeyGenerator
from ..index import InvertedIndex
from .column_selection import (
    ColumnSelector,
    complete_key_tuples,
    get_column_selector,
)
from .filters import RowFilter
from .results import DiscoveryResult

if TYPE_CHECKING:  # pragma: no cover - the budget lives in the api layer
    from ..api.request import RequestBudget
    from ..plan.options import PlannerOptions
    from ..sketch import SketchIndex, SketchOptions

class MateDiscovery:
    """Top-k n-ary joinable table discovery (Algorithm 1)."""

    system_name = "mate"

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        config: MateConfig | None = None,
        hash_function_name: str | None = None,
        column_selector: ColumnSelector | str = "cardinality",
        row_filter_mode: str = "superkey",
        use_table_filters: bool = True,
        sketch_provider: "Callable[[], SketchIndex] | None" = None,
    ):
        self.corpus = corpus
        self.index = index
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name or index.hash_function_name
        if row_filter_mode == "superkey":
            # The super-key test compares query keys with the stored row
            # keys: both must come out of the same hash, at the same width.
            if self.hash_function_name != index.hash_function_name:
                raise DiscoveryError(
                    "the discovery hash function must match the index "
                    f"({self.hash_function_name!r} != {index.hash_function_name!r})"
                )
            if self.config.hash_size != index.hash_size:
                raise DiscoveryError(
                    "the discovery hash size must match the index "
                    f"({self.config.hash_size}-bit config, {index.hash_size}-bit "
                    "index)"
                )
        self.super_key_generator = SuperKeyGenerator.from_name(
            self.hash_function_name, self.config
        )
        self.column_selector = (
            get_column_selector(column_selector)
            if isinstance(column_selector, str)
            else column_selector
        )
        self.row_filter = RowFilter(self.super_key_generator, mode=row_filter_mode)
        self.use_table_filters = use_table_filters
        self._sketch_provider = sketch_provider
        self._sketch_index: "SketchIndex | None" = None

    def sketch_index(self) -> "SketchIndex":
        """The engine's MinHash-LSH sketch store.

        An injected provider is asked on every call (the session shares one
        store across engines and re-signs the tables written since its last
        read); without one, a bulk build over the engine's corpus is made on
        the first call and cached.  Only sketch-mode requests ever call it.
        """
        if self._sketch_provider is not None:
            return self._sketch_provider()
        if self._sketch_index is None:
            from ..sketch import build_sketch_index

            self._sketch_index = build_sketch_index(self.corpus)
        return self._sketch_index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover(
        self,
        query: QueryTable,
        k: int | None = None,
        *,
        budget: "RequestBudget | None" = None,
        planner: "PlannerOptions | None" = None,
        sketch: "SketchOptions | None" = None,
    ) -> DiscoveryResult:
        """Return the top-k joinable tables for ``query``.

        ``k`` defaults to the configured value.  The result carries the full
        instrumentation counters of the run, including the per-stage
        breakdown (``counters.stages``) and the plan trace
        (``result.plan``).

        ``budget`` (a :class:`~repro.api.request.RequestBudget`) bounds the
        run: its posting-list fetch budget caps how many probe values the
        initialization step fetches, and its deadline is checked before the
        fetch and at every candidate table.  A
        curtailed run returns the (well-formed, possibly empty) partial
        top-k with ``complete=False`` and the matching
        ``counters.budget_exhausted`` / ``counters.deadline_expired`` flags.
        Without a budget the behaviour is byte-identical to earlier
        releases.

        ``planner`` (a :class:`~repro.plan.options.PlannerOptions`) selects
        the seed-column strategy: the default keeps the engine's classic
        column selector (byte-identical output to earlier releases), and mode
        ``"cost"`` seeds from the key column whose probe values hold the
        fewest postings, counted exactly off the index.

        ``sketch`` (a :class:`~repro.sketch.SketchOptions`) configures the
        approximate candidate tier of planner mode ``"sketch"``: the
        MinHash-LSH prune that shrinks the fetch universe ahead of
        candidate generation.  Exhaustive settings (the default
        ``threshold=0``) keep the run byte-identical to the exact engine.
        """
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        # Imported lazily: repro.plan composes pieces of repro.core, so a
        # module-level import either way would be circular.
        from ..plan.executor import Executor
        from ..plan.planner import Planner

        plan = Planner(self, planner).plan(query)
        sketch_index = self.sketch_index() if plan.mode == "sketch" else None
        return Executor(self).execute(
            plan,
            query,
            k,
            budget=budget,
            sketch=sketch,
            sketch_index=sketch_index,
        )

    # ------------------------------------------------------------------
    # Initialization helpers
    # ------------------------------------------------------------------
    def _build_key_super_key_map(
        self, query: QueryTable, initial_column: str
    ) -> dict[str, list[tuple[tuple[str, ...], int]]]:
        """Map initial-column values to (key tuple, aggregated hash) pairs.

        This is the ``superkey_map_Q`` dictionary of Algorithm 1 (line 6): it
        lets the row filter find, for a fetched PL item, exactly the query key
        combinations that share the probed value.
        """
        initial_position = query.key_columns.index(initial_column)
        key_map: dict[str, list[tuple[tuple[str, ...], int]]] = defaultdict(list)
        for key_tuple in complete_key_tuples(query):
            probe_value = key_tuple[initial_position]
            key_super_key = self.super_key_generator.key_super_key(key_tuple)
            key_map[probe_value].append((key_tuple, key_super_key))
        return dict(key_map)
