"""Bulk sketch construction over a corpus."""

from __future__ import annotations

from ..datamodel import TableCorpus
from .index import SketchIndex, SketchIndexConfig


def build_sketch_index(
    corpus: TableCorpus, config: SketchIndexConfig | None = None
) -> SketchIndex:
    """Sketch every column of every corpus table into a fresh index, the
    whole corpus signed in one pass (:meth:`SketchIndex.add_tables`).

    The store an engine without a session (a process-pool worker over its
    shard) and the CLI's ``similarity`` / ``union`` commands build from a
    corpus, to read it at once: it is returned bucketed, so the first read
    does not pay for that.  A session builds its own store from the tables
    its index serves
    (:meth:`~repro.api.session.DiscoverySession.sketch_index`).
    """
    index = SketchIndex(config)
    index.add_tables(list(corpus))
    index.fill_buckets()
    return index
