"""Bulk sketch construction over a corpus."""

from __future__ import annotations

from ..datamodel import TableCorpus
from .index import SketchIndex, SketchIndexConfig


def build_sketch_index(
    corpus: TableCorpus, config: SketchIndexConfig | None = None
) -> SketchIndex:
    """Sketch every column of every corpus table into a fresh index, the
    whole corpus signed in one pass (:meth:`SketchIndex.add_tables`).

    The store a sketch-mode request or the CLI's ``similarity`` / ``union``
    commands build from a corpus whose index owns none, to read it at once:
    it is returned bucketed, so the first read does not pay for that.  An
    offline build that also wants the postings uses
    :meth:`~repro.index.builder.IndexBuilder.build_with_sketches`, which
    signs from the dictionary pass of its own build and leaves the buckets
    to the first read.
    """
    index = SketchIndex(config)
    index.add_tables(list(corpus))
    index.fill_buckets()
    return index
