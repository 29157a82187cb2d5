"""The approximate candidate tier: MinHash sketches + banded LSH.

The exact pipeline (:mod:`repro.plan`) pays for every candidate posting
list it fetches, prefilters and verifies; this package precomputes
per-column :class:`ColumnSketch` MinHash signatures at the first
sketch-mode read and serves them from a banded-LSH :class:`SketchIndex`,
so the planner's
``SketchPrune`` stage (``planner.mode="sketch"`` +
:class:`SketchOptions` on the request) can shrink the fetch universe to
the tables whose estimated containment clears a threshold — *before* the
exact stages run.  With ``threshold=0`` the tier is exhaustive and the
result is byte-identical to the exact engine; the same sketch store backs
the similarity-join and union-search extensions.

Signatures are deterministic (seeded permutations over a
process-independent base hash) and computed as numpy array passes.  Nothing
on the write path signs or writes them: a session signs the tables its
index serves at its first sketch-mode read and re-signs only what was
written since.  A store can be persisted explicitly as one self-describing
``.sk`` file (:meth:`SketchIndex.save` / :meth:`SketchIndex.load`, atomic
tmp-rename semantics); no index directory holds one.
"""

from .build import build_sketch_index
from .index import (
    DEFAULT_SKETCH_CONFIG,
    SKETCH_FILE_STEM,
    SKETCH_FORMAT_VERSION,
    SKETCH_SUFFIX,
    SketchIndex,
    SketchIndexConfig,
)
from .minhash import (
    ColumnSketch,
    containment_estimate,
    jaccard_estimate,
    minhash_signature,
    permutation_params,
)
from .options import DEFAULT_SKETCH_OPTIONS, SketchOptions

__all__ = [
    "ColumnSketch",
    "DEFAULT_SKETCH_CONFIG",
    "DEFAULT_SKETCH_OPTIONS",
    "SKETCH_FILE_STEM",
    "SKETCH_FORMAT_VERSION",
    "SKETCH_SUFFIX",
    "SketchIndex",
    "SketchIndexConfig",
    "SketchOptions",
    "build_sketch_index",
    "containment_estimate",
    "jaccard_estimate",
    "minhash_signature",
    "permutation_params",
]
