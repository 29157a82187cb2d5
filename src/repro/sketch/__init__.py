"""The approximate candidate tier: MinHash sketches + banded LSH.

The exact pipeline (:mod:`repro.plan`) pays for every candidate posting
list it fetches, prefilters and verifies; this package precomputes
per-column :class:`ColumnSketch` MinHash signatures at index/ingest time
and serves them from a banded-LSH :class:`SketchIndex`, so the planner's
``SketchPrune`` stage (``planner.mode="sketch"`` +
:class:`SketchOptions` on the request) can shrink the fetch universe to
the tables whose estimated containment clears a threshold — *before* the
exact stages run.  With ``threshold=0`` the tier is exhaustive and the
result is byte-identical to the exact engine; the same sketch store backs
the similarity-join and union-search extensions.

Signatures are deterministic (seeded permutations over a
process-independent base hash), optionally numpy-accelerated behind the
``MATE_SKETCH`` selector, and persisted next to the index segments as one
self-describing ``.sk`` file per store (a live index: per segment) with
atomic tmp-rename semantics.
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
    SKETCH_CHOICES,
    SKETCH_ENV_VAR,
    active_sketch_kernel,
    containment_estimate,
    jaccard_estimate,
    minhash_signature,
    permutation_params,
    set_sketch_kernel,
    sketch_kernel_choice,
    sketch_numpy_available,
    use_sketch_kernel,
)
from .options import DEFAULT_SKETCH_OPTIONS, SketchOptions

__all__ = [
    "ColumnSketch",
    "DEFAULT_SKETCH_CONFIG",
    "DEFAULT_SKETCH_OPTIONS",
    "SKETCH_CHOICES",
    "SKETCH_ENV_VAR",
    "SKETCH_FILE_STEM",
    "SKETCH_FORMAT_VERSION",
    "SKETCH_SUFFIX",
    "SketchIndex",
    "SketchIndexConfig",
    "SketchOptions",
    "active_sketch_kernel",
    "build_sketch_index",
    "containment_estimate",
    "jaccard_estimate",
    "minhash_signature",
    "permutation_params",
    "set_sketch_kernel",
    "sketch_kernel_choice",
    "sketch_numpy_available",
    "use_sketch_kernel",
]
