"""Per-layer numbers taken by calling a layer's public functions directly.

These run only in the traced mode, after the timed phase, on the same
generated corpus; they are the part of the per-layer table that needs no
span (hashing throughput, segment write / open, envelope serialisation).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.config import MateConfig
from repro.hashing import SuperKeyGenerator, XashHashFunction
from repro.storage import corpus_to_json, reopen_segment, write_segment

from .measure import ratio


def hashing_metrics(corpus) -> dict[str, float]:
    """``repro.hashing``: raw XASH and row super-key throughput."""
    config = MateConfig()
    distinct = sorted(corpus.unique_values())
    hash_value = XashHashFunction(config).hash_value
    started = time.perf_counter()
    for value in distinct:
        hash_value(value)
    xash_seconds = time.perf_counter() - started

    generator = SuperKeyGenerator.from_name("xash", config)
    rows = [row for table in corpus for row in table.rows]
    started = time.perf_counter()
    super_keys = [generator.row_super_key(row) for row in rows]
    row_seconds = time.perf_counter() - started
    bits = sum(bin(super_key).count("1") for super_key in super_keys)
    return {
        "hashing.xash_values_per_s": ratio(len(distinct), xash_seconds),
        "hashing.row_superkeys_per_s": ratio(len(rows), row_seconds),
        "hashing.superkey_bits_set_mean": ratio(bits, len(super_keys)),
    }


def storage_metrics(corpus, index, work_dir: Path) -> dict[str, float]:
    """``repro.storage``: one segment written, reopened and sized."""
    path = work_dir / "layer-probe.seg"
    started = time.perf_counter()
    write_segment(index, path, fsync=False)
    write_seconds = time.perf_counter() - started
    started = time.perf_counter()
    mapped = reopen_segment(
        path,
        hash_function_name=index.hash_function_name,
        hash_size=index.hash_size,
    )
    open_seconds = time.perf_counter() - started
    mapped.close()
    return {
        "storage.segment_write_s": write_seconds,
        "storage.segment_open_s": open_seconds,
        "storage.segment_bytes": float(path.stat().st_size),
        "storage.corpus_json_bytes": float(corpus_json_bytes(corpus)),
    }


def corpus_json_bytes(corpus) -> int:
    """Size of the corpus as the JSON document ``repro serve`` loads."""
    return len(json.dumps(corpus_to_json(corpus)))


def envelope_metrics(results) -> dict[str, float]:
    """``repro.api``: ``SessionResult.to_dict()`` + ``json.dumps`` per result."""
    seconds = 0.0
    size = 0
    for result in results:
        started = time.perf_counter()
        payload = json.dumps(result.to_dict())
        seconds += time.perf_counter() - started
        size += len(payload)
    return {
        "api.envelope_ms": ratio(seconds * 1e3, len(results)),
        "api.envelope_bytes": ratio(size, len(results)),
    }
