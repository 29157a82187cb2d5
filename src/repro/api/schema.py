"""The JSON response schema shared by every machine-readable output.

One schema version covers everything this repository serialises for external
consumers: the CLI's ``--json`` output, the HTTP server's ``/v1/discover``
responses, and
:meth:`SessionResult.to_dict <repro.api.results.SessionResult.to_dict>`.
Each payload is wrapped in the same envelope::

    {"schema_version": 3, "kind": "<payload kind>", ...payload fields...}

Field names are part of the contract: renaming or removing one requires a
``SCHEMA_VERSION`` bump (adding fields does not).
"""

from __future__ import annotations

#: Version of the JSON envelope and the field names inside it.
#:
#: v2 (planner pipeline): ``discovery_result`` payloads gained the
#: ``stages`` per-stage breakdown, the ``plan`` execution trace, and
#: ``request.planner_mode``.  Every v1 field is unchanged.
#:
#: v3 (exact seed counts): the ``plan`` document lost
#: ``executed_seed_column`` (always ``seed_column``), ``discarded_postings``
#: and the list of re-plan events; each ``seed`` / ``alternatives`` entry lost
#: ``estimated_postings``, ``sampled_values``, ``estimate_exact`` and
#: ``cost``, and gained ``postings`` (the exact count; ``null``, like
#: ``probe_count``, when the mode counts nothing).  Planner mode
#: ``adaptive`` is gone.  Every other v2 field is unchanged.
SCHEMA_VERSION = 3

#: Envelope kinds currently emitted.
KIND_DISCOVERY_RESULT = "discovery_result"
KIND_BATCH_RESULT = "batch_result"


def json_envelope(kind: str, payload: dict) -> dict:
    """Wrap ``payload`` in the versioned envelope (a new dictionary)."""
    document = {"schema_version": SCHEMA_VERSION, "kind": kind}
    document.update(payload)
    return document
