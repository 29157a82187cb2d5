"""SQL-pushdown discovery: Algorithm 1 compiled into SQLite.

This package holds the first engine of the reproduction that does not
materialise posting lists in Python.  :mod:`repro.engine_sql.accelerator`
defines the denormalised posting/super-key schema and builds it in a
private in-memory database; :mod:`repro.engine_sql.engine` compiles
candidate generation, the XASH reject, and the table-filter decisions into
parameterised SQL over that schema, leaving only row verification and top-k
maintenance in Python.  Registered as ``engine="sql"`` in the session
registry.
"""

from .accelerator import (
    MAX_NARROW_HASH_SIZE,
    build_accelerator,
    key_width,
    register_covers_function,
)
from .engine import PUSHDOWN_STAGES, STAGE_PUSHDOWN_SCAN, SQLPushdownEngine

__all__ = [
    "MAX_NARROW_HASH_SIZE",
    "PUSHDOWN_STAGES",
    "STAGE_PUSHDOWN_SCAN",
    "SQLPushdownEngine",
    "build_accelerator",
    "key_width",
    "register_covers_function",
]
