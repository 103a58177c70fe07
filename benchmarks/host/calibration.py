"""The box's speed right now: a fixed loop of harness-only code.

The reference VM is not steady: for seconds to minutes at a time it runs
20-40% slower (a noisy neighbour on the physical core), and no median over
one run survives a shift that long.  So every timed window is bracketed by
two readings of this loop and its timings are scaled to reference speed:

    normalised = measured * REFERENCE_MS / mean(reading before, after)

The loop imitates what the library's hot paths do — slice and decode
fixed-width fields, build a per-row dict, walk a small expression tree —
so that it slows down by about as much as they do, but it shares no code
with ``src/repro``: a change to the library cannot move it, which is what
makes the quotient a measure of the library and not of the box.
"""

from __future__ import annotations

import gc
import struct
from time import perf_counter_ns
from typing import Any

#: One reading on the quiet reference box, in ms: normalised timings are
#: "milliseconds at reference speed".
REFERENCE_MS = 8.0

_NAMES = (
    "part_id", "part_ref", "part_no", "description", "status", "quantity",
    "price", "last_modified", "supplier_id",
)
#: (kind, width): 0 integer, 1 float, 2 fixed-width text.
_LAYOUT = ((0, 8), (0, 8), (2, 12), (2, 40), (2, 10), (0, 8), (1, 8), (1, 8), (0, 8))
_unpack_double = struct.Struct(">d").unpack
_EXPRESSION = (
    "and",
    (">", ("col", "quantity"), ("lit", 500)),
    ("=", ("col", "status"), ("lit", "active")),
)


def _record(i: int) -> bytes:
    values = (
        i, i, f"PN-{i:08d}", f"part {i} CCCC", ("new", "active", "revised")[i % 3],
        (i * 37) % 1000, i * 1.5, 12.5, i % 20,
    )
    parts = [b"\x00\x00"]
    for (kind, width), value in zip(_LAYOUT, values):
        if kind == 0:
            parts.append(int(value).to_bytes(width, "big", signed=True))
        elif kind == 1:
            parts.append(struct.pack(">d", value))
        else:
            parts.append(str(value).encode("ascii").ljust(width, b"\x00"))
    return b"".join(parts)


_RECORDS = [_record(i) for i in range(64)]


def _evaluate(expression: tuple, env: dict[str, Any]) -> Any:
    op = expression[0]
    if op == "lit":
        return expression[1]
    if op == "col":
        return env[expression[1]]
    left = _evaluate(expression[1], env)
    if op == "and":
        if left is False:
            return False
        return left and _evaluate(expression[2], env)
    right = _evaluate(expression[2], env)
    if left is None or right is None:
        return None
    return left > right if op == ">" else left == right


def calibrate(rows: int = 2_000) -> float:
    """One reading, in ms.  The collector is held off so that the reading
    does not depend on how large the library's heap has grown."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter_ns()
        kept = []
        for i in range(rows):
            record = _RECORDS[i & 63]
            values: list[Any] = []
            offset = 2
            for kind, width in _LAYOUT:
                chunk = record[offset:offset + width]
                if kind == 0:
                    values.append(int.from_bytes(chunk, "big", signed=True))
                elif kind == 1:
                    values.append(_unpack_double(chunk)[0])
                else:
                    values.append(chunk.rstrip(b"\x00").decode("ascii"))
                offset += width
            env = dict(zip(_NAMES, values))
            env["__row__"] = tuple(values)
            if _evaluate(_EXPRESSION, env) is True:
                kept.append(env)
        return (perf_counter_ns() - started) / 1e6
    finally:
        if was_enabled:
            gc.enable()
