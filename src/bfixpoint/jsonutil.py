"""Deterministic JSON output: sorted keys, two-space indent, 17-digit floats.

17 digits round-trip 64-bit floats exactly, and a fixed key order makes
repeated runs byte-identical, so reports can be diffed and hashed.
"""

from __future__ import annotations

import json
import math


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite number in JSON output: {x}")
    return format(x, ".17g")


def _emit(obj, out: list, level: int) -> None:
    pad = "  " * (level + 1)  # two spaces per nesting level
    closing = "  " * level
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for i, k in enumerate(keys):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad + json.dumps(k, ensure_ascii=True) + ": ")
            _emit(obj[k], out, level + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(closing + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(closing + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def dumps_canonical(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out)
