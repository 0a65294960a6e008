"""Deterministic JSON/CSV rendering.

Reports must serialize to byte-identical output for identical inputs, so
floats are always printed with 17 significant digits (enough to round-trip
IEEE doubles) and dict key order is preserved exactly as constructed.  Every
report record derives from ``Record``, whose key order is its dataclass
field order.
"""

import dataclasses
import json
import math


class Record:
    """Mixin for report dataclasses: ``to_json_dict`` lists the fields in
    declaration order, writes ``h_name`` as ``"h"`` and tuples as lists, and
    skips fields marked ``metadata={"json": False}``."""

    def to_json_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            if f.metadata.get("json", True):
                v = getattr(self, f.name)
                out["h" if f.name == "h_name" else f.name] = \
                    list(v) if isinstance(v, tuple) else v
        return out


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def dumps_stable(obj) -> str:
    """Serialize to JSON with fixed key order and 17-significant-digit floats."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps_stable(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_stable(v) for v in obj) + "]"
    # numpy scalars land here; coerce through float/int
    if hasattr(obj, "item"):
        return dumps_stable(obj.item())
    raise TypeError(f"cannot serialize {type(obj)!r}")


def csv_value(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        s = format_float(x)
        return s.strip('"')
    s = str(x)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def dict_to_csv(d: dict) -> str:
    """Render a flat record as a two-line CSV (header + row).

    Nested containers and nulls are dropped: CSV has no representation for
    them and the JSON form carries the full record.
    """
    flat = {k: v for k, v in d.items()
            if v is not None and not isinstance(v, (dict, list, tuple))}
    header = ",".join(flat.keys())
    row = ",".join(csv_value(v) for v in flat.values())
    return header + "\n" + row + "\n"


def rows_to_csv(rows: list, columns: list) -> str:
    out = [",".join(columns)]
    for r in rows:
        out.append(",".join(csv_value(r[c]) for c in columns))
    return "\n".join(out) + "\n"
