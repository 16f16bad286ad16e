"""Result tables and their CSV/JSON serialization.

A ReportBundle holds one solution table (query point, value, optional
exact value and absolute error), an optional depth-sweep table whose
second column is named by what it holds (``max_err`` against an exact
solution, ``max_update`` for the sup-norm layer update) and a metadata
mapping.  Rendering is fully deterministic: floats print with 17
significant digits (lossless for doubles), metadata keys are sorted, and
missing oracle cells are left empty.
"""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError

__all__ = ["ReportBundle", "render_csv", "render_json", "write_report"]


@dataclass
class ReportBundle:
    """Solution table plus sweep table plus run metadata."""

    kind: str
    columns: Tuple[str, ...]
    rows: List[Tuple]
    sweep: Optional[List[Tuple[int, float]]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)
    sweep_column: str = "max_err"

    def max_abs_err(self) -> Optional[float]:
        """Largest abs_err cell, or None when no oracle column is filled."""
        try:
            idx = self.columns.index("abs_err")
        except ValueError:
            return None
        errs = [row[idx] for row in self.rows if row[idx] is not None]
        return max(errs) if errs else None


def _fmt(value) -> str:
    # a float first, and the builtin by its type: most cells are one
    if type(value) is float or isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _meta_lines(metadata: Dict[str, Any]) -> List[str]:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if isinstance(value, (dict, list, tuple)):
            text = json.dumps(_jsonable(value), sort_keys=True)
        else:
            text = _fmt(value)
        lines.append(f"# {key} = {text}")
    return lines


def render_csv(bundle: ReportBundle) -> str:
    """Metadata as comment lines, then the solution table, then (when
    present) the sweep table after a blank line."""
    lines = _meta_lines(bundle.metadata)
    lines.append(",".join(bundle.columns))
    for row in bundle.rows:
        if len(row) != len(bundle.columns):
            raise ValidationError(
                f"row width {len(row)} != {len(bundle.columns)} columns")
        lines.append(",".join(map(_fmt, row)))
    if bundle.sweep is not None:
        lines += ["", f"layers,{bundle.sweep_column}"]
        for m, err in bundle.sweep:
            lines.append(f"{_fmt(int(m))},{_fmt(float(err))}")
    return "\n".join(lines) + "\n"


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def render_json(bundle: ReportBundle) -> str:
    """Same content as the CSV, as one sorted-key JSON document.  Floats
    use shortest round-trip repr, so parsing back is bit-exact.  The
    document is strict JSON: a non-finite float (an overflowed figure such
    as ``q_est``) is written as null, where the CSV writes inf or nan."""
    doc = {
        "kind": bundle.kind,
        "metadata": _jsonable(bundle.metadata),
        "solution": {
            "columns": list(bundle.columns),
            "rows": [[_jsonable(v) for v in row] for row in bundle.rows],
        },
        "sweep": None if bundle.sweep is None else {
            "columns": ["layers", bundle.sweep_column],
            "rows": [[int(m), _jsonable(float(e))] for m, e in bundle.sweep],
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(bundle: ReportBundle, fmt: str, out_path: Optional[str],
                 stream=None) -> str:
    """Render and either write to ``out_path`` or print to ``stream``.
    Returns the rendered text."""
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown output format {fmt!r}")
    text = render_csv(bundle) if fmt == "csv" else render_json(bundle)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out_path!r}: {exc}") from exc
    elif stream is not None:
        stream.write(text)
    return text
