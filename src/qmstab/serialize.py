"""File formats: model and operator JSON, report JSON, CSV and SVG series.

Complex numbers are stored as two-element [re, im] arrays, a complex matrix
as an array of rows; a model's coupling may also be stored as two factors,
{"left": A, "right": B} for L = A B'. Reports are emitted with sorted keys
and a fixed indentation so identical runs produce byte-identical files; the
timestamp lives in a separate `meta` object that comparisons exclude. All
files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .generator import ModelSpec
from .operators import OperatorError, Verdict, dag


class FormatError(ValueError):
    """Input file does not parse into the documented schema."""


# ---------------------------------------------------------------------------
# Complex matrices
# ---------------------------------------------------------------------------

def complex_matrix_to_json(a: np.ndarray) -> list:
    """[re, im] pairs for every entry, as Python floats (signed zeros and
    non-finite values kept); any shape, so complex vectors use it too."""
    arr = np.asarray(a, dtype=complex)
    return np.stack((arr.real, arr.imag), -1).tolist()


def complex_matrix_from_json(obj, what: str = "matrix", square: bool = True) -> np.ndarray:
    try:
        pairs = np.asarray(obj)
    except ValueError as exc:  # ragged nesting
        raise FormatError(
            f"{what}: expected an array of rows of [re, im] pairs ({exc})"
        ) from exc
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise FormatError(
            f"{what}: expected an array of rows of [re, im] pairs, "
            f"got shape {pairs.shape} and dtype {pairs.dtype}"
        )
    if square and pairs.shape[0] != pairs.shape[1]:
        raise FormatError(f"{what}: expected a square matrix, got shape {pairs.shape[:2]}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_to_json(model: ModelSpec, labels: list[str] | None = None, factors=None) -> dict:
    """`factors`, when given, holds one `(left, right)` pair per coupling,
    L = left @ right', and the couplings are written in that form."""
    if factors is None:
        couplings = [complex_matrix_to_json(l) for l in model.couplings]
    else:
        couplings = [
            {"left": complex_matrix_to_json(left), "right": complex_matrix_to_json(right)}
            for left, right in factors
        ]
    doc = {
        "dim": model.dim,
        "hamiltonian": complex_matrix_to_json(model.hamiltonian),
        "couplings": couplings,
    }
    if labels is not None:
        doc["labels"] = list(labels)
    return doc


def _coupling_from_json(obj, dim: int, what: str) -> np.ndarray:
    """A dense matrix, or {"left": dim x r, "right": dim x r} meaning
    left @ right' with 1 <= r <= dim."""
    if not isinstance(obj, dict):
        return complex_matrix_from_json(obj, what)
    if sorted(obj) != ["left", "right"]:
        raise FormatError(
            f"{what}: a factored coupling has exactly the keys 'left' and 'right', "
            f"got {sorted(obj)}"
        )
    left, right = (
        complex_matrix_from_json(obj[key], f"{what}.{key}", square=False)
        for key in ("left", "right")
    )
    if left.shape != right.shape or left.shape[0] != dim or not 1 <= left.shape[1] <= dim:
        raise FormatError(
            f"{what}: left and right must both be {dim} x r with 1 <= r <= {dim}, "
            f"got {left.shape} and {right.shape}"
        )
    return left @ dag(right)


def model_from_json(doc) -> tuple[ModelSpec, list[str] | None]:
    if not isinstance(doc, dict):
        raise FormatError("model file must contain a JSON object")
    for key in ("dim", "hamiltonian", "couplings"):
        if key not in doc:
            raise FormatError(f"model file is missing the {key!r} field")
    dim = doc["dim"]
    if type(dim) is not int:  # bool is an int subclass, and 2.0 == 2
        raise FormatError(f"dim must be a JSON integer, got {dim!r}")
    h = complex_matrix_from_json(doc["hamiltonian"], "hamiltonian")
    if h.shape[0] != dim:
        raise FormatError(f"hamiltonian is {h.shape[0]}x{h.shape[0]} but dim = {dim}")
    if not isinstance(doc["couplings"], list) or not doc["couplings"]:
        raise FormatError("couplings must be a nonempty array of complex matrices")
    ls = [_coupling_from_json(l, dim, f"couplings[{i}]") for i, l in enumerate(doc["couplings"])]
    try:
        model = ModelSpec(h, ls)
    except OperatorError as exc:
        raise FormatError(str(exc)) from exc
    labels = doc.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and len(labels) == dim and all(type(x) is str for x in labels)
    ):
        raise FormatError("labels must list one string per basis vector")
    return model, labels


def load_model(path) -> tuple[ModelSpec, list[str] | None]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_json(doc)


def save_model(model: ModelSpec, path, labels: list[str] | None = None, factors=None) -> None:
    write_json(model_to_json(model, labels, factors), path)


def load_operator(path, what: str = "operator") -> np.ndarray:
    """Operator files hold either a bare complex matrix or {"matrix": ...}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {what} file {path}: {exc}") from exc
    if isinstance(doc, dict):
        if "matrix" not in doc:
            raise FormatError(f"{what} file {path} has no 'matrix' field")
        doc = doc["matrix"]
    return complex_matrix_from_json(doc, what)


def save_operator(a: np.ndarray, path) -> None:
    write_json({"matrix": complex_matrix_to_json(a)}, path)


# ---------------------------------------------------------------------------
# Canonical JSON output
# ---------------------------------------------------------------------------

def _atomic_write(path, data: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o644)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_canonical(doc) -> str:
    """Deterministic JSON: sorted keys, two-space indentation, and numeric
    leaf lists (like [re, im] pairs) kept on one line."""
    return _render(doc, 0) + "\n"


def _float_json(x: float) -> str:
    if x - x == 0.0:  # finite
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


# Encoders for exact leaf types, each giving the text json.dumps gives.
# Subclasses (np.float64, IntEnum, ...) are not listed and take json.dumps.
_LEAF_JSON = {
    float: _float_json,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
}


def _render(obj, indent: int) -> str:
    """Canonical text of `obj`. Besides JSON values it takes numpy arrays and
    scalars, complex numbers, `Verdict`s and dataclasses, converted one level
    at a time after the dict and list branches: a 2-D array or a complex
    vector becomes [re, im] rows, another array its nested list, a complex
    number [re, im], a verdict its string value and a dataclass the dict of
    its fields."""
    leaf = _LEAF_JSON.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        try:
            keys = sorted(obj)
        except TypeError:  # keys that do not compare, like 5 and "a"
            keys = sorted(obj, key=str)
        pad = " " * (indent + 2)
        items = [
            f"{pad}{encode_basestring_ascii(str(k))}: {_render(obj[k], indent + 2)}"
            for k in keys
        ]
        return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # leaves encoded here save one call per number in [re, im] pairs
        rendered = [
            leaf(x) if (leaf := _LEAF_JSON.get(type(x))) else _render(x, indent + 2)
            for x in obj
        ]
        inline = "[" + ", ".join(rendered) + "]"
        if "\n" not in inline and len(inline) + indent <= 100:
            return inline
        pad = " " * (indent + 2)
        return "[\n" + ",\n".join(pad + r for r in rendered) + "\n" + " " * indent + "]"
    if isinstance(obj, np.ndarray):
        if obj.ndim == 2 or (obj.ndim == 1 and np.iscomplexobj(obj)):
            return _render(complex_matrix_to_json(obj), indent)
        return _render(obj.tolist(), indent)
    if isinstance(obj, np.generic):
        return _render(obj.item(), indent)
    if isinstance(obj, complex):
        return _render([obj.real, obj.imag], indent)
    if isinstance(obj, Verdict):
        return _render(obj.value, indent)
    if is_dataclass(obj):
        return _render({f.name: getattr(obj, f.name) for f in fields(obj)}, indent)
    return json.dumps(obj)


def write_json(doc, path) -> None:
    _atomic_write(path, dumps_canonical(doc))


# ---------------------------------------------------------------------------
# Series output
# ---------------------------------------------------------------------------

def emit_series(times, values, path, fmt: str = "csv", name: str = "value") -> None:
    """Write a time series as CSV (`t,value`, 17 significant digits) or as a
    self-contained SVG line chart."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size == 0 or y.size == 0:
        raise FormatError("refusing to write an empty series")
    if t.shape != y.shape:
        raise FormatError("time and value arrays differ in length")
    if fmt == "csv":
        lines = ["t,value"]
        lines += [f"{ti:.17g},{yi:.17g}" for ti, yi in zip(t, y)]
        _atomic_write(path, "\n".join(lines) + "\n")
    elif fmt == "svg":
        _atomic_write(path, _series_svg(t, y, name))
    else:
        raise FormatError(f"unknown series format {fmt!r}")


def _series_svg(t: np.ndarray, y: np.ndarray, name: str) -> str:
    width, height, pad = 640, 400, 54
    t0, t1 = float(t.min()), float(t.max())
    y0, y1 = float(y.min()), float(y.max())
    if t1 - t0 <= 0:
        t1 = t0 + 1.0
    if y1 - y0 <= 0:
        y1 = y0 + 1.0
    sx = (width - 2 * pad) / (t1 - t0)
    sy = (height - 2 * pad) / (y1 - y0)
    pts = " ".join(
        f"{pad + (ti - t0) * sx:.2f},{height - pad - (yi - y0) * sy:.2f}"
        for ti, yi in zip(t, y)
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="white"/>\n'
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        f'stroke="black"/>\n'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>\n'
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="13">t</text>\n'
        f'<text x="16" y="{height // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="13" transform="rotate(-90 16 {height // 2})">{name}</text>\n'
        f'<text x="{pad}" y="{height - pad + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{t0:.6g}</text>\n'
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{t1:.6g}</text>\n'
        f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y0:.6g}</text>\n'
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{y1:.6g}</text>\n'
        f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{pts}"/>\n'
        "</svg>\n"
    )
