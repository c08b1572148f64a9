"""Output format shared by every serialized result.

Outputs open with one ``metadata`` header, floats are rounded to 12
significant digits, rational values also carry an exact-rational string, and
nested results flatten to (path, value) rows for CSV: reruns are identical.
"""

from __future__ import annotations

from fractions import Fraction

from . import __version__

__all__ = ["exact_and_float", "flatten_json", "fmt_float", "metadata", "rational_str"]

BASIS_ORDER = "row-major |j1 j2 j3 j4>, first qudit slowest"


def metadata(**fields) -> dict:
    """Output header: the tool and its version, then ``fields`` in order."""
    return {"tool": "quditgraph", "version": __version__, **fields}


def fmt_float(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{float(x):.12g}")


def rational_str(x) -> str | None:
    """Exact-rational rendering of a numerically rational value, or None."""
    if isinstance(x, Fraction):
        frac = x
    else:
        frac = Fraction(float(x)).limit_denominator(10**6)
        if abs(float(frac) - float(x)) > 1e-9:
            return None
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def exact_and_float(x) -> dict:
    return {"exact": rational_str(x), "float": fmt_float(x)}


def flatten_json(obj) -> list[tuple[str, object]]:
    """Depth-first (path, leaf-value) pairs of a JSON-like structure."""
    rows: list[tuple[str, object]] = []

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(node, (list, tuple)):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            rows.append((path, node))

    walk(obj, "")
    return rows
