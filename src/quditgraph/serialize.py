"""Output format shared by every serialized result.

Outputs open with one ``metadata`` header, floats are rounded to 12
significant digits, rational values also carry an exact-rational string, and
nested results render as JSON text indented by two spaces (``json_text``) or
flatten to (path, value) rows for CSV: reruns are identical.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isfinite

from . import __version__

__all__ = ["exact_and_float", "flatten_json", "fmt_float", "json_text", "metadata", "rational_str"]

BASIS_ORDER = "row-major |j1 j2 j3 j4>, first qudit slowest"


def metadata(**fields) -> dict:
    """Output header: the tool and its version, then ``fields`` in order."""
    return {"tool": "quditgraph", "version": __version__, **fields}


def fmt_float(x: float) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{float(x):.12g}")


def rational_str(x: Fraction | int) -> str:
    """Exact text of a rational, "n" or "n/m"; anything but a Fraction or an
    int raises TypeError."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise TypeError(f"exact rendering takes a Fraction or an int, not {type(x).__name__}")
    return str(x)


def exact_and_float(x: Fraction | int) -> dict:
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


def _float_text(x: float) -> str:
    if not isfinite(x):
        raise ValueError(f"JSON has no value for the float {x!r}")
    return float.__repr__(x)


# Leaf renderers by exact type: a subclass (bool of int, numpy.float64 of
# float) is not taken for its base.
_LEAF_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key_text(key) -> str:
    if type(key) is str:
        return encode_basestring_ascii(key)
    if type(key) is int:
        return f'"{int.__repr__(key)}"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")


def json_text(payload) -> str:
    """``payload`` as JSON text indented by two spaces and ending in a newline:
    byte for byte what the standard library's encoder writes with ``indent=2``,
    its strings escaped to ASCII by the same C function, floats and ints by
    their ``repr``.

    Values are dict (str or int keys), list, tuple, str, int, float, bool and
    None, taken by exact type: any other type (a numpy scalar, a Fraction, a
    set, a tuple key) raises TypeError, and a NaN or infinite float raises
    ValueError.
    """
    parts: list[str] = []
    put = parts.append
    breaks = ["\n"]  # breaks[k]: a newline and the indent of nesting level k

    def walk(node, level: int) -> None:
        kind = type(node)
        if kind is not dict and kind is not list and kind is not tuple:
            leaf = _LEAF_TEXT.get(kind)
            if leaf is None:
                raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
            put(leaf(node))
            return
        if not node:
            put("{}" if kind is dict else "[]")
            return
        if len(breaks) == level + 1:
            breaks.append(breaks[level] + "  ")
        sep, comma = breaks[level + 1], "," + breaks[level + 1]
        if kind is dict:
            put("{")
            for key, value in node.items():
                leaf = _LEAF_TEXT.get(type(value))
                if leaf is None:
                    put(f"{sep}{_key_text(key)}: ")
                    walk(value, level + 1)
                else:
                    put(f"{sep}{_key_text(key)}: {leaf(value)}")
                sep = comma
            put(breaks[level] + "}")
        else:
            put("[")
            for value in node:
                leaf = _LEAF_TEXT.get(type(value))
                if leaf is None:
                    put(sep)
                    walk(value, level + 1)
                else:
                    put(sep + leaf(value))
                sep = comma
            put(breaks[level] + "]")

    walk(payload, 0)
    put("\n")
    return "".join(parts)
