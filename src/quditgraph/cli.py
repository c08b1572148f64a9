"""Command-line interface.

Three command groups:

* ``state build|reduce|eigen`` dumps the exact amplitudes of a family or
  inline graph (as basis-index / phase-exponent / magnitude triples) or
  checks its generators' eigenvalues in integers on that exact phase table.
* ``tables`` emits the full verified report bundle for one or more prime
  dimensions and fails (exit 2) if any value misses its expectation.
* ``classify`` canonicalizes a single matrix, or sweeps all (or random)
  matrices, cross-checking each class against the exact cut-rank oracle and
  replaying each trace.

Exit codes: 0 success (also when the reader closes stdout early), 2
verification mismatch, 3 invalid input or unwritable output (a bad --out path,
a failed write to stdout), 130 interrupted (Ctrl-C). Output is deterministic:
fixed key order, floats at 12 significant digits. JSON output is rendered by
serialize.json_text, byte-identical to the standard library's encoder with
indent=2; CSV output is csv.writer over serialize.flatten_json.
"""

from __future__ import annotations

import csv
import errno
import gc
import io
import json
import os
import re
import signal
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import __version__
from .classify import VerificationFailure, canonicalize, census_random, classify_exhaustive
from .graphs import AdjacencyMatrix, graph_from_json_dict
from .pauli import pauli_str
from .report import build_report
from .serialize import BASIS_ORDER, flatten_json, fmt_float, json_text, metadata
# build_state and family_reduced_state stay bound for perfbench/child.py's tracer.
from .states import (build_state, family_fourier_sites, family_graph, family_reduced_state,
                     phase_exponents, stabilizer_exponents, stabilizer_tableau)

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INVALID = 3
EXIT_INTERRUPTED = 130  # the shell's code for death by SIGINT
# No action holds a dense d^4 state: build and reduce stream rows off the exact phase table
# (build --d 23: 55 MB of CSV, 0.17 s, 37 MB); eigen checks rows on it (0.12 s, 43 MB).
MAX_STATE_D = 23
# census_random(11, N) runs about 9M matrices/s in-process on 2 AMD EPYC vCPUs: the cap takes 11 s.
MAX_RANDOM_SAMPLES = 10**8
# Amplitude rows rendered per slab: memory stays flat in d, and each slab pays its
# numpy fills once (512-row slabs made a cold d = 23 CSV dump 41 -> 55 ms).
_SLAB_ROWS = 4096
# Bytes of a slab copied out, stripped of NULs and written at a time. Pieces under
# glibc's 128 KiB mmap threshold reuse freed heap memory; a whole ~780 KB slab
# faulted in fresh pages twice (cold d = 13 CSV dump, 2 vCPUs: 3,044 -> 712 minor
# faults, 11.1 -> 8.2 ms). 8 to 128 KiB time the same; 256 KiB faults again.
_PIECE_BYTES = 64 * 1024
# One amplitude row per format, filled from (row, j1, j2, j3, j4, phase_exp, magnitude):
# the bytes csv.writer over flatten_json and json_text give the row.
_ROW_TEMPLATES = {
    "csv": ("amplitudes[{0}].basis[0],{1}\namplitudes[{0}].basis[1],{2}\n"
            "amplitudes[{0}].basis[2],{3}\namplitudes[{0}].basis[3],{4}\n"
            "amplitudes[{0}].phase_exp,{5}\namplitudes[{0}].magnitude,{6}\n"),
    "json": ('\n    {{\n      "basis": [\n        {1},\n        {2},\n        {3},\n'
             '        {4}\n      ],\n      "phase_exp": {5},\n      "magnitude": {6}\n    }}'),
}
_ROW_SEPARATORS = {"csv": "", "json": ","}


# Per command: its help line, its actions (state's one positional) and its options,
# flag -> (kind, help). A kind is int, str, a tuple of choices, bool (a flag that
# takes no value) or list (an int, repeatable, kept in order, at least one).
_OUTPUT = {"--format": (("json", "csv"), "output format (default json)"),
           "--out": (str, "write to this path instead of stdout")}
_MATRIX = (str, 'inline JSON {"d": int, "gamma": [[..]x4]}')
_COMMANDS = {
    "state": ("amplitude dumps and eigenvalue reports", ("build", "reduce", "eigen"), {
        "--family": (("G", "C", "P", "psi"), "named state family"),
        "--gamma": (int, "chord weight for the psi family"),
        "--d": (int, "prime qudit dimension"), "--matrix": _MATRIX,
        "--generators": (("graph", "reduced"), "generator frame for eigen (default graph)"),
        **_OUTPUT}),
    "tables": ("verified report bundle", (), {
        "--d": (list, "prime dimension (repeatable)"), **_OUTPUT}),
    "classify": ("canonicalize graphs into classes", (), {
        "--d": (int, "dimension (for sweep modes)"), "--matrix": _MATRIX,
        "--exhaustive": (bool, "sweep all d^6 matrices"),
        "--random": (int, "check this many random matrices"),
        "--seed": (int, "seed for --random (default 0)"), **_OUTPUT}),
}


def _is_value(token: str) -> bool:
    """Whether a token is a value, not an option: "-" and negative numbers are
    (the whole token matches -|-D+|-D*.D+, D a Unicode decimal digit)."""
    number = token[1:]
    whole, _, frac = number.partition(".")  # frac is "" without a "."
    return (not token.startswith("-") or not number or number.isdecimal()
            or frac.isdecimal() and (not whole or whole.isdecimal()))


def _is_int(token: str) -> bool:
    """Whether a token is a CLI int: ASCII digits, with an optional leading "-"."""
    return token.isascii() and token.removeprefix("-").isdigit()


def _parse(argv=None):
    """The handlers' namespace, or the text of --help or --version. Options are "--opt value"
    or "--opt=value", never abbreviated; the last one wins; an int is ASCII digits, with an
    optional leading "-". A usage error raises ValueError."""
    command, *tokens = (sys.argv[1:] if argv is None else argv) or [None]
    if command in ("-h", "--help", "--version"):
        return f"quditgraph {__version__}\n" if command == "--version" else _help(None)
    if command not in _COMMANDS:
        raise ValueError(f"choose a command from {', '.join(_COMMANDS)}"
                         + (f", not {command!r}" if command else ""))
    _, actions, options = _COMMANDS[command]
    args = {flag[2:]: [] if kind is list else False if kind is bool else None
            for flag, (kind, _) in options.items()}
    args.update(command=command, action=None, format="json")
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        if _is_value(token):
            if token not in actions or args["action"]:
                raise ValueError(f"unexpected argument {token!r}" + (
                    f"; {command} takes one action of {', '.join(actions)}" if actions else ""))
            args["action"] = token
            continue
        flag, eq, value = token.partition("=")
        if flag not in options:
            raise ValueError(f"unknown option {flag} for {command}")
        kind = options[flag][0]
        if kind is bool and eq:
            raise ValueError(f"{flag} takes no value")
        if kind is not bool and not eq:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                raise ValueError(f"{flag} expects a value")
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"{flag} must be one of {', '.join(kind)}, not {value!r}")
        if kind in (int, list) and not _is_int(value):
            raise ValueError(f"{flag} expects an int, not {value!r}")
        value = True if kind is bool else int(value) if kind in (int, list) else value
        args[flag[2:]] = args[flag[2:]] + [value] if kind is list else value
    if actions and not args["action"]:
        raise ValueError(f"{command} needs an action: {', '.join(actions)}")
    if args.get("d") == []:
        raise ValueError(f"{command} needs --d")
    return SimpleNamespace(**args)


def _help(command) -> str:
    """Help text from the option table: at top level the module docstring and the
    commands, else the command's options with their choices."""
    if command is None:
        usage, about = f"{{{','.join(_COMMANDS)}}} ...", __doc__.strip()
        rows = [(name, text) for name, (text, _, _) in _COMMANDS.items()] + [
            ("--version", "show the version and exit")]
    else:
        about, actions, options = _COMMANDS[command]
        usage = f"{command} " + (f"{{{','.join(actions)}}} " if actions else "") + "[options]"
        rows = []
        for flag, (kind, text) in options.items():
            value = f"{{{','.join(kind)}}}" if isinstance(kind, tuple) else flag[2:].upper()
            rows.append((flag if kind is bool else f"{flag} {value}", text))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(name) for name, _ in rows) + 2
    return f"usage: quditgraph {usage}\n\n{about}\n\n" + "".join(
        f"  {name:<{width}}{text}\n" for name, text in rows)


@dataclass(frozen=True)
class _AmplitudeTable:
    """Amplitudes omega^phase_exp * magnitude at flat indices of the d^4 basis,
    the magnitude rendered once, as every row shares it."""

    d: int
    flat: np.ndarray
    phase_exp: np.ndarray
    magnitude: str


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """ASCII digits of non-negative ints right-aligned in ``width`` bytes, leading
    zeros NUL, one ``width``-byte void item per value."""
    text = np.empty((len(values), width), np.uint8)
    for k in range(width - 1, -1, -1):
        high = values // 10
        text[:, k] = (values - 10 * high + ord("0")) * ((values > 0) | (k == width - 1))
        values = high
    return text.view(f"V{width}").ravel()


def _amplitude_slabs(table: _AmplitudeTable, fmt: str):
    """The table's rows as the row template renders them, in ASCII bytes:
    rendered _SLAB_ROWS at a time, yielded at most _PIECE_BYTES (or one row)
    at a time.

    The separator and the template, formatted with each numeric field k a run
    of byte k + 1, make one skeleton row: the row-number run is as wide as the
    slab's widest row number, the others as wide as d - 1. The skeleton is
    tiled once into a slab buffer, and again only when the row-number width
    changes. The buffer is viewed as one record per row with a field per run,
    so each run of a slab fills in one copy. Each slab overwrites the runs
    with digits, leading zeros NUL (values 0..d-1 from one digit table, row
    numbers once per slab). Each piece of the slab is then copied out and its
    NULs deleted: the rendered bytes never hold one.
    """
    n, d, separator = len(table.flat), table.d, _ROW_SEPARATORS[fmt]
    assert not re.search("[\x00-\x06]", separator + _ROW_TEMPLATES[fmt] + table.magnitude)
    width = len(str(d - 1))
    values = _digits(np.arange(d), width)
    numbered = "{0}" in _ROW_TEMPLATES[fmt]
    records = row_width = None
    for start in range(0, n, _SLAB_ROWS):
        stop = min(start + _SLAB_ROWS, n)
        if records is None or (numbered and len(str(stop - 1)) != row_width):
            row_width = len(str(stop - 1))
            marks = (chr(k + 1) * w for k, w in enumerate([row_width] + [width] * 5))
            row = separator + _ROW_TEMPLATES[fmt].format(*marks, table.magnitude)
            runs = list(re.finditer("[\x01-\x06]+", row))
            slots = [(ord(run[0][0]) - 1, f"run{i}") for i, run in enumerate(runs)]
            layout = np.dtype({"names": [name for _, name in slots],
                               "formats": [f"V{len(run[0])}" for run in runs],
                               "offsets": [run.start() for run in runs], "itemsize": len(row)})
            skeleton = np.frombuffer(row.encode(), np.uint8)
            records = np.tile(skeleton, (stop - start, 1)).view(layout).ravel()
        slab = records[:stop - start]
        columns = (*np.unravel_index(table.flat[start:stop], (d,) * 4), table.phase_exp[start:stop])
        fields = dict(enumerate((values.take(c) for c in columns), 1))
        if numbered:
            fields[0] = _digits(np.arange(start, stop), row_width)
        for field, name in slots:
            slab[name] = fields[field]
        # no separator before the first row: sliced off, as later slabs reuse the buffer
        skip = len(separator) if start == 0 else 0
        step = max(1, _PIECE_BYTES // len(row))
        for a in range(0, stop - start, step):
            yield slab[a:a + step].tobytes().replace(b"\0", b"")[skip:]
            skip = 0


def _render(payload: dict, fmt: str, amplitudes: _AmplitudeTable | None):
    """Output bytes in pieces: the payload, encoded once as UTF-8, then the
    amplitude rows under "amplitudes"."""
    if fmt == "json":
        text = json_text(payload)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["path", "value"])
        for path, value in flatten_json(payload):
            writer.writerow([path, "" if value is None else value])
        text = buf.getvalue()
    if amplitudes is None:
        yield text.encode()
        return
    if fmt == "json":  # reopen the payload's closing brace for the list
        text = text[: -len("\n}\n")] + ',\n  "amplitudes": ['
    yield text.encode()
    yield from _amplitude_slabs(amplitudes, fmt)
    yield b"\n  ]\n}\n" if fmt == "json" else b""


def _emit(payload: dict, fmt: str, out: str | None,
          amplitudes: _AmplitudeTable | None = None) -> None:
    """Write payload to ``out`` or stdout, followed by the amplitude table if
    given: its rows are rendered a slab at a time and written in pieces of at
    most _PIECE_BYTES. Both sinks take the rendered bytes as they are: a file
    opened in binary mode, or stdout's binary buffer once any text already
    written to stdout is flushed."""
    pieces = _render(payload, fmt, amplitudes)
    if out is not None:  # an empty path is unwritable, not stdout
        try:
            with open(out, "wb") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc.strerror or exc}") from exc
    else:
        stdout = _stdout()
        stdout.flush()
        stdout.buffer.writelines(pieces)
        stdout.flush()  # a failed write shows here, not in the flush at exit


def _stdout():
    """sys.stdout, or an OSError if fd 1 was closed before start-up (`>&-`)."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key is an error, not a
    silent overwrite by the last value."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"invalid matrix JSON: repeated key {key!r}")
        obj[key] = value
    return obj


def _parse_matrix(text: str) -> AdjacencyMatrix:
    """Graph of a --matrix argument in the wire format."""
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise ValueError(f"invalid matrix JSON: {exc}") from exc
    return graph_from_json_dict(obj)


def _resolve_graph(args) -> AdjacencyMatrix:
    """The graph the flags name: --matrix alone, or --family and --d (and
    --gamma in [0, d) for psi only); any other flag, or a --gamma that would
    be reduced mod d, is an error, not silently dropped or coerced."""
    if args.matrix is not None:
        if args.family or args.d is not None or args.gamma is not None:
            raise ValueError("--matrix excludes --family, --d and --gamma")
        return _parse_matrix(args.matrix)
    if not args.family:
        raise ValueError("provide --family or --matrix")
    if args.d is None:
        raise ValueError("provide --d with --family")
    if args.gamma is not None and args.family != "psi":
        raise ValueError(f"--gamma applies to family psi, not {args.family}")
    g = family_graph(args.family, args.d, args.gamma)
    if args.gamma is not None and not 0 <= args.gamma < g.d:
        raise ValueError(f"--gamma must be in [0, {g.d}), got {args.gamma}")
    return g


def _graph_amplitudes(g: AdjacencyMatrix, fourier_sites=()) -> _AmplitudeTable:
    """Exact amplitudes omega^phase_exp * d^(|S|/2 - 2) over the support of the
    graph state of g after a Fourier transform on the sites S, in basis order."""
    exponents = phase_exponents(g, fourier_sites).reshape(-1)
    flat = np.flatnonzero(exponents >= 0)
    magnitude = g.d ** (len(set(fourier_sites)) / 2) / g.d**2
    return _AmplitudeTable(g.d, flat, exponents[flat], repr(fmt_float(magnitude)))


def _cmd_state(args) -> int:
    g = _resolve_graph(args)
    if args.generators is not None and args.action != "eigen":
        raise ValueError("--generators applies to the eigen action only")
    if g.d > MAX_STATE_D:
        raise ValueError(f"state commands support d <= {MAX_STATE_D}")
    meta = metadata(d=g.d, family=args.family, gamma=args.gamma,
                    matrix=[list(row) for row in g.entries], basis_order=BASIS_ORDER)
    reduced = args.action == "reduce" or args.generators == "reduced"
    if reduced and not args.family:
        raise ValueError(f"{'reduce' if args.action == 'reduce' else '--generators reduced'} "
                         "needs a named family (the reduction frame)")
    sites = family_fourier_sites(args.family) if reduced else ()
    if args.action in ("build", "reduce"):
        if reduced:
            meta["fourier_sites"] = [s + 1 for s in sites]
        _emit({"metadata": meta}, args.format, args.out, _graph_amplitudes(g, sites))
        return EXIT_OK
    # eigen: the generators X_n Z^Gamma_n as tableau rows, checked on the exact phase table
    t = stabilizer_tableau(g, sites)
    # the Fourier frame adds no phase: -x_s z_s = -Gamma_nn [n = s] = 0
    words = [pauli_str(rows.tolist()) for rows in t.xz]
    exponents = stabilizer_exponents(phase_exponents(g, sites), t)
    results = [{"generator": w, "eigen_exp": r, "expected": 0} for w, r in zip(words, exponents)]
    ok = all(r == 0 for r in exponents)
    meta["generators"] = args.generators or "graph"
    _emit({"metadata": meta, "results": results, "all_match": ok}, args.format, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_tables(args) -> int:
    bundle, ok = build_report(args.d)
    _emit(bundle, args.format, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_classify(args) -> int:
    modes = (args.matrix is not None) + args.exhaustive + (args.random is not None)
    if modes != 1:
        raise ValueError("choose exactly one of --matrix, --exhaustive, --random N")
    if args.seed is not None and args.random is None:
        raise ValueError("--seed applies to --random only")
    if args.matrix is not None:
        if args.d is not None:
            raise ValueError("--matrix carries its own d; drop --d")
        g = _parse_matrix(args.matrix)
        d, result = g.d, canonicalize(g)
    elif args.d is None:
        raise ValueError("sweep modes need --d")
    elif args.exhaustive:
        d, result = args.d, classify_exhaustive(args.d)
    elif args.random > MAX_RANDOM_SAMPLES:
        raise ValueError(f"--random supports N <= {MAX_RANDOM_SAMPLES}")
    else:
        d, result = args.d, census_random(args.d, args.random, args.seed or 0)
    _emit({"metadata": metadata(d=d), **result.to_json_dict()}, args.format, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    # Importing numpy and this package leaves about 22,000 objects tracked. Frozen, no
    # collection walks them: not the generation-1 one in a cold `tables` run (0.75 of 4.35 ms
    # of main()), nor the one at exit (main() returning to the process ending: 20-23 -> 5-6 ms;
    # 2 vCPUs, Python 3.11). Not at import, which must have no process-wide effect; and once,
    # as freezing on every in-process call would keep each call's garbage for good.
    if not gc.get_freeze_count():
        gc.freeze()
    handlers = {"state": _cmd_state, "tables": _cmd_tables, "classify": _cmd_classify}
    try:
        args = _parse(argv)
        if isinstance(args, str):  # the text of --help or --version
            print(args, end="", file=_stdout(), flush=True)
            return EXIT_OK
        return handlers[args.command](args)
    except OSError as exc:
        # Only stdout raises OSError here: _emit turns --out failures into
        # ValueError, and --help and --version write through _stdout too. Point
        # it at devnull so the flush at exit cannot raise again. A reader that
        # closed it early (`quditgraph ... | head`) is no error; any other
        # failure (`> /dev/full`, `>&-`) is the sink's, as with --out.
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_OK
        sys.stderr.write(f"quditgraph: error: cannot write stdout: {exc.strerror or exc}\n")
        return EXIT_INVALID
    except VerificationFailure as exc:
        sys.stderr.write(f"quditgraph: verification failed: {exc}\n")
        return EXIT_MISMATCH
    except ValueError as exc:
        sys.stderr.write(f"quditgraph: error: {exc}\n")
        return EXIT_INVALID
    except KeyboardInterrupt:
        # timeout(1) signals the child and then its process group, so a second
        # SIGINT can follow the first: ignore it while reporting.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        sys.stderr.write("quditgraph: interrupted\n")
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
