"""`state build` and `state reduce` stream their amplitude rows in slabs off
the exact phase table: the bytes must equal the one-dict-per-amplitude route
(for `reduce`, over the dense Fourier-reduced state), memory must stay flat,
and a reader that closes the pipe early must not see a traceback."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from itertools import product

import numpy as np
import pytest

import quditgraph
from quditgraph import cli
from quditgraph.cli import EXIT_INVALID, EXIT_OK, main
from quditgraph.pauli import omega_powers
from quditgraph.serialize import BASIS_ORDER, flatten_json, fmt_float, metadata
from quditgraph.states import (
    family_fourier_sites,
    family_graph,
    family_reduced_state,
    phase_exponents,
)

from conftest import random_graph
from pins import PINS

FAMILY_ARGS = [("G", None), ("C", None), ("P", None), ("psi", 2)]


def reference_graph_amplitudes(g) -> list[dict]:
    """One dict per basis state, in basis order."""
    magnitude = fmt_float(1.0 / g.d**2)
    exponents = phase_exponents(g).reshape(-1).tolist()
    return [
        {"basis": list(idx), "phase_exp": exp, "magnitude": magnitude}
        for idx, exp in zip(product(range(g.d), repeat=4), exponents)
    ]


def reference_state_amplitudes(state, tol: float = 1e-9) -> list[dict]:
    """One dict per nonzero amplitude, one amplitude at a time, with the global
    phase normalized so the first nonzero amplitude is real positive."""
    d = state.d
    amps = state.amps
    nz = np.nonzero(np.abs(amps) > tol)[0]
    rotated = amps * (abs(amps[nz[0]]) / amps[nz[0]])
    rows = []
    for flat in nz:
        a = rotated[flat]
        mag = abs(a)
        k = int(np.round(d * np.angle(a) / (2 * np.pi))) % d
        rows.append({
            "basis": [int(v) for v in np.unravel_index(int(flat), (d,) * state.n_qudits)],
            "phase_exp": k if abs(a - mag * omega_powers(d)[k]) <= 1e-8 * mag else None,
            "magnitude": fmt_float(mag),
        })
    return rows


def reference_text(payload: dict, fmt: str) -> str:
    """The whole payload through json.dumps, or csv.writer over flatten_json."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["path", "value"])
    for path, value in flatten_json(payload):
        writer.writerow([path, "" if value is None else value])
    return buf.getvalue()


def assert_same_text(text: str, expected: str, label) -> None:
    """Equality of two dumps, reporting the first difference in context
    rather than diffing megabytes."""
    if text != expected:
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b),
                  min(len(text), len(expected)))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"{label}: dumps differ at character {at}: "
                    f"{text[window]!r} != {expected[window]!r}")


def _graph_cases(d: int):
    """(CLI graph arguments, graph, family, gamma) for the four families and
    two seeded inline matrices."""
    for family, gamma in FAMILY_ARGS:
        gamma = None if gamma is None else gamma % d  # the CLI refuses a gamma outside [0, d)
        args = ["--family", family, "--d", str(d)]
        if gamma is not None:
            args += ["--gamma", str(gamma)]
        yield args, family_graph(family, d, gamma), family, gamma
    rng = np.random.default_rng(1000 + d)
    for _ in range(2):
        g = random_graph(rng, d)
        matrix = json.dumps({"d": d, "gamma": [list(row) for row in g.entries]})
        yield ["--matrix", matrix], g, None, None


def _dump(capsys, tmp_path, argv, out: bool) -> str:
    if out:
        target = tmp_path / "dump.txt"
        argv = [*argv, "--out", str(target)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    assert captured.err == ""
    if out:
        assert captured.out == ""
        return target.read_text(encoding="utf-8")
    return captured.out


@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("action", ["build", "reduce"])
def test_streamed_dump_matches_reference(capsys, tmp_path, action, d):
    # each graph goes through one (format, sink) pair, cycling, so every d and
    # action covers both formats on stdout and with --out, and every graph
    # meets both formats over the four d values
    sinks = [(fmt, to_file) for fmt in ("csv", "json") for to_file in (False, True)]
    for case, (args, g, family, gamma) in enumerate(_graph_cases(d)):
        if action == "reduce" and family is None:
            continue  # reduce needs a named family's Fourier frame
        meta = metadata(d=d, family=family, gamma=gamma,
                        matrix=[list(row) for row in g.entries], basis_order=BASIS_ORDER)
        if action == "build":
            amplitudes = reference_graph_amplitudes(g)
        else:
            meta["fourier_sites"] = [s + 1 for s in family_fourier_sites(family)]
            amplitudes = reference_state_amplitudes(family_reduced_state(family, d, gamma))
        fmt, to_file = sinks[(case + d) % len(sinks)]
        expected = reference_text({"metadata": meta, "amplitudes": amplitudes}, fmt)
        text = _dump(capsys, tmp_path, ["state", action, *args, "--format", fmt], to_file)
        assert_same_text(text, expected, (action, args, fmt, to_file))


# Piece budgets in bytes, each dump rendered under every one: below one row
# (a row a piece), a few rows (about three CSV or four JSON rows at d = 11
# and 13, so pieces end inside a slab of 7 or 10 rows) and more than any
# slab (a slab a piece).
PIECE_BUDGETS = [1, 600, 2**30]


def _dump_pieces(capsys, monkeypatch, argv, expected: str, label) -> None:
    """Dump argv to stdout under each piece budget and compare with expected."""
    for piece_bytes in PIECE_BUDGETS:
        monkeypatch.setattr(cli, "_PIECE_BYTES", piece_bytes)
        text = _dump(capsys, None, argv, out=False)
        assert_same_text(text, expected, (*label, piece_bytes))


@pytest.mark.parametrize("d", [11, 13])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_small_slabs_match_reference(capsys, monkeypatch, fmt, d):
    # two-digit fields and row numbers crossing 10, 100, 1,000 and 10,000, in
    # slabs of an odd size so slab boundaries fall mid-pattern
    monkeypatch.setattr(cli, "_SLAB_ROWS", 7)
    cases = [(action, ["--family", "P", "--d", str(d)], family_graph("P", d), "P")
             for action in ("build", "reduce")]
    rng = np.random.default_rng(2000 + d)
    g = random_graph(rng, d)
    matrix = json.dumps({"d": d, "gamma": [list(row) for row in g.entries]})
    cases.append(("build", ["--matrix", matrix], g, None))
    for action, args, g, family in cases:
        meta = metadata(d=d, family=family, gamma=None,
                        matrix=[list(row) for row in g.entries], basis_order=BASIS_ORDER)
        if action == "build":
            amplitudes = reference_graph_amplitudes(g)
        else:
            meta["fourier_sites"] = [s + 1 for s in family_fourier_sites(family)]
            amplitudes = reference_state_amplitudes(family_reduced_state(family, d, None))
        expected = reference_text({"metadata": meta, "amplitudes": amplitudes}, fmt)
        _dump_pieces(capsys, monkeypatch, ["state", action, *args, "--format", fmt], expected,
                     (action, args, fmt))


@pytest.mark.parametrize("slab_rows", [10, 1000])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_row_number_width_changes_at_slab_starts(capsys, monkeypatch, fmt, slab_rows):
    # 14,641 rows at d = 11: slabs start exactly at rows 10, 100, 1,000 and
    # 10,000 (of those, 1,000 and 10,000 only at 1,000 rows a slab), so each
    # slab's row numbers are one digit wider than the last slab's
    monkeypatch.setattr(cli, "_SLAB_ROWS", slab_rows)
    d, g = 11, family_graph("P", 11)
    meta = metadata(d=d, family="P", gamma=None,
                    matrix=[list(row) for row in g.entries], basis_order=BASIS_ORDER)
    expected = reference_text({"metadata": meta, "amplitudes": reference_graph_amplitudes(g)}, fmt)
    _dump_pieces(capsys, monkeypatch,
                 ["state", "build", "--family", "P", "--d", "11", "--format", fmt], expected,
                 (fmt, slab_rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_yields_bytes_without_nul(monkeypatch, fmt):
    # several slabs of 184 KB (CSV) or 139 KB (JSON) rendered, one of them short,
    # behind the payload; and a payload alone
    monkeypatch.setattr(cli, "_SLAB_ROWS", 1000)
    g = family_graph("P", 7)
    payload = {"metadata": metadata(d=7, family="P")}
    dump = reference_text({**payload, "amplitudes": reference_graph_amplitudes(g)}, fmt)
    for table in (cli._graph_amplitudes(g), None):
        pieces = list(cli._render(payload, fmt, table))
        assert all(type(piece) is bytes for piece in pieces)
        assert not any(b"\0" in piece for piece in pieces)
        expected = reference_text(payload, fmt)
        if table is not None:
            expected = dump
            # the amplitude pieces, between the payload and the closing bytes
            assert max(map(len, pieces[1:-1])) <= cli._PIECE_BYTES
        assert b"".join(pieces).decode("utf-8") == expected
    # a budget below one row: each piece is one row
    monkeypatch.setattr(cli, "_PIECE_BYTES", 1)
    pieces = list(cli._render(payload, fmt, cli._graph_amplitudes(g)))
    assert len(pieces) == 1 + 7**4 + 1
    assert b"".join(pieces).decode("utf-8") == dump


class _CountingText(io.TextIOWrapper):
    """Text stdout over a byte buffer that keeps every string written to it."""

    def __init__(self):
        super().__init__(io.BytesIO(), encoding="utf-8")
        self.written = []

    def write(self, text):
        self.written.append(text)
        return super().write(text)


def test_dump_bypasses_the_text_layer(monkeypatch):
    # the amplitude rows go to stdout's byte buffer as rendered, never through
    # the text layer that would encode them again
    stdout = _CountingText()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["state", "build", "--family", "P", "--d", "13", "--format", "csv"]) == EXIT_OK
    stdout.flush()
    sha256 = hashlib.sha256(stdout.buffer.getvalue()).hexdigest()
    assert sha256 == PINS["state-build-p13-csv"].sha256
    assert sum(map(len, stdout.written)) == 0


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_reduce_table_matches_dense_reference(d):
    # the exact table against the dense Fourier route for every family and
    # every gamma of psi, row by row as the renderer sees them
    for family, gamma in [("G", None), ("C", None), ("P", None), *(("psi", k) for k in range(d))]:
        g = family_graph(family, d, gamma)
        table = cli._graph_amplitudes(g, family_fourier_sites(family))
        rows = [
            {"basis": [int(v) for v in np.unravel_index(flat, (d,) * 4)],
             "phase_exp": int(exp), "magnitude": float(table.magnitude)}
            for flat, exp in zip(table.flat, table.phase_exp)
        ]
        reference = reference_state_amplitudes(family_reduced_state(family, d, gamma))
        assert rows == reference, (family, gamma)
        assert {repr(r["magnitude"]) for r in reference} == {table.magnitude}


def test_state_build_memory_stays_flat(tmp_path):
    target = tmp_path / "p23.csv"
    argv = ["state", "build", "--family", "P", "--d", "23", "--format", "csv", "--out", str(target)]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    written = target.stat().st_size
    assert written > 50 * 2**20
    assert peak < 0.25 * written, (peak, written)


@pytest.mark.parametrize("action", ["build", "reduce"])
def test_state_unwritable_out_is_invalid_input(tmp_path, capsys, action):
    target = tmp_path / "missing" / "x.csv"
    code = main(["state", action, "--family", "P", "--d", "5", "--format", "csv",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "cannot write" in captured.err
    assert "Traceback" not in captured.err
    assert not target.parent.exists()


def test_closed_stdout_pipe_exits_quietly():
    # Each dump is megabytes, written over several slabs: the writes after the
    # reader has read 10 bytes and gone fail with a broken pipe. Stdout is
    # block-buffered, as it is by default on a pipe.
    src = os.path.dirname(os.path.dirname(os.path.abspath(quditgraph.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    heads = {"csv": b"path,value", "json": b'{\n  "metad'}
    procs = {
        fmt: subprocess.Popen(
            [sys.executable, "-m", "quditgraph.cli", "state", "build", "--family", "P",
             "--d", "11", "--format", fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        for fmt in heads
    }
    try:
        for fmt, proc in procs.items():
            assert proc.stdout.read(10) == heads[fmt]
            proc.stdout.close()
            err = proc.stderr.read()
            proc.stderr.close()
            assert proc.wait(timeout=60) == EXIT_OK, (fmt, err)
            assert err == b"", fmt
    finally:
        for proc in procs.values():
            proc.kill()  # a no-op for a process already waited for
            proc.wait()


def test_pipe_closed_before_output_exits_quietly(monkeypatch):
    # a short output sits in stdout's buffer: _emit flushes it and meets the
    # closed pipe, and main leaves stdout on devnull for the flush at exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["classify", "--exhaustive", "--d", "2"]) == EXIT_OK
        pipe.write("more")
        pipe.flush()
