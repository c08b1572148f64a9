"""Command-line surface: outputs, verification gating, and determinism."""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

import quditgraph
from quditgraph import SwapOp, classify, cli, measures, report, states
from quditgraph.cli import (
    EXIT_INTERRUPTED,
    EXIT_INVALID,
    EXIT_MISMATCH,
    EXIT_OK,
    MAX_RANDOM_SAMPLES,
    MAX_STATE_D,
    main,
)
from quditgraph.pauli import omega_powers, pauli_str, site_matrix
from quditgraph.serialize import fmt_float
from quditgraph.steering import ClassificationError

from conftest import random_graph, reference_phase_exponents


STAR = [[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env():
    """Environment for a CLI subprocess: this package's source on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(quditgraph.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_state_build_ghz(capsys):
    payload = run_json(capsys, "state", "build", "--family", "G", "--d", "3")
    amps = payload["amplitudes"]
    assert len(amps) == 81
    assert all(abs(a["magnitude"] - 1 / 9) < 1e-9 for a in amps)
    assert amps[0] == {"basis": [0, 0, 0, 0], "phase_exp": 0, "magnitude": amps[0]["magnitude"]}
    # spot-check one phase: |1,1,1,1> carries omega^(1*(1+1+1)) = omega^0
    last = [a for a in amps if a["basis"] == [1, 1, 1, 1]][0]
    assert last["phase_exp"] == 0
    idx = [a for a in amps if a["basis"] == [1, 1, 0, 0]][0]
    assert idx["phase_exp"] == 1


def test_state_build_inline_matrix(capsys):
    matrix = json.dumps({"d": 3, "gamma": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]})
    payload = run_json(capsys, "state", "build", "--matrix", matrix)
    assert payload["metadata"]["d"] == 3
    assert len(payload["amplitudes"]) == 81


def test_state_build_rejects_unknown_matrix_key(capsys):
    matrix = json.dumps({"d": 3, "gamma": STAR, "fourier_sites": [1]})
    code, out, err = run_cli(capsys, "state", "build", "--matrix", matrix)
    assert code == EXIT_INVALID and out == ""
    assert err.count("\n") == 1 and "'fourier_sites'" in err


def test_state_build_rejects_repeated_matrix_key(capsys):
    # the later "d" would otherwise win silently and dump the d = 5 state
    matrix = json.dumps({"d": 3, "gamma": STAR})[:-1] + ', "d": 5}'
    code, out, err = run_cli(capsys, "state", "build", "--matrix", matrix)
    assert code == EXIT_INVALID and out == ""
    assert err == "quditgraph: error: invalid matrix JSON: repeated key 'd'\n"


def test_state_reduce_ghz(capsys):
    payload = run_json(capsys, "state", "reduce", "--family", "G", "--d", "3")
    amps = payload["amplitudes"]
    assert [a["basis"] for a in amps] == [[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]]
    assert all(a["phase_exp"] == 0 for a in amps)
    assert all(abs(a["magnitude"] - 3**-0.5) < 1e-9 for a in amps)


def test_state_reduce_psi_needs_gamma(capsys):
    code, _, err = run_cli(capsys, "state", "reduce", "--family", "psi", "--d", "5")
    assert code == EXIT_INVALID
    assert "gamma" in err


def test_state_eigen_reduced_frame(capsys):
    for family in ("G", "C", "P"):
        payload = run_json(
            capsys, "state", "eigen", "--family", family, "--d", "3",
            "--generators", "reduced",
        )
        assert payload["all_match"] is True
        assert [r["eigen_exp"] for r in payload["results"]] == [0, 0, 0, 0]


def test_state_eigen_graph_frame_psi(capsys):
    payload = run_json(
        capsys, "state", "eigen", "--family", "psi", "--gamma", "2", "--d", "5"
    )
    assert payload["all_match"] is True
    assert payload["metadata"]["generators"] == "graph"  # the default frame


def test_tables_d3_passes(capsys):
    payload = run_json(capsys, "tables", "--d", "3")
    assert payload["all_pass"] is True
    assert all(row["pass"] for row in payload["checks"])
    section = payload["sections"]["3"]
    assert section["purities"]["P"]["12"]["exact"] == "1/9"
    assert section["first_measurement_tallies"]["C"] == {"product": 0, "snb": 4, "ghz3": 12}
    assert section["pair_tallies"]["P"] == {"product": 48, "bell": 144}
    assert section["persistency"]["G"]["n_ave"]["exact"] == "37/16"
    assert section["mmes"]["P"] == {"1mm": True, "2mm": True}


def test_tables_multiple_d_monotonicity(capsys):
    payload = run_json(capsys, "tables", "--d", "3", "--d", "5")
    names = [row["name"] for row in payload["checks"]]
    assert "n_ave_monotone:G" in names
    assert payload["all_pass"] is True


def test_n_ave_monotone_compares_exact_values(monkeypatch):
    # G's n_ave at the adjacent primes 3000017 and 3000029, planted at d = 5
    # and 7: it increases, but both values round to one 12-digit float
    def g_n_ave(d):
        return Fraction(9 * d * d + 9 * d + 3, 3 * (d + 1) ** 2)

    planted = {5: g_n_ave(3000017), 7: g_n_ave(3000029)}
    assert planted[5] < planted[7] and fmt_float(planted[5]) == fmt_float(planted[7])
    stats = report.persistency_stats

    def planting(tableau, tally):
        s = stats(tableau, tally)
        if s.n_min == 1:  # only G has a path that ends after one measurement
            s = dataclasses.replace(s, n_ave=planted[tableau.d])
        return s

    monkeypatch.setattr(report, "persistency_stats", planting)
    bundle, _ = report.build_report([5, 7])
    assert bundle["sections"]["7"]["persistency"]["G"]["n_ave"]["exact"] == str(planted[7])
    (row,) = [row for row in bundle["checks"] if row["name"] == "n_ave_monotone:G"]
    assert row["pass"] is True


def test_tables_rejects_nonprime(capsys):
    code, _, err = run_cli(capsys, "tables", "--d", "9")
    assert code == EXIT_INVALID


def test_tables_d17_passes(capsys):
    payload = run_json(capsys, "tables", "--d", "17")
    assert payload["metadata"]["d_values"] == [17]
    assert payload["all_pass"] is True


def test_tables_rejects_d_above_cap(capsys):
    code, out, err = run_cli(capsys, "tables", "--d", "10009")
    assert code == EXIT_INVALID
    assert out == ""
    assert "up to 10007" in err


def test_tables_runs_at_cap(capsys):
    payload = run_json(capsys, "tables", "--d", "10007")
    assert payload["metadata"]["d_values"] == [10007]
    assert payload["all_pass"] is True


def test_tables_large_d_up_to_cap(capsys):
    payload = run_json(capsys, "tables", "--d", "37", "--d", "61", "--d", "101")
    assert payload["all_pass"] is True
    labels = (("1", "2", "3", "4"), ("13", "24"), ("12", "23", "34", "14"))
    for d in (37, 61, 101):
        purities = payload["sections"][str(d)]["purities"]
        for family in ("G", "C", "P"):
            expected = report.expected_purity_columns(family, d)
            for column, value in zip(labels, expected):
                assert {purities[family][label]["exact"] for label in column} == {str(value)}


def test_tables_builds_no_dense_state(monkeypatch):
    def dense_route(*args, **kwargs):
        raise AssertionError("tables took a dense-state route")

    monkeypatch.setattr(states, "build_state", dense_route)
    monkeypatch.setattr(measures, "partial_trace", dense_route)
    monkeypatch.setattr(report, "purity_profile", dense_route)
    monkeypatch.setattr(report, "family_reduced_state", dense_route)
    bundle, all_pass = report.build_report([2, 3, 5, 7])
    assert all_pass is True and bundle["all_pass"] is True


def test_no_command_builds_a_state_vector(capsys, monkeypatch):
    def dense_route(self):
        raise AssertionError("a dense StateVector was built")

    monkeypatch.setattr(states.StateVector, "__post_init__", dense_route)
    matrix = json.dumps({"d": 5, "gamma": STAR})
    for argv in (
        ["state", "build", "--family", "P", "--d", "5"],
        ["state", "build", "--matrix", matrix],
        *(["state", "reduce", "--family", f, "--d", "5"] for f in ("G", "C", "P")),
        ["state", "reduce", "--family", "psi", "--gamma", "2", "--d", "5"],
        *(["state", "eigen", "--family", f, "--d", "5", "--generators", frame]
          for f in ("G", "C", "P") for frame in ("graph", "reduced")),
        ["state", "eigen", "--family", "psi", "--gamma", "2", "--d", "5"],
        ["state", "eigen", "--matrix", matrix],
        ["tables", "--d", "3", "--d", "5"],
        ["classify", "--matrix", matrix],
        ["classify", "--exhaustive", "--d", "3"],
        ["classify", "--random", "50", "--d", "5"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_OK, (argv, err)


@pytest.mark.parametrize("frame", ["graph", "reduced"])
def test_state_eigen_detects_a_tampered_phase_table(capsys, monkeypatch, frame):
    # eigen checks the table build and reduce print: with one support entry off
    # by one, every generator with an X factor moves it and fixes nothing (a Z
    # row of the reduced frame sees only the support, which stays whole)
    exact = cli.phase_exponents

    def tampered(g, fourier_sites=()):
        e = exact(g, fourier_sites)
        j = tuple(np.argwhere(e >= 0)[-1])
        e[j] = (e[j] + 1) % g.d
        return e

    monkeypatch.setattr(cli, "phase_exponents", tampered)
    code, out, err = run_cli(capsys, "state", "eigen", "--family", "P", "--d", "5",
                             "--generators", frame)
    assert code == EXIT_MISMATCH and err == ""
    payload = json.loads(out)
    assert payload["all_match"] is False
    results = payload["results"]
    assert [r["eigen_exp"] is None for r in results] == ["X" in r["generator"] for r in results]


@pytest.mark.parametrize("family, gamma", [("G", None), ("C", None), ("P", None),
                                           ("psi", 0), ("psi", 1)])
@pytest.mark.parametrize("frame", ["graph", "reduced"])
def test_state_eigen_at_d2_matches_dense_route(capsys, family, gamma, frame):
    # at d = 2 as at odd d: each generator, as the Kronecker product of its site matrices on the dense state, has
    # the eigenvalue omega^eigen_exp the report gives it
    argv = ["state", "eigen", "--family", family, "--d", "2", "--generators", frame]
    payload = run_json(capsys, *argv, *(["--gamma", str(gamma)] if gamma is not None else []))
    g = states.family_graph(family, 2, gamma)
    sites = states.family_fourier_sites(family) if frame == "reduced" else ()
    state = states.family_reduced_state(family, 2, gamma) if sites else states.build_state(g)
    rows = states.stabilizer_tableau(g, sites).xz.tolist()
    results = payload["results"]
    assert [r["generator"] for r in results] == [pauli_str(row) for row in rows]
    assert [r["eigen_exp"] for r in results] == [0] * 4 and payload["all_match"] is True
    for row, result in zip(rows, results):
        m = reduce(np.kron, [site_matrix(2, x, z) for x, z in row])
        eigenvalue = omega_powers(2)[result["eigen_exp"]]
        np.testing.assert_allclose(m @ state.amps, eigenvalue * state.amps, atol=1e-12)


@pytest.mark.parametrize("action", ["build", "reduce", "eigen"])
@pytest.mark.parametrize("extra", [
    ["--family", "P", "--matrix", json.dumps({"d": 3, "gamma": STAR})],
    ["--d", "3", "--matrix", json.dumps({"d": 5, "gamma": STAR})],
    ["--gamma", "2", "--matrix", json.dumps({"d": 5, "gamma": STAR})],
    ["--family", "G", "--d", "3", "--gamma", "1"],
    ["--family", "C", "--d", "5", "--gamma", "0"],
])
def test_state_rejects_conflicting_graph_flags(capsys, action, extra):
    # the graph the output describes must be the one the flags name
    code, out, err = run_cli(capsys, "state", action, *extra)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("quditgraph: error:")


@pytest.mark.parametrize("action", ["build", "reduce"])
@pytest.mark.parametrize("frame", ["graph", "reduced"])
def test_state_rejects_generators_outside_eigen(capsys, action, frame):
    # build and reduce print amplitudes, in no generator frame
    code, out, err = run_cli(capsys, "state", action, "--family", "P", "--d", "3",
                             "--generators", frame)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and "--generators" in err


@pytest.mark.parametrize("extra", [
    ["--matrix", json.dumps({"d": 5, "gamma": STAR}), "--d", "5"],
    ["--matrix", json.dumps({"d": 5, "gamma": STAR}), "--seed", "9"],
    ["--exhaustive", "--d", "3", "--seed", "4"],
])
def test_classify_rejects_flags_its_mode_ignores(capsys, extra):
    code, out, err = run_cli(capsys, "classify", *extra)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("quditgraph: error:")


def test_tables_memory_is_flat_in_d():
    # a tally holds O(d) arrays and the first measurements run in fixed row
    # slices, each building its own row index, so a ten times larger d barely
    # moves the peak (about 5.9 and 6.2 MiB); a whole-bundle row index took
    # 11.5 MiB at d = 10007, and a (4, d+1, 3, d+1) pair array would take 1.2 GB
    peaks = []
    for d in (1009, 10007):
        tracemalloc.start()
        try:
            report.build_report([d])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


@pytest.mark.parametrize("error", [ClassificationError])
def test_tables_steering_failure_is_mismatch(capsys, monkeypatch, error):
    def failing(state):
        raise error("injected steering failure")

    monkeypatch.setattr(report, "enumerate_paths", failing)
    code, out, err = run_cli(capsys, "tables", "--d", "3")
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.count("\n") == 1
    assert "injected steering failure" in err


def test_interrupt_exits_quietly():
    # SIGINT into a long sweep: the shell's interrupt code and one stderr line.
    # The child restores the default SIGINT handler, which a background job
    # of a non-interactive shell would otherwise inherit as ignored.
    proc = subprocess.Popen(
        [sys.executable, "-m", "quditgraph.cli", "classify",
         "--random", str(MAX_RANDOM_SAMPLES), "--d", "11"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        time.sleep(1.5)  # past the imports, into the sweep
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # a no-op for a process already waited for
        proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED, err
    assert out == b""
    assert err == b"quditgraph: interrupted\n"


def test_tables_unwritable_out_is_invalid_input(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "tables", "--d", "3", "--out", str(target))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("quditgraph: error: cannot write")
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ["state", "build", "--family", "P", "--d", "3"],
    ["tables", "--d", "3"],
    ["classify", "--matrix", json.dumps({"d": 3, "gamma": STAR})],
])
def test_empty_out_path_is_invalid_input(capsys, argv):
    # an empty --out names no file: exit 3 as any unwritable path, not stdout
    code, out, err = run_cli(capsys, *argv, "--out", "")
    assert code == EXIT_INVALID
    assert out == ""
    assert err == "quditgraph: error: cannot write '': No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["classify", "--exhaustive", "--d", "2"],  # one short write, met by main's flush
    ["state", "build", "--family", "P", "--d", "13"],  # megabytes, met mid-dump
    ["--version"], ["--help"], ["state", "--help"],  # argparse would drop the error
])
def test_full_stdout_is_invalid_output(argv):
    # stdout on a full device: exit 3 with one stderr line, as --out on one,
    # and no "Exception ignored" from the flush at exit
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr == b"quditgraph: error: cannot write stdout: No space left on device\n"


def test_closed_stdout_is_invalid_output():
    # fd 1 closed before start-up (`>&-`) leaves sys.stdout None: exit 3 with
    # one stderr line, as on a full device, not a traceback
    proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", "classify", "--exhaustive",
                           "--d", "2"], stderr=subprocess.PIPE, env=cli_env(), timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr == b"quditgraph: error: cannot write stdout: Bad file descriptor\n"


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["state", "--help"]])
def test_help_and_version_on_closed_stdout_are_invalid_output(argv):
    # argparse would send the text to stderr and exit 0: exit 3 as any command
    proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", *argv],
                          stderr=subprocess.PIPE, env=cli_env(), timeout=60,
                          preexec_fn=lambda: os.close(1))
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stderr == b"quditgraph: error: cannot write stdout: Bad file descriptor\n"


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["state", "--help"]])
def test_help_and_version_to_a_closed_pipe_exit_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=cli_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == b""


def test_help_and_version_print_to_stdout(capsys):
    for argv in (["--version"], ["--help"], ["state", "--help"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_OK and err == ""
        version = f"quditgraph {quditgraph.__version__}\n"
        assert (out == version) if argv == ["--version"] else out.startswith("usage:")
    # the top-level help names every command
    assert all(name in run_cli(capsys, "--help")[1] for name in cli._COMMANDS)


MATRIX_D3 = json.dumps({"d": 3, "gamma": STAR})
# One run per option that takes a value: (command line, option, value). The
# option goes last, as "--opt value" or as "--opt=value".
OPTION_RUNS = [
    (["state", "build", "--d", "3"], "--family", "P"),
    (["state", "reduce", "--family", "psi", "--d", "3"], "--gamma", "2"),
    (["state", "reduce", "--family", "C"], "--d", "3"),
    (["state", "eigen"], "--matrix", MATRIX_D3),
    (["state", "eigen", "--family", "C", "--d", "3"], "--generators", "reduced"),
    (["state", "build", "--family", "G", "--d", "3"], "--format", "csv"),
    (["state", "build", "--family", "G", "--d", "3"], "--out", "OUT"),
    (["tables", "--d", "2"], "--d", "3"),
    (["tables", "--d", "3"], "--format", "csv"),
    (["tables", "--d", "3"], "--out", "OUT"),
    (["classify", "--exhaustive"], "--d", "3"),
    (["classify"], "--matrix", MATRIX_D3),
    (["classify", "--d", "3"], "--random", "20"),
    (["classify", "--random", "20", "--d", "3"], "--seed", "4"),
    (["classify", "--exhaustive", "--d", "2"], "--format", "csv"),
    (["classify", "--exhaustive", "--d", "2"], "--out", "OUT"),
]


def test_option_runs_cover_every_option_that_takes_a_value():
    covered = {(argv[0], flag) for argv, flag, _ in OPTION_RUNS}
    assert covered == {(command, flag) for command, (_, _, options) in cli._COMMANDS.items()
                       for flag, (kind, _) in options.items() if kind is not bool}


@pytest.mark.parametrize("argv, flag, value", OPTION_RUNS,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in OPTION_RUNS])
def test_option_value_forms_agree(capsys, tmp_path, argv, flag, value):
    outputs = []
    for k, form in enumerate(([flag, "{}"], [flag + "={}"])):
        path = tmp_path / f"out{k}"
        words = [word.format(str(path) if value == "OUT" else value) for word in form]
        code, out, err = run_cli(capsys, *argv, *words)
        assert code == EXIT_OK, err
        outputs.append(path.read_bytes() if value == "OUT" else out)
    assert outputs[0] == outputs[1] and outputs[0]


def test_last_single_valued_option_wins_and_d_repeats_in_order(capsys):
    assert (run_cli(capsys, "classify", "--exhaustive", "--d", "5", "--d=3")
            == run_cli(capsys, "classify", "--exhaustive", "--d", "3"))
    payload = run_json(capsys, "tables", "--d", "5", "--d=3", "--format", "csv", "--format=json")
    assert payload["metadata"]["d_values"] == [5, 3]


@pytest.mark.parametrize("argv", [
    [],  # no command
    ["bogus"],
    ["--exhaustive"],
    ["state", "--family", "G", "--d", "3"],  # no action
    ["state", "frob", "--family", "G", "--d", "3"],
    ["state", "build", "reduce", "--family", "G", "--d", "3"],
    ["classify", "--exh", "--d", "3"],  # abbreviated
    ["state", "build", "--fam", "G", "--d", "3"],
    ["classify", "--exhaustive", "--d", "3", "--family", "G"],  # another command's option
    ["tables", "--d", "3", "--version"],
    ["tables", "--d", "3", "-x"],
    ["tables", "--d", "3", "extra"],
    ["classify", "--exhaustive", "--d"],  # missing value
    ["classify", "--d", "--exhaustive"],
    ["state", "build", "--family", "G", "--d", "3", "--out", "-o"],
    ["classify", "--exhaustive", "--d", "x"],  # bad int
    ["tables", "--d=3.0"],
    ["classify", "--random", "1e3", "--d", "3"],
    ["state", "build", "--family", "Q", "--d", "3"],  # bad choice
    ["state", "build", "--family", "G", "--d", "3", "--format=xml"],
    ["state", "eigen", "--family", "G", "--d", "3", "--generators", "dense"],
    ["classify", "--exhaustive=yes", "--d", "3"],  # a flag given a value
    ["tables"],  # tables without --d
    ["tables", "--format", "csv"],
])
def test_usage_errors_are_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err.count("\n") == 1 and err.startswith("quditgraph: error: "), err


@pytest.mark.parametrize("argv, message", [
    (["classify", "--random", "5", "--d", "3", "--seed", "-1"],
     "seed must be non-negative, got -1"),
    (["classify", "--random", "5", "--d", "3", "--seed=-1"], "seed must be non-negative, got -1"),
    (["state", "build", "--family", "G", "--d", "3", "--gamma", "-1"],
     "--gamma applies to family psi, not G"),
])
def test_negative_values_reach_the_command(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INVALID and out == ""
    assert err == f"quditgraph: error: {message}\n"


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_command_help_names_every_flag_and_choice(capsys, command):
    code, out, err = run_cli(capsys, command, "--help")
    assert code == EXIT_OK and err == "" and out.startswith(f"usage: quditgraph {command} ")
    _, actions, options = cli._COMMANDS[command]
    for flag, (kind, text) in options.items():
        assert flag in out and text in out
        assert all(choice in out for choice in (kind if isinstance(kind, tuple) else ()))
    assert all(action in out for action in actions)


def test_cli_leaves_argparse_gettext_and_locale_unloaded():
    # pytest imports argparse itself, so the check runs in a fresh interpreter:
    # parsing the command line must not pull in argparse, nor gettext and locale,
    # which argparse's first message loads (about 1 ms of every run)
    code = f"""
import contextlib, os, sys
from quditgraph.cli import main
argvs = [["state", action, "--family", "P", "--d", "3"] for action in ("build", "reduce", "eigen")]
argvs += [["tables", "--d", "3"], ["classify", "--matrix", {MATRIX_D3!r}],
          ["classify", "--exhaustive", "--d", "3"], ["classify", "--random", "9", "--d", "3"]]
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    codes = [main(argv) for argv in argvs]
print(codes, [name for name in ("argparse", "gettext", "locale") if name in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[EXIT_OK] * 7} []\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--matrix", "[" * 5000],
    ["state", "build", "--matrix", '{"d":' * 5000],
])
def test_deeply_nested_matrix_is_invalid_input(argv):
    # json.loads recurses once a level: too deep a nesting is malformed input,
    # exit 3 with one stderr line, not a RecursionError traceback
    proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", *argv], capture_output=True,
                          env=cli_env(), timeout=60)
    assert proc.returncode == EXIT_INVALID, proc.stderr
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"quditgraph: error: invalid matrix JSON: maximum recursion")
    assert proc.stderr.count(b"\n") == 1


def test_closed_stdout_leaves_out_runs_alone(tmp_path, capsys):
    # a run that writes --out never needs stdout: exit 0 and the same bytes
    target = tmp_path / "tables.json"
    proc = subprocess.run([sys.executable, "-m", "quditgraph.cli", "tables", "--d", "3",
                           "--out", str(target)], stderr=subprocess.PIPE, env=cli_env(),
                          timeout=60, preexec_fn=lambda: os.close(1))
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr == b""
    code, out, err = run_cli(capsys, "tables", "--d", "3")
    assert code == EXIT_OK, err
    assert target.read_bytes() == out.encode()


def test_tables_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["tables", "--d", "3", "--out", str(out1)]) == EXIT_OK
    assert main(["tables", "--d", "3", "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_classify_matrix_p_graph(capsys):
    matrix = json.dumps(
        {"d": 3, "gamma": [[0, 1, 0, 1], [1, 0, 2, 0], [0, 2, 0, 1], [1, 0, 1, 0]]}
    )
    payload = run_json(capsys, "classify", "--matrix", matrix)
    assert payload["class"] == "P"
    assert payload["gamma_tilde"] == 2
    assert isinstance(payload["trace"], list)


def test_classify_matrix_canonical_star(capsys):
    matrix = json.dumps(
        {"d": 3, "gamma": [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, 0]]}
    )
    payload = run_json(capsys, "classify", "--matrix", matrix)
    assert payload["class"] == "G"
    assert payload["trace"] == []


def test_classify_exhaustive_d3(capsys):
    payload = run_json(capsys, "classify", "--exhaustive", "--d", "3")
    assert payload["mismatches"] == 0
    assert payload["total"] == 729
    assert payload["counts"]["P"] == 120


def test_classify_random_census(capsys):
    payload = run_json(capsys, "classify", "--random", "60", "--seed", "7", "--d", "7")
    assert payload["total"] == 60
    assert payload["mismatches"] == 0


def test_classify_random_rejects_negative_count(capsys):
    code, out, err = run_cli(capsys, "classify", "--random", "-5", "--d", "3")
    assert code == EXIT_INVALID
    assert out == ""
    assert "non-negative" in err


def test_classify_random_rejects_negative_seed(capsys):
    code, out, err = run_cli(capsys, "classify", "--random", "5", "--seed", "-1", "--d", "3")
    assert code == EXIT_INVALID and out == ""
    assert err == "quditgraph: error: seed must be non-negative, got -1\n"


@pytest.mark.parametrize("extra", [0, 1])
def test_classify_random_count_cap(capsys, monkeypatch, extra):
    # the sweep itself is stubbed: at the cap the CLI must hand N over untouched,
    # just above it must refuse before drawing anything
    calls = []

    def census(d, samples, seed):
        calls.append(samples)
        return classify.census_random(d, 0, seed)

    monkeypatch.setattr(cli, "census_random", census)
    n = MAX_RANDOM_SAMPLES + extra
    code, out, err = run_cli(capsys, "classify", "--random", str(n), "--d", "3")
    if extra:
        assert code == EXIT_INVALID
        assert out == "" and calls == []
        assert err.count("\n") == 1 and f"N <= {MAX_RANDOM_SAMPLES}" in err
    else:
        assert code == EXIT_OK, err
        assert calls == [MAX_RANDOM_SAMPLES]


def test_classify_random_at_huge_prime_d(capsys):
    d = 2**61 - 1
    start = time.perf_counter()
    payload = run_json(capsys, "classify", "--random", "3", "--d", str(d))
    assert time.perf_counter() - start < 2.0
    assert payload["metadata"]["d"] == d
    assert payload["total"] == 3 and payload["mismatches"] == 0


@pytest.mark.parametrize("d", [2**61 - 1, 10**30])
def test_tables_rejects_huge_d(capsys, d):
    code, out, err = run_cli(capsys, "tables", "--d", str(d))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1


@pytest.mark.parametrize("action", ["build", "reduce", "eigen"])
@pytest.mark.parametrize("d", [MAX_STATE_D + 6, 1009, 2**61 - 1])
def test_state_rejects_d_above_cap(capsys, action, d):
    # the d^4 amplitudes are never allocated: d = 1009 would need 30 TiB
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "state", action, "--family", "P", "--d", str(d))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1 and f"d <= {MAX_STATE_D}" in err
    assert time.perf_counter() - t0 < 1.0


def test_state_accepts_d_at_cap(capsys):
    payload = run_json(capsys, "state", "reduce", "--family", "P", "--d", str(MAX_STATE_D))
    assert payload["metadata"]["d"] == MAX_STATE_D


def test_classify_rejects_d_beyond_primality_test(capsys):
    code, out, err = run_cli(capsys, "classify", "--random", "3", "--d", str(10**30))
    assert code == EXIT_INVALID
    assert out == ""
    assert "beyond the exact primality test" in err


def test_classify_rejects_asymmetric_matrix(capsys):
    matrix = json.dumps({"d": 3, "gamma": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]})
    code, _, err = run_cli(capsys, "classify", "--matrix", matrix)
    assert code == EXIT_INVALID
    assert "symmetric" in err


def test_classify_rejects_unknown_matrix_key(capsys):
    matrix = json.dumps({"d": 3, "gamma": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
                         "extra": 1})
    code, out, err = run_cli(capsys, "classify", "--matrix", matrix)
    assert code == EXIT_INVALID and out == ""
    assert err.count("\n") == 1 and "'extra'" in err


@pytest.mark.parametrize("tail, key", [
    (', "gamma": [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]]}', "gamma"),
    (', "note": {"x": 1, "x": 2}}', "x"),  # inside a nested object, before the unknown key
])
def test_classify_rejects_repeated_matrix_key(capsys, tail, key):
    matrix = json.dumps({"d": 3, "gamma": STAR})[:-1] + tail
    code, out, err = run_cli(capsys, "classify", "--matrix", matrix)
    assert code == EXIT_INVALID and out == ""
    assert err == f"quditgraph: error: invalid matrix JSON: repeated key {key!r}\n"


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random costs milliseconds to import; only census_random needs it,
    # so a module-level use would slow every command's start-up unseen
    code = "import sys, quditgraph.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_classify_rejects_bad_json(capsys):
    code, _, err = run_cli(capsys, "classify", "--matrix", "{not json")
    assert code == EXIT_INVALID


@pytest.mark.parametrize(
    "gamma",
    [
        [[0, 1.7, 0, 0], [1.7, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, "1", 0, 0], ["1", 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, True, 0, 0], [True, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        5,
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [5, 5, 5, 5],
    ],
)
def test_classify_rejects_malformed_gamma(capsys, gamma):
    matrix = json.dumps({"d": 3, "gamma": gamma})
    code, out, err = run_cli(capsys, "classify", "--matrix", matrix)
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith("quditgraph: error:")
    assert err.count("\n") == 1


def _mislabel_cluster(reduce):
    """Label every square (class C with gamma_tilde 1) as class G."""

    def mislabelled(w, d, inverse):
        for g in reduce(w, d, inverse):
            square = (g.codes == classify._C) & (g.weight(0, 3) == 1)
            g.codes = np.where(square, classify._G, g.codes)
            yield g

    return mislabelled


def _drop_last_op(reduce):
    def truncated(w, d, inverse):
        for g in reduce(w, d, inverse):
            g.ops = g.ops[:-1]
            yield g

    return truncated


def _corrupt_one_factor(reduce):
    """Change one row's factor of the first scale or star recorded in the chunk."""

    def corrupted(w, d, inverse):
        groups = list(reduce(w, d, inverse))
        factors = [op.factor for g in groups for op in g.ops if not isinstance(op, SwapOp)]
        factors[0][0] = (factors[0][0] + 1) % d
        return groups

    return corrupted


# The check of the sweep each fault must trip.
_FAULT_CHECKS = {
    _mislabel_cluster: "class mismatch",
    _drop_last_op: "trace replay failed",
    _corrupt_one_factor: "trace replay failed",
}


@pytest.mark.parametrize("fault", list(_FAULT_CHECKS))
def test_classify_sweep_check_failure_is_mismatch(capsys, monkeypatch, fault):
    monkeypatch.setattr(classify, "_reduce", fault(classify._reduce))
    code, out, err = run_cli(capsys, "classify", "--exhaustive", "--d", "3")
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("quditgraph: verification failed:")
    assert _FAULT_CHECKS[fault] in err
    assert err.count("\n") == 1


def _flip_g_to_p(cut_rank_codes):
    """Have the cut-rank oracle call every class-G graph class P."""

    def flipped(d, w):
        codes = cut_rank_codes(d, w)
        return np.where(codes == classify._G, classify._P, codes)

    return flipped


# At d = 3, with every weight 2, so that every program's last scale is not by 1:
# the star is class G, and the square class C with gamma_tilde 1.
STAR_2 = [[2 * w for w in row] for row in STAR]
SQUARE_2 = [[0, 2, 0, 2], [2, 0, 2, 0], [0, 2, 0, 2], [2, 0, 2, 0]]


@pytest.mark.parametrize(
    "target, fault, gamma, check",
    [("_cut_rank_codes", _flip_g_to_p, STAR_2, "class mismatch"),
     ("_reduce", _mislabel_cluster, SQUARE_2, "class mismatch")]
    + [("_reduce", fault, gamma, "trace replay failed")
       for fault in (_drop_last_op, _corrupt_one_factor) for gamma in (STAR_2, SQUARE_2)],
    ids=["oracle-star", "mislabel-square", "drop-star", "drop-square", "corrupt-star",
         "corrupt-square"],
)
def test_classify_matrix_check_failure_is_mismatch(capsys, monkeypatch, target, fault, gamma,
                                                   check):
    # --matrix runs the sweep's checks: the cut-rank oracle and the replay
    monkeypatch.setattr(classify, target, fault(getattr(classify, target)))
    matrix = json.dumps({"d": 3, "gamma": gamma})
    code, out, err = run_cli(capsys, "classify", "--matrix", matrix)
    assert code == EXIT_MISMATCH
    assert out == ""
    assert err.startswith("quditgraph: verification failed:")
    assert check in err
    assert err.count("\n") == 1


def test_classify_needs_exactly_one_mode(capsys):
    code, _, _ = run_cli(capsys, "classify", "--d", "3")
    assert code == EXIT_INVALID


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "--exhaustive", "--d", "2", "--format", "csv")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "path,value"
    assert any(line.startswith("counts.G,") for line in lines)


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "dump.json"
    code, out, _ = run_cli(
        capsys, "state", "build", "--family", "P", "--d", "3", "--out", str(target)
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload["amplitudes"]) == 81


def test_unknown_family_rejected(capsys):
    code, out, err = run_cli(capsys, "state", "build", "--family", "Q", "--d", "3")
    assert code == EXIT_INVALID and out == ""
    assert err == "quditgraph: error: --family must be one of G, C, P, psi, not 'Q'\n"


def test_state_build_reports_phase_exponents(capsys):
    rng = np.random.default_rng(55)
    for _ in range(3):
        g = random_graph(rng, 5)
        matrix = json.dumps({"d": 5, "gamma": [list(row) for row in g.entries]})
        amps = run_json(capsys, "state", "build", "--matrix", matrix)["amplitudes"]
        assert [a["basis"] for a in amps] == [list(idx) for idx in product(range(5), repeat=4)]
        expected = reference_phase_exponents(g).reshape(-1).tolist()
        assert [a["phase_exp"] for a in amps] == expected


def test_tables_rejects_duplicate_d(capsys):
    code, out, err = run_cli(capsys, "tables", "--d", "3", "--d", "5", "--d", "3")
    assert code == EXIT_INVALID
    assert out == ""
    assert err.count("\n") == 1
    assert "once" in err


def test_classify_random_zero_count(capsys):
    payload = run_json(capsys, "classify", "--random", "0", "--d", "3")
    assert payload["total"] == 0
    assert payload["counts"] == {"G": 0, "C": 0, "P": 0, "disconnected": 0}
