"""Every byte pin of tests/pins.py, run in-process, each JSON pin's text held
to the standard library's encoder, and the benchmark's copies of four of the
pins held to the table."""

import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from quditgraph.cli import EXIT_OK, main

from pins import PINS


class _Sha256Sink(io.RawIOBase):
    """A binary sink that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def writable(self):
        return True

    def write(self, b):
        self.digest.update(b)
        return len(b)


@pytest.mark.parametrize("name", list(PINS))
def test_pin(capsys, monkeypatch, name):
    # stdout as the CLI meets it, text over a binary buffer, hashed as written
    # so that no dump is held whole
    sink = _Sha256Sink()
    stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", stdout)
    for argv in PINS[name].runs:
        assert main(list(argv)) == EXIT_OK, (argv, capsys.readouterr().err)
    stdout.flush()
    assert capsys.readouterr().err == ""
    assert sink.digest.hexdigest() == PINS[name].sha256


# every pin printed as JSON, but for the largest dump (about 40 MB)
JSON_PINS = [name for name, pin in PINS.items()
             if name != "state-build-p23-json" and not any("csv" in argv for argv in pin.runs)]


@pytest.mark.parametrize("name", JSON_PINS)
def test_json_pin_matches_stdlib_encoder(capsys, name):
    # holds json_text, the JSON amplitude row template and the brace splice
    # in cli._render to the encoder's indent=2 text on real output, so that
    # re-recorded hashes cannot pin a drifted format
    for argv in PINS[name].runs:
        assert main(list(argv)) == EXIT_OK, argv
        out = capsys.readouterr().out
        expected = json.dumps(json.loads(out), indent=2) + "\n"
        if out != expected:  # report the first difference: a diff of megabytes takes minutes
            at = len(os.path.commonprefix([out, expected]))
            lo = max(at - 40, 0)
            pytest.fail(f"{argv}: offset {at}: {out[lo:at + 40]!r} != {expected[lo:at + 40]!r}")


def test_benchmark_references_match_the_table(monkeypatch):
    # perfbench/workloads.py keeps its own reference hashes: each must be the
    # table's for the same run, so a byte change cannot move one copy alone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    pinned = {pin.runs: pin.sha256 for pin in PINS.values()}
    jobs = [w.job(workloads.REFERENCE_SEED, False) for w in workloads.WORKLOADS.values()]
    assert len(jobs) == 4 and all(job.sha256 for job in jobs)
    assert {job.argv: pinned.get((job.argv,)) for job in jobs} == {
        job.argv: job.sha256 for job in jobs}
