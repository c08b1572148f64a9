"""The byte pins: CLI runs whose stdout is recorded by sha256.

Each entry names one or more runs (argv tuples, without the program name)
and the sha256 of their stdout concatenated in order, with one line on why
the bytes are pinned. ``tests/test_pins.py`` runs every entry in-process
through ``cli.main``; run as a script, this module runs every entry as whole
processes through the installed ``quditgraph`` script, each under
``timeout 60``, and exits 1 on any mismatch:

    python tests/pins.py

An intended byte change edits the one entry it moves. Until the benchmark
reads this table, ``perfbench/workloads.py`` keeps its own copies of four
of these hashes; ``tests/test_pins.py`` fails while the two disagree.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import dataclass


@dataclass(frozen=True)
class Pin:
    name: str
    runs: tuple[tuple[str, ...], ...]
    sha256: str
    why: str


def _d_args(*d_values: int) -> tuple[str, ...]:
    return tuple(a for d in d_values for a in ("--d", str(d)))


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _support_matrix(d: int, s: int) -> str:
    """The --matrix of edge support s at d: pair k, in the column order
    w01..w23, weighs (k + s) % (d - 1) + 1 where bit k of s is set."""
    gamma = [[0] * 4 for _ in range(4)]
    for k, (n, m) in enumerate(_PAIRS):
        gamma[n][m] = gamma[m][n] = (k + s) % (d - 1) + 1 if s >> k & 1 else 0
    return json.dumps({"d": d, "gamma": gamma})


def _eigen_runs(d_values, psi):
    return (
        *(("state", "eigen", "--family", f, "--d", str(d), "--generators", frame)
          for d in d_values for f in ("G", "C", "P") for frame in ("graph", "reduced")),
        *(("state", "eigen", "--family", "psi", "--gamma", str(gamma), "--d", str(d))
          for d, gamma in psi),
    )


def _state_runs(action, family, d, fmt, *extra):
    return (("state", action, "--family", family, "--d", str(d), "--format", fmt, *extra),)


PINS = {
    pin.name: pin
    for pin in (
        Pin("tables-d2to13", (("tables", *_d_args(2, 3, 5, 7, 11, 13)),),
            "208b079d8285bcde98c0198038696978b0b42187364af3fb22abfe9224db3c64",
            "the tables-d2to13 benchmark workload, d = 2 with its P -> C collapse included"),
        Pin("tables-d2to13-csv", (("tables", *_d_args(2, 3, 5, 7, 11, 13), "--format", "csv"),),
            "56646ff8ccc9e0aea39619465605dce799a72ea9222bf2f2a5db73248193be8a",
            "the flatten_json CSV route of the d = 2..13 bundle, recorded before the "
            "tableaux were built and checked in one batch"),
        Pin("tables-d17to31", (("tables", *_d_args(17, 19, 23, 29, 31)),),
            "23325229794587b1482459c9eb934d4f930bf5296e22148f8e1ae109f13ac133",
            "tables beyond the benchmark's d = 13"),
        Pin("tables-d61-101", (("tables", *_d_args(61, 101)),),
            "f44596c4b8c4768950f41c71116000062a688ed9f4e66354ecb4ad38dcc7d675",
            "tables at three-digit d"),
        Pin("tables-d1009", (("tables", *_d_args(1009)),),
            "e10a4c646ace024d766234d950ee1b1946f20651f63e00bedce7d4f9005dde16",
            "tables at four-digit d"),
        Pin("tables-d1009-2-3", (("tables", *_d_args(1009, 2, 3)),),
            "3353749a44925124dea4c312c6560352fc564869ee623c9c428bbf53f2a91cbe",
            "large and small d in unsorted order, batched together"),
        Pin("tables-d10007", (("tables", *_d_args(10007)),),
            "d6db1d242ffe6942a60ecdd023ac28b36cf347e2586185c09e77c8c2e9296fc6",
            "tables at its cap"),
        Pin("tables-d10007-2-3", (("tables", *_d_args(10007, 2, 3)),),
            "f120867358eba99f15f356e82a8d99da6e3400735c40b1e7e271b4d4125fc230",
            "tables at its cap with small d in the same call"),
        Pin("classify-matrix-supports",
            tuple(("classify", "--matrix", _support_matrix(d, s))
                  for d in (5, 13) for s in range(2 ** len(_PAIRS))),
            "a28b34b389849b2a8c3e1d82e37aba07abb95488b1ebd2851289c11244f2f2e4",
            "one matrix per edge support at d = 5 and 13: each trace opens with the "
            "swaps of its support's relabelling"),
        Pin("classify-exhaustive-d5", (("classify", "--exhaustive", "--d", "5"),),
            "c13e9dc9ebd341abedf09ae405564ca8111d811e7b76310a3b1e728e4b24c1e0",
            "the classify-exhaustive-d5 benchmark workload"),
        Pin("classify-exhaustive-d13", (("classify", "--exhaustive", "--d", "13"),),
            "c94a7b503d2810de19ba64c100488bb190ad925efe198f9202b19eb419843c85",
            "the exhaustive sweep at its cap, with no mismatch"),
        Pin("classify-random-d11", (("classify", "--random", "2000", "--seed", "7", "--d", "11"),),
            "61a87dcf83907e95eca346f50b883c149832b79d263f84f59b7259361801f6ed",
            "the classify-random-d11 benchmark workload at its reference seed"),
        Pin("classify-random-200k",
            (("classify", "--random", "200000", "--seed", "7", "--d", "11"),),
            "28f86a483e7478e9926cf8482d9138fe6dd693410ecc2c2cf875a8661b43d016",
            "a random census drawn chunk by chunk"),
        Pin("classify-random-dtype-bounds",
            tuple(("classify", "--random", "20000", "--seed", "7", "--d", str(d))
                  for d in (5, 7, 31, 37, 1289, 1291, 2097143, 2097169)),
            "41ae01ac87bf975d97d31c06a3dfeb0534ee2259ea0f9d4cd9ba2bbbcced7981",
            "random censuses on each side of every column type's bound "
            "(int8/16/32/64, Python ints)"),
        Pin("state-build-p13-csv", _state_runs("build", "P", 13, "csv"),
            "6996e5e1031b35fc3e2f63ad9c90bf283fbb2f1a4e0102304ae0b316751d49cc",
            "the state-dump-d13 benchmark workload"),
        Pin("state-build-p13-json", _state_runs("build", "P", 13, "json"),
            "7a76f426f172b33c08633e0ef35583e9524729752c131413a1e0d6a7b5c0cd0d",
            "the JSON rows of the state-dump-d13 dump"),
        Pin("state-build-p19-csv", _state_runs("build", "P", 19, "csv"),
            "8cc8994d38ac982787f3bf5cc3b556009a52c7c5b94789629a2e78429ef27d16",
            "row numbers widen to six digits inside a slab"),
        Pin("state-build-p23-csv", _state_runs("build", "P", 23, "csv"),
            "ad80f2f5452740f7c83f26dd11e80b0d1fcdb3d9426948e25be8c46ec39f0abb",
            "state build at its cap: six-digit row numbers, 69 slabs"),
        Pin("state-build-p23-json", _state_runs("build", "P", 23, "json"),
            "db0b1494fb78936b275264a4881358e2d958f94341e2a04cb53338d260a221c0",
            "state build at its cap as JSON"),
        *(Pin(f"state-reduce-d23-{family}", _state_runs("reduce", family, 23, "csv", *extra), sha,
              "state reduce at the cap, as the dense Fourier route printed it")
          for family, extra, sha in (
              ("G", (), "dc57f7ae1613ae02cb7e02824d51159071d3b66727e3e4efdfe0d384c76ddbc2"),
              ("C", (), "b76a2ddf01c85954bb98397357331c66605ef256064cae6c6da013425a12ca9d"),
              ("P", (), "054f93499965bb6d3da428218cc1f38d51ea2ccd4467941bfb5959584d63bf20"),
              ("psi", ("--gamma", "2"),
               "80b767055cd93dcaaa7644c5f5637b8b34e0914cb9bc550114f8b1dfce896046"),
          )),
        Pin("state-eigen", _eigen_runs((3, 23), ((5, 2),)),
            "a67f06de71b8816690300b82a8d53b3000dab5f8a66188eb9c6af1561ee8b30c",
            "G, C and P in both generator frames at d = 3 and 23, then psi at gamma 2: "
            "recorded while eigen still checked a dense state vector"),
        Pin("state-eigen-d2", _eigen_runs((2,), ((2, 0), (2, 1))),
            "ccfc957d91d6f500640fcad169ce8c07c04037a1603a1d6a3057f15f573ac437",
            "eigen at d = 2, the one even prime, where omega = -1"),
    )
}


def _run_processes(pin: Pin) -> tuple[str, list[int]]:
    """sha256 of the pin's runs as whole processes, and their exit codes."""
    digest, codes = hashlib.sha256(), []
    for argv in pin.runs:
        with subprocess.Popen(["timeout", "60", "quditgraph", *argv],
                              stdout=subprocess.PIPE) as proc:
            for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
                digest.update(chunk)
        codes.append(proc.returncode)
    return digest.hexdigest(), codes


def main() -> int:
    failed = 0
    for pin in PINS.values():
        sha256, codes = _run_processes(pin)
        ok = sha256 == pin.sha256 and not any(codes)
        failed += not ok
        print(f"ok {pin.name}" if ok else f"FAILED {pin.name}: {sha256}, exit codes {codes}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
