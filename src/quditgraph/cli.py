"""Command-line interface.

Three command groups:

* ``state build|reduce|eigen`` dumps amplitudes of a family or inline graph
  (as basis-index / phase-exponent / magnitude triples) or verifies the
  stabilizer eigenvalues of its generator set.
* ``tables`` emits the full verified report bundle for one or more prime
  dimensions and fails (exit 2) if any value misses its expectation.
* ``classify`` canonicalizes a single matrix, or sweeps all (or random)
  matrices, cross-checking each class against the exact cut-rank oracle and
  replaying each trace.

Exit codes: 0 success, 2 verification mismatch, 3 invalid input. Output is
deterministic: fixed key order, floats at 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import product

import numpy as np

from . import __version__
from .classify import VerificationFailure, canonicalize, census_random, classify_exhaustive
from .graphs import AdjacencyMatrix, graph_from_json_dict
from .pauli import omega_powers
from .report import build_report
from .serialize import BASIS_ORDER, flatten_json, fmt_float, metadata
from .states import (
    build_state,
    family_fourier_sites,
    family_graph,
    family_reduced_generators,
    family_reduced_state,
    generators,
    phase_exponents,
    verify_eigen,
)
from .steering import ClassificationError, ZeroProbabilityError

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_INVALID = 3
# The state commands hold all d^4 amplitudes: d = 23 dumps 40 MB at a 431 MB peak.
MAX_STATE_D = 23


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with the invalid-input code."""

    def error(self, message):  # noqa: A002 - argparse API
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="quditgraph", description=__doc__)
    parser.add_argument("--version", action="version", version=f"quditgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    state = sub.add_parser("state", help="amplitude dumps and eigenvalue reports")
    state.add_argument("action", choices=("build", "reduce", "eigen"))
    _add_graph_args(state)
    state.add_argument(
        "--generators",
        choices=("graph", "reduced"),
        default="graph",
        help="generator frame for the eigen action",
    )
    _add_output_args(state)

    tables = sub.add_parser("tables", help="verified report bundle")
    tables.add_argument(
        "--d",
        dest="d_values",
        type=int,
        action="append",
        required=True,
        help="prime dimension (repeatable)",
    )
    _add_output_args(tables)

    classify = sub.add_parser("classify", help="canonicalize graphs into classes")
    classify.add_argument("--d", type=int, help="dimension (for sweep modes)")
    classify.add_argument("--matrix", help='inline JSON {"d": int, "gamma": [[..]x4]}')
    classify.add_argument("--exhaustive", action="store_true", help="sweep all d^6 matrices")
    classify.add_argument("--random", type=int, metavar="N", help="check N random matrices")
    classify.add_argument("--seed", type=int, default=0, help="seed for --random")
    _add_output_args(classify)
    return parser


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=("G", "C", "P", "psi"), help="named state family")
    p.add_argument("--gamma", type=int, help="chord weight for the psi family")
    p.add_argument("--d", type=int, help="prime qudit dimension")
    p.add_argument("--matrix", help='inline JSON {"d": int, "gamma": [[..]x4]}')


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write to this path instead of stdout")


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["path", "value"])
        for path, value in flatten_json(payload):
            writer.writerow([path, "" if value is None else value])
        text = buf.getvalue()
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_matrix(text: str) -> AdjacencyMatrix:
    """Graph of a --matrix argument in the wire format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid matrix JSON: {exc}") from exc
    return graph_from_json_dict(obj)


def _resolve_graph(args) -> AdjacencyMatrix:
    if args.matrix is not None:
        return _parse_matrix(args.matrix)
    if not args.family:
        raise ValueError("provide --family or --matrix")
    if args.d is None:
        raise ValueError("provide --d with --family")
    return family_graph(args.family, args.d, args.gamma)


def _graph_amplitudes(g: AdjacencyMatrix) -> list[dict]:
    """Exact (basis, phase exponent, magnitude) triples of a graph state."""
    magnitude = fmt_float(1.0 / g.d**2)
    exponents = phase_exponents(g).reshape(-1).tolist()
    return [
        {"basis": list(idx), "phase_exp": exp, "magnitude": magnitude}
        for idx, exp in zip(product(range(g.d), repeat=4), exponents)
    ]


def _state_amplitudes(state, tol: float = 1e-9) -> list[dict]:
    """Nonzero amplitudes as triples, after normalizing the global phase so
    the first nonzero amplitude is real positive."""
    d = state.d
    amps = state.amps
    nz = np.nonzero(np.abs(amps) > tol)[0]
    rotated = amps * (abs(amps[nz[0]]) / amps[nz[0]])
    rows = []
    for flat in nz:
        a = rotated[flat]
        mag = abs(a)
        k = int(np.round(d * np.angle(a) / (2 * np.pi))) % d
        entry = {
            "basis": [int(v) for v in np.unravel_index(int(flat), (d,) * state.n_qudits)],
            "phase_exp": k if abs(a - mag * omega_powers(d)[k]) <= 1e-8 * mag else None,
            "magnitude": fmt_float(mag),
        }
        rows.append(entry)
    return rows


def _cmd_state(args) -> int:
    g = _resolve_graph(args)
    if g.d > MAX_STATE_D:
        raise ValueError(f"state commands support d <= {MAX_STATE_D}")
    meta = metadata(d=g.d, family=args.family, gamma=args.gamma,
                    matrix=[list(row) for row in g.entries], basis_order=BASIS_ORDER)
    if args.action == "build":
        payload = {"metadata": meta, "amplitudes": _graph_amplitudes(g)}
        _emit(payload, args.format, args.out)
        return EXIT_OK
    if args.action == "reduce":
        if not args.family:
            raise ValueError("reduce needs a named family (the reduction frame)")
        state = family_reduced_state(args.family, g.d, args.gamma)
        meta["fourier_sites"] = [s + 1 for s in family_fourier_sites(args.family)]
        payload = {"metadata": meta, "amplitudes": _state_amplitudes(state)}
        _emit(payload, args.format, args.out)
        return EXIT_OK
    # eigen
    if args.generators == "reduced":
        if not args.family:
            raise ValueError("--generators reduced needs a named family")
        state = family_reduced_state(args.family, g.d, args.gamma)
        gens = family_reduced_generators(args.family, g.d, args.gamma)
    else:
        state = build_state(g)
        gens = generators(g)
    results = []
    ok = True
    for word, expected in zip(gens.words, gens.eigen_exps):
        r = verify_eigen(state, word)
        results.append({"generator": str(word), "eigen_exp": r, "expected": expected})
        ok &= r == expected
    meta["generators"] = args.generators
    payload = {"metadata": meta, "results": results, "all_match": ok}
    _emit(payload, args.format, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_tables(args) -> int:
    bundle, ok = build_report(args.d_values)
    _emit(bundle, args.format, args.out)
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_classify(args) -> int:
    modes = (args.matrix is not None) + args.exhaustive + (args.random is not None)
    if modes != 1:
        raise ValueError("choose exactly one of --matrix, --exhaustive, --random N")
    if args.matrix is not None:
        g = _parse_matrix(args.matrix)
        d, result = g.d, canonicalize(g)
    elif args.d is None:
        raise ValueError("sweep modes need --d")
    elif args.exhaustive:
        d, result = args.d, classify_exhaustive(args.d)
    else:
        d, result = args.d, census_random(args.d, args.random, args.seed)
    payload = {
        "metadata": metadata(d=d),
        **result.to_json_dict(),
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"state": _cmd_state, "tables": _cmd_tables, "classify": _cmd_classify}
    try:
        return handlers[args.command](args)
    except (VerificationFailure, ClassificationError, ZeroProbabilityError) as exc:
        # before ValueError: the steering errors subclass it but are failed checks
        sys.stderr.write(f"quditgraph: verification failed: {exc}\n")
        return EXIT_MISMATCH
    except (ValueError, ZeroDivisionError) as exc:
        sys.stderr.write(f"quditgraph: error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
