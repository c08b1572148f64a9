"""Fuzzed command lines: every argv ends in exit 0, 2 or 3, never a traceback.

The grammar is bounded so each example stays cheap: no exhaustive sweep at
d = 5, 7, 11 or 13. Every d value reaches every command. The state commands
must reject d = 37 before allocating their d^4 amplitudes, and ``tables``
must reject d = 10009, the prime just above its cap of 10007, while d = 37 and
103 run through it. Every command must reject the huge values, the prime
2^61 - 1 and 10^18, and the primality test must stay fast.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from quditgraph.cli import EXIT_INVALID, EXIT_MISMATCH, EXIT_OK, main

HUGE_D_VALUES = (2**61 - 1, 10**18)
D_VALUES = (-1, 0, 1, 2, 3, 4, 5, 9, 11, 13, 37, 103, 10009) + HUGE_D_VALUES

# integers stay below 17, so no matrix "d" asks for a large state dump
_leaf = st.one_of(
    st.integers(-3, 16), st.floats(), st.booleans(), st.text(max_size=4), st.none()
)


def _symmetric(w):
    """Zero-diagonal symmetric 4x4 grid of the weights (w01, w02, w03, w12, w13, w23)."""
    return [[0, w[0], w[1], w[2]], [w[0], 0, w[3], w[4]],
            [w[1], w[3], 0, w[5]], [w[2], w[4], w[5], 0]]


_gamma = st.one_of(
    st.lists(st.integers(-1, 13), min_size=6, max_size=6).map(_symmetric),
    _leaf,
    st.lists(_leaf, max_size=5),
    st.lists(st.lists(st.one_of(st.integers(-1, 40), _leaf), max_size=5), max_size=5),
)
# well-formed graphs over the primes of D_VALUES
_graph = st.sampled_from([2, 3, 5, 11, 13, 37, 2**61 - 1]).flatmap(
    lambda d: st.lists(st.integers(0, d - 1), min_size=6, max_size=6).map(
        lambda w: {"d": d, "gamma": _symmetric(w)}
    )
)
# a well-formed graph with one more key, which every command must refuse
_extra_key = st.text(max_size=4).filter(lambda key: key not in ("d", "gamma"))
_graph_extra = st.tuples(_graph, _extra_key, _leaf).map(lambda t: {**t[0], t[1]: t[2]})


def _repeat_key(graph, key, value):
    """(key, JSON text of the graph, with the key added if new, then given
    again with the value)."""
    text = json.dumps(graph if key in graph else {**graph, key: value})
    return key, f"{text[:-1]}, {json.dumps(key)}: {json.dumps(value)}}}"


# a well-formed graph's JSON text with one key given twice, which every
# command must refuse
_graph_repeated = st.builds(
    _repeat_key, _graph, st.one_of(st.sampled_from(["d", "gamma"]), _extra_key), _leaf
)
_matrix_obj = st.one_of(
    _graph,
    _graph_extra,
    st.fixed_dictionaries(
        {"d": st.one_of(st.sampled_from(D_VALUES), _leaf), "gamma": _gamma}
    ),
    _leaf,
    st.lists(_leaf, max_size=5),
)
# raw text as well as JSON, so malformed JSON and repeated keys reach the parser too
_matrix = st.one_of(
    _matrix_obj.map(json.dumps), _graph_repeated.map(lambda kt: kt[1]), st.text(max_size=8)
).map(lambda text: ["--matrix", text])


def _flag(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _opt(flag, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), _flag(flag, values))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [arg for p in ps for arg in p])


_format = _opt("--format", st.sampled_from(["json", "csv"]))

_family = _argv(
    _flag("--family", st.sampled_from(["G", "C", "P", "psi"])),
    _flag("--d", st.sampled_from(D_VALUES)),
    _opt("--gamma", st.integers(-3, 40)),
)
STATE = _argv(
    st.sampled_from(["build", "reduce", "eigen"]).map(lambda a: ["state", a]),
    st.one_of(_family, _matrix, _argv(_family, _matrix), st.just([])),
    _opt("--generators", st.sampled_from(["graph", "reduced"])),
    _format,
)
TABLES = _argv(
    st.just(["tables"]),
    st.lists(st.sampled_from(D_VALUES), min_size=1, max_size=3).map(
        lambda ds: [arg for d in ds for arg in ("--d", str(d))]
    ),
    _format,
)
_random = _argv(
    _flag("--random", st.integers(-3, 40)),
    _opt("--d", st.sampled_from(D_VALUES)),
    _opt("--seed", st.integers(-2, 5)),
)
_exhaustive = st.one_of(
    st.sampled_from([d for d in D_VALUES if d not in (5, 7, 11, 13)]).map(
        lambda d: ["--exhaustive", "--d", str(d)]
    ),
    st.just(["--exhaustive"]),
)
CLASSIFY = _argv(
    st.just(["classify"]),
    st.one_of(
        _random,
        _exhaustive,
        _matrix,
        st.just([]),
        _argv(_matrix, _random),
        _argv(_exhaustive, _flag("--random", st.integers(-3, 40))),
    ),
    _format,
)


def _run(argv):
    # stdout as the CLI meets it: text over a binary buffer, which the dumps write to
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


@settings(database=None, derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(STATE, TABLES, CLASSIFY))
def test_main_exit_codes_hold_for_any_argv(argv):
    code, out, err = _run(argv)
    assert code in (EXIT_OK, EXIT_MISMATCH, EXIT_INVALID), (code, err)
    assert "Traceback" not in err
    if code != EXIT_OK:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from([["classify"], ["state", "build"], ["state", "reduce"], ["state", "eigen"]]),
       _graph_extra)
def test_unknown_matrix_key_is_invalid_input(command, obj):
    (key,) = set(obj) - {"d", "gamma"}
    code, out, err = _run([*command, "--matrix", json.dumps(obj)])
    assert code == EXIT_INVALID and out == ""
    assert err.count("\n") == 1 and repr(key) in err, err


@settings(database=None, derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from([["classify"], ["state", "build"], ["state", "reduce"], ["state", "eigen"]]),
       _graph_repeated)
def test_repeated_matrix_key_is_invalid_input(command, keyed):
    key, text = keyed
    code, out, err = _run([*command, "--matrix", text])
    assert code == EXIT_INVALID and out == ""
    assert err == f"quditgraph: error: invalid matrix JSON: repeated key {key!r}\n", err
