"""One CLI invocation as the benchmark runs it.

Usage: python3 child.py STATS_PATH MODE [CLI ARGS...]

Imports quditgraph from the ``src`` directory next to this benchmark, then
calls ``quditgraph.cli.main(args)`` once and exits with its return code, as
the installed ``quditgraph`` script would. MODE is one of

* ``probe``: import only; do not call main (a set-up time sample);
* ``run``: call main untraced;
* ``trace``: install the span wrappers of this module, then call main.

Timestamps on the system-wide monotonic clock, so the parent can subtract
its own spawn time, and the trace report go to STATS_PATH as JSON. Stdout is
left to the CLI alone.
"""

import os
import sys
import time

CLOCK = time.CLOCK_MONOTONIC

# Span name -> the (module, attribute) bindings through which callers reach
# the function. Wrapping the caller's binding leaves recursive calls inside
# the defining module (flatten_json) unwrapped, so only the top call is timed.
SPANS = {
    "steering.project": [("steering", "project")],
    "steering.enumerate_paths": [("report", "enumerate_paths")],
    "steering.persistency_stats": [("report", "persistency_stats")],
    "measures.purity_profile": [("report", "purity_profile"), ("classify", "purity_profile")],
    "states.build_state": [("states", "build_state"), ("classify", "build_state"),
                           ("cli", "build_state")],
    "states.family_reduced_state": [("report", "family_reduced_state"),
                                    ("cli", "family_reduced_state")],
    "classify.canonicalize": [("classify", "canonicalize"), ("cli", "canonicalize")],
    "classify.replay": [("classify", "replay")],
    "classify.profile_class": [("classify", "profile_class")],
    "classify.sweep": [("cli", "classify_exhaustive"), ("cli", "census_random")],
    "report.build_report": [("cli", "build_report")],
    "report.flatten_json": [("cli", "flatten_json")],
    "cli.emit": [("cli", "_emit")],
    "cli.graph_amplitudes": [("cli", "_graph_amplitudes")],
}
SWEEP = "classify.sweep"
# Spans whose self time inside a sweep makes up the dense class oracle.
ORACLE = frozenset({"states.build_state", "measures.purity_profile", "classify.profile_class"})


class Tracer:
    """In-memory span aggregation: calls and self time per span name.

    Self time is a span's duration minus the durations of the spans it
    directly contains.
    """

    def __init__(self):
        self.stack = []  # frames: [name, time covered by child spans]
        self.calls = {name: 0 for name in SPANS}
        self.self_s = {name: 0.0 for name in SPANS}
        self.oracle_s = 0.0
        self.zero_prob = 0
        self.constructed = 0

    def wrap(self, name, fn, counted_exc=None):
        clock = time.perf_counter
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if counted_exc is not None and isinstance(exc, counted_exc):
                    self.zero_prob += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                self.calls[name] += 1
                self.self_s[name] += own
                if name in ORACLE and any(f[0] == SWEEP for f in stack):
                    self.oracle_s += own

        return traced

    def install(self, package):
        modules = {name: getattr(package, name) for name in
                   ("steering", "report", "classify", "states", "cli", "graphs")}
        for span, bindings in SPANS.items():
            for mod_name, attr in bindings:
                module = modules[mod_name]
                original = getattr(module, attr)
                counted = None
                if span == "steering.project":
                    counted = modules["steering"].ZeroProbabilityError
                setattr(module, attr, self.wrap(span, original, counted))

        matrix = modules["graphs"].AdjacencyMatrix
        validate = matrix.__post_init__

        def counted_post_init(obj):
            self.constructed += 1
            validate(obj)

        matrix.__post_init__ = counted_post_init

    def report(self):
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "oracle_s": self.oracle_s,
            "zero_prob": self.zero_prob,
            "constructed": self.constructed,
        }


def main():
    stats_path, mode, *argv = sys.argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    import quditgraph
    import quditgraph.cli

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(quditgraph)
    t_main = time.clock_gettime(CLOCK)
    rc = 0
    if mode != "probe":
        rc = quditgraph.cli.main(argv)
        sys.stdout.flush()
    t_end = time.clock_gettime(CLOCK)

    import json

    stats = {"t_main": t_main, "t_end": t_end, "rc": rc,
             "package": os.path.abspath(quditgraph.__file__),
             "trace": tracer.report() if tracer else None}
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
