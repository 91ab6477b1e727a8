"""A corpus of gc argv for the command dispatch, and the two ways to run one.

cli.main gives an argv that starts with a command's name to that command's
own parser; the reference parses every argv with the top-level parser, as
argparse alone would, and runs the same handler.  For each argv both must
give the same exit code, or SystemExit code, and the same stdout and stderr
text.  The corpus covers help at both levels, usage errors found by either
parser, an unknown and an abbreviated command, abbreviated options, an
option's value attached or repeated, "--", and arguments no parser takes.

Standard library only, so that a Python without pytest can run it too
(the CI smoke job does).
"""

import contextlib
import io
import json
import os
import sys

from trivalent import cli

# the theta graph: three edges between two vertices; its class is zero
THETA = {"vertices": 2, "edges": [[0, 1], [0, 1], [0, 1]]}


def corpus(directory) -> list:
    """The argv corpus; its graph file and its cache go in directory."""
    graph = os.path.join(directory, "theta.json")
    with open(graph, "w") as f:
        json.dump(THETA, f)
    cache = os.path.join(directory, "cache")
    return [
        [],
        ["-h"],
        *([name, "-h"] for name in cli.build_parser().commands),
        ["di", "-k", "1", "--cache", cache],
        ["dim", "-k", "1", "--cach", cache],
        ["dim", "-k", "2", "--max", "2", "--cache", cache],
        ["dim", "-k1", "--cache", cache],
        ["dim", "-k=1", "--cache", cache],
        ["dim", "-k", "3", "-k", "1", "--cache", cache],
        ["--", "x"],
        ["dim", "-k", "1", "--cache", cache, "--", "x"],
        ["aut", "--", graph],
        ["dim", "-k", "1", "extra"],
        ["dim", "-k", "1", "--format", "table"],
        ["--format", "table", "dim", "-k", "2", "--cache", cache],
        ["--format", "table"],
        ["reduce", graph, "--cache", cache],
        ["reduce", os.path.join(directory, "absent.json"), "--cache", cache],
        ["surviving"],
        # the usage errors of tests/test_cli.py's test_usage_errors_exit_2
        ["frobnicate"],
        ["dim"],
        ["dim", "-k", "0"],
        ["dim", "-k", "2", "--jobs", "0"],
        ["dim", "-k", "2", "--primes", "2"],
        ["surgery", "x.json", "--mode", "sideways"],
    ]


def outcome(call) -> tuple:
    """(exit code, stdout, stderr) of call(); a SystemExit it raises gives
    ("SystemExit", its code) as the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call()
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def both_ways(argv) -> tuple:
    """The outcomes of cli.main(argv) and of the reference, the top-level
    parse of argv (sys.argv[1:] if argv is None) and then the same
    handler."""
    return (
        outcome(lambda: cli.main(argv)),
        outcome(lambda: cli._run(cli.build_parser().parse_args(argv))),
    )


def differences(directory) -> list:
    """(argv, main's outcome, the reference's) for each argv on which the
    two differ: the corpus, then None, main(None) with sys.argv set to one
    argv that runs and one that fails."""
    found = []
    for argv in corpus(directory):
        fast, reference = both_ways(argv)
        if fast != reference:
            found.append((argv, fast, reference))
    saved = sys.argv
    try:
        for argv in (["dim", "-k", "1", "--cache", directory], ["frobnicate"]):
            sys.argv = ["gc", *argv]
            fast, reference = both_ways(None)
            if fast != reference:
                found.append((None, fast, reference))
    finally:
        sys.argv = saved
    return found
