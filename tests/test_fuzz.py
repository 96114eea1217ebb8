"""Mutated problem files exit 0, 1 or 2 and never raise.

Each example loads a bundled problem, applies one to three mutations (delete
a key or list item, or replace a value with a hostile one) and runs the
problem subcommands on the result in process.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import bundled_path
from coopt.cli import main

PROBLEMS = ("prisoners_dilemma", "matching_pennies", "coordination", "pairwise_chain")
REPLACEMENTS = (None, True, 0, -1, int("9" * 400), float("nan"), "x", [], {})


def _paths(node, prefix=()):
    # every key or index path below node, parents before children
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, replacement, delete):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_problem_never_raises(tmp_path_factory, data):
    name = data.draw(st.sampled_from(PROBLEMS))
    doc = json.loads(bundled_path(name).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        _mutate(
            doc,
            data.draw(st.sampled_from(paths)),
            data.draw(st.sampled_from(REPLACEMENTS)),
            data.draw(st.booleans()),
        )
    directory = tmp_path_factory.mktemp("fuzz")
    problem = directory / "problem.json"
    problem.write_text(json.dumps(doc))
    jobs = [
        ["solve", "--alpha", "2", "--max-iter", "50"],
        ["sweep", "--alpha-grid", "0.5:4:log:2"],
        ["nash"],
    ]
    for argv in jobs:
        out = directory / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--problem", str(problem), "--out", str(out)])
        assert code in (0, 1, 2), (argv, doc)
