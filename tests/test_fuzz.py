"""Mutated problem and Hamiltonian files exit 0, 1 or 2 and never raise.

Each example loads a bundled problem or a small Hamiltonian, applies one to
three mutations (delete a key or list item, or replace a value with a
hostile one) and runs the matching subcommands on the result in process,
with numpy's RuntimeWarnings raised as errors.  Each run's stderr is empty
or one error line.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopt import bundled_path
from coopt.cli import main

PROBLEMS = ("prisoners_dilemma", "matching_pennies", "coordination", "pairwise_chain")
REPLACEMENTS = (None, True, 0, -1, int("9" * 400), float("nan"), "x", [], {}, 1e-300, "1.5")
# Hamiltonians leave out 1e308: a stiff operator takes about scale * t_max / 1.58 steps.
PROBLEM_REPLACEMENTS = REPLACEMENTS + (1e308, -1e308)
_X = [-8.0 + 0.8 * i for i in range(21)]
HAMILTONIANS = (
    {"grid": {"xmin": -8.0, "xmax": 8.0, "n": 21, "potential": [0.5 * x * x for x in _X]}},
    {"dense": [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]},
    {"diagonal": [3.0, -1.0, 0.5, 2.0]},
)


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


def _mutated(data, doc, replacements):
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        _mutate(
            doc,
            data.draw(st.sampled_from(paths)),
            data.draw(st.sampled_from(replacements)),
            data.draw(st.booleans()),
        )
    return doc


def _run_all(directory, doc, option, jobs):
    path = directory / "input.json"
    path.write_text(json.dumps(doc))
    for argv in jobs:
        out = directory / "out"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, option, str(path), "--out", str(out)])
        assert code in (0, 1, 2), (argv, doc)
        message = err.getvalue()
        assert message == "" or (message.startswith("error: ") and message.count("\n") == 1), (
            argv, doc, message)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_problem_never_raises(tmp_path_factory, data):
    name = data.draw(st.sampled_from(PROBLEMS))
    doc = _mutated(data, json.loads(bundled_path(name).read_text()), PROBLEM_REPLACEMENTS)
    jobs = [
        ["solve", "--alpha", "2", "--max-iter", "50"],
        ["sweep", "--alpha-grid", "0.5:4:log:2"],
        ["nash"],
    ]
    _run_all(tmp_path_factory.mktemp("fuzz"), doc, "--problem", jobs)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mutated_hamiltonian_never_raises(tmp_path_factory, data):
    doc = _mutated(data, copy.deepcopy(data.draw(st.sampled_from(HAMILTONIANS))), REPLACEMENTS)
    jobs = [
        ["quantum", "--t-max", "1"],
        ["quantum", "--t-max", "1", "--states", "2", "--init", "random"],
    ]
    _run_all(tmp_path_factory.mktemp("fuzz"), doc, "--hamiltonian", jobs)
