"""coopt's records: plain named tuples and small immutable classes, with no
dataclass code generation at import except for GameModel."""

import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import coopt
import helpers
from coopt.continuous import evolve_linear
from coopt.discrete import iterate_to_fixed_point
from coopt.equilibrium import alpha_sweep, epsilon_of_profile
from coopt.model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
)
from coopt.numerics import DenseSymmetric, Diagonal, Frozen, jacobi_eigen


def test_import_leaves_the_eigensolver_unloaded():
    code = ("import sys, coopt, coopt.cli, coopt.fileio; "
            "print('coopt.tridiagonal' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "False"


def test_game_model_is_the_only_dataclass():
    found = set()
    for info in pkgutil.iter_modules(coopt.__path__):
        if info.name == "__main__":  # runs the CLI
            continue
        module = importlib.import_module(f"coopt.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                if dataclasses.is_dataclass(obj):
                    found.add(obj)
    assert found == {GameModel}


def records():
    """(record, one of its fields) for every record kind coopt returns."""
    model = helpers.prisoners_dilemma()
    result = iterate_to_fixed_point(model, 2.0)
    points, _ = evolve_linear(Diagonal(np.array([1.0, 2.0])), np.array([0.6, 0.8]))
    sweep = alpha_sweep(model, [1.0])
    return [
        (DomainSpec("x", 2), "cardinality"),
        (DenseEnergy(("x",), [1.0, 2.0]), "values"),
        (DenseUtility(("x",), [1.0, 2.0]), "order"),
        (PairwiseEnergy((("y", np.ones((2, 2))),)), "terms"),
        (model.agents[0], "objective"),
        (StrategyProfile.uniform(model), "dists"),
        (Diagonal(np.array([1.0, 2.0])), "entries"),
        (DenseSymmetric(np.eye(2)), "matrix"),
        (jacobi_eigen(DenseSymmetric(np.eye(2))), "eigenvalues"),
        (points[-1], "time"),
        (result, "profile"),
        (result.field, "log_values"),
        (result.trace, "max_changes"),
        (epsilon_of_profile(model, result.profile), "epsilon"),
        (sweep, "rows"),
        (sweep.rows[0], "alpha"),
        (model, "hbar"),
    ]


@pytest.mark.parametrize("index", range(len(records())))
def test_assigning_or_deleting_a_field_raises(index):
    record, field = records()[index]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_converting_records_keep_no_instance_dict():
    for info in pkgutil.iter_modules(coopt.__path__):
        if info.name != "__main__":  # runs the CLI
            importlib.import_module(f"coopt.{info.name}")
    found, pending = set(), [Frozen]
    while pending:
        for sub in pending.pop().__subclasses__():
            if sub.__module__.startswith("coopt.") and sub not in found:
                found.add(sub)
                pending.append(sub)
    assert {DenseEnergy, DenseUtility, PairwiseEnergy, StrategyProfile,
            Diagonal, DenseSymmetric} <= found
    for cls in found:
        # a nonzero offset means every instance carries a __dict__
        assert cls.__dictoffset__ == 0, cls


def test_epsilon_certificates_compare_by_value():
    model = helpers.prisoners_dilemma()
    uniform, point = StrategyProfile.uniform(model), StrategyProfile.point_mass(model, [1, 1])
    assert epsilon_of_profile(model, uniform) == epsilon_of_profile(model, uniform)
    assert epsilon_of_profile(model, uniform) != epsilon_of_profile(model, point)


def test_agent_replace_keeps_the_other_fields():
    agent = Agent("a", "x", DenseEnergy(("x",), [1.0, 2.0]))
    swapped = agent._replace(acts_on="y")
    assert (swapped.name, swapped.acts_on, swapped.objective) == ("a", "y", agent.objective)


def test_replacing_a_game_model_field_recompiles_its_plan():
    model = dataclasses.replace(helpers.random_pairwise_model(5), hbar=1.0)
    plan = model.plan
    hotter = dataclasses.replace(model, hbar=2.0)
    assert hotter.plan is not plan and model.plan is plan
    assert len(hotter.plan.groups) == len(plan.groups)
    for hot, cold in zip(hotter.plan.groups, plan.groups):
        np.testing.assert_array_equal(hot.log_tables, cold.log_tables / 2.0)
