"""Readers and writers for the JSON surfaces.

Problem files describe variables, agents and objectives; Hamiltonian files
describe a diagonal, dense or finite-difference grid operator; profile
files carry one distribution per agent.  Result documents are plain JSON
with a schema_version field, written by json.dumps with a two-space indent,
sorted keys and a trailing newline so identical runs emit identical bytes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .continuous import TrajectoryPoint, build_grid_hamiltonian
from .discrete import FixedPointResult
from .equilibrium import EpsilonCertificate
from .model import (
    Agent,
    DenseEnergy,
    DenseUtility,
    DomainSpec,
    GameModel,
    PairwiseEnergy,
    StrategyProfile,
    validate,
    validate_profile,
)
from .numerics import DenseSymmetric, Diagonal, HermitianOperator

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Structural problem in an input file; the message names the field."""


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        data = json.loads(text)
        if not isinstance(data, dict):
            raise FileFormatError(f"{path}: top level must be an object")
        if "true" in text or "false" in text:  # else the walk would find none
            _nulls_for_bools(data)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from e
    except RecursionError as e:
        raise FileFormatError(f"{path}: nested too deeply") from e
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from e
    return data


def _nulls_for_bools(value) -> None:
    # true and false inside lists become None in place, which each field's
    # reader refuses as it refuses null; numpy would read them as 1 and 0
    if isinstance(value, dict):
        children = value.values()
    else:
        kinds = set(map(type, value))
        if bool in kinds:
            value[:] = [None if type(x) is bool else x for x in value]
        if list not in kinds and dict not in kinds:
            return
        children = value
    for child in children:
        if isinstance(child, (dict, list)):
            _nulls_for_bools(child)


_SHAPES = ("a number", "a list of numbers", "a rectangular matrix of numbers")


def _floats(value, where: str, ndim: int) -> np.ndarray:
    """value as a float array when it is a JSON number (ndim 0), a list of
    numbers (1) or a rectangular matrix of numbers (2); raises
    FileFormatError naming where for anything else, such as a string, null,
    a ragged matrix or an integer past the float range."""
    try:
        arr = np.array(value)  # ValueError when ragged
        if arr.ndim == ndim:
            if arr.dtype.kind in "fiu":
                return arr.astype(float, copy=False)
            # integers past 64 bits; OverflowError past the float range
            if arr.dtype == object and all(type(x) in (int, float) for x in arr.flat):
                return arr.astype(float)
    except (ValueError, OverflowError):
        pass
    raise FileFormatError(f"{where}: must be {_SHAPES[ndim]} within the float range")


def _require(data: dict, field: str, kind, where: str):
    if field not in data:
        raise FileFormatError(f"{where}: missing required field {field!r}")
    value = data[field]
    if kind is float:
        return float(_floats(value, f"{where}: field {field!r}", 0))
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FileFormatError(f"{where}: field {field!r} has the wrong type")
    return value


def _one_of(data: dict, keys: tuple[str, ...], where: str) -> str:
    """The one key of data, which must be one of keys."""
    names = ", ".join(map(repr, keys))
    if len(data) != 1:
        raise FileFormatError(f"{where}: expected an object with exactly one of {names}")
    (key,) = data
    if key not in keys:
        raise FileFormatError(f"{where}: expected one of {names}")
    return key


def _parse_objective(raw: dict, mode: str, where: str):
    if _one_of(raw, ("dense", "pairwise"), where) == "dense":
        dense = _require(raw, "dense", dict, where)
        order = _require(dense, "order", list, f"{where}.dense")
        values = _require(dense, "values", list, f"{where}.dense")
        if not all(isinstance(v, str) for v in order):
            raise FileFormatError(f"{where}.dense.order: entries must be variable names")
        cls = DenseUtility if mode == "utility" else DenseEnergy
        return cls(tuple(order), _floats(values, f"{where}.dense.values", 1))
    terms = []
    for k, term in enumerate(_require(raw, "pairwise", list, where)):
        here = f"{where}.pairwise[{k}]"
        if not isinstance(term, dict):
            raise FileFormatError(f"{here}: must be an object")
        other = _require(term, "with", str, here)
        terms.append((other, _floats(_require(term, "table", list, here), f"{here}.table", 2)))
    return PairwiseEnergy(tuple(terms))


def load_problem(path) -> GameModel:
    """Parse and validate a problem file; raises FileFormatError or
    model.ValidationError with a field-anchored message."""
    # validated once the parsed JSON is released, so that validate's
    # one-pass copy of the tables does not add to the loader's peak memory
    return validate(_parse_problem(path))


def _parse_problem(path) -> GameModel:
    data = _read_json(path)
    mode = _require(data, "mode", str, str(path))
    if mode not in ("energy", "utility"):
        raise FileFormatError(f"{path}: mode must be 'energy' or 'utility', got {mode!r}")
    hbar = _require(data, "hbar", float, str(path)) if "hbar" in data else 1.0

    variables_raw = _require(data, "variables", list, str(path))
    variables = []
    for k, v in enumerate(variables_raw):
        if not isinstance(v, dict):
            raise FileFormatError(f"{path}: variables[{k}] must be an object")
        name = _require(v, "name", str, f"{path}: variables[{k}]")
        card = _require(v, "cardinality", int, f"{path}: variables[{k}]")
        variables.append(DomainSpec(name, int(card)))

    agents_raw = _require(data, "agents", list, str(path))
    agents = []
    for k, a in enumerate(agents_raw):
        if not isinstance(a, dict):
            raise FileFormatError(f"{path}: agents[{k}] must be an object")
        name = _require(a, "name", str, f"{path}: agents[{k}]")
        acts_on = _require(a, "acts_on", str, f"{path}: agents[{k}]")
        objective = _parse_objective(
            _require(a, "objective", dict, f"{path}: agents[{k}]"),
            mode,
            f"{path}: agents[{k}].objective",
        )
        agents.append(Agent(name, acts_on, objective))

    return GameModel(tuple(variables), tuple(agents), hbar=hbar, mode=mode)


def load_hamiltonian(path) -> HermitianOperator:
    """Parse a Hamiltonian file: diagonal entries, a dense symmetric matrix,
    or a 1-D finite-difference grid with a potential."""
    data = _read_json(path)
    key = _one_of(data, ("diagonal", "dense", "grid"), str(path))
    where = f"{path}: {key}"
    if key == "diagonal":
        build, args = Diagonal, (_floats(data[key], where, 1),)
    elif key == "dense":
        build, args = DenseSymmetric, (_floats(data[key], where, 2),)
    else:
        grid = _require(data, "grid", dict, str(path))
        build, args = build_grid_hamiltonian, (
            _require(grid, "xmin", float, where),
            _require(grid, "xmax", float, where),
            int(_require(grid, "n", int, where)),
            _floats(_require(grid, "potential", list, where), f"{where}.potential", 1),
        )
    try:
        return build(*args)
    except ValueError as e:
        raise FileFormatError(f"{where}: {e}") from e


def load_profile(path, model: GameModel) -> StrategyProfile:
    """Read a profile document ({"profile": {agent: [p, ...]}}); any emitted
    solve result is accepted directly since it carries the same key."""
    table = _require(_read_json(path), "profile", dict, str(path))
    dists = []
    for agent in model.agents:
        if agent.name not in table:
            raise FileFormatError(f"{path}: profile: missing agent {agent.name!r}")
        dists.append(_floats(table[agent.name], f"{path}: profile[{agent.name!r}]", 1))
    profile = StrategyProfile(tuple(dists))
    validate_profile(model, profile)
    return profile


def dumps_document(doc: dict) -> str:
    """doc as JSON with a two-space indent and sorted keys, plus a newline.

    NaN and Infinity are not JSON (RFC 8259) and raise ValueError.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_document(doc: dict, path=None) -> None:
    write_text(dumps_document(doc), path)


def write_text(text: str, path=None) -> None:
    """text to the file at path as UTF-8, or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _named(model: GameModel, vectors) -> dict:
    # tolist() gives the same Python floats, and so bytes, as float(x) per element
    return {agent.name: vec.tolist() for agent, vec in zip(model.agents, vectors)}


def certificate_document(model: GameModel, certificate: EpsilonCertificate) -> dict:
    return {
        "epsilon": float(certificate.epsilon),
        "gains": {a.name: float(g) for a, g in zip(model.agents, certificate.gains)},
        "best_deviation": {
            a.name: int(d) for a, d in zip(model.agents, certificate.best_deviation)
        },
        "payoffs": {a.name: float(p) for a, p in zip(model.agents, certificate.payoffs)},
    }


def solve_document(
    model: GameModel,
    alpha: float,
    result: FixedPointResult,
    certificate: EpsilonCertificate | None = None,
) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "solve",
        "mode": model.mode,
        "alpha": float(alpha),
        "hbar": float(model.hbar),
        "converged": bool(result.converged),
        "iterations": int(result.iterations),
        "max_change": float(result.max_change),
        "profile": _named(model, result.profile.dists),
        "expected_returns": _named(model, result.field.values),
    }
    if result.cycle_period is not None:
        doc["cycle_period"] = int(result.cycle_period)
    if certificate is not None:
        doc["epsilon_certificate"] = certificate_document(model, certificate)
    return doc


def nash_document(model: GameModel, equilibria: list[tuple[int, ...]]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "nash",
        "count": len(equilibria),
        "equilibria": [
            {a.name: int(action) for a, action in zip(model.agents, profile)}
            for profile in equilibria
        ],
    }


def verify_document(model: GameModel, certificate: EpsilonCertificate) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "command": "verify"}
    doc.update(certificate_document(model, certificate))
    return doc


def quantum_document(
    states: list[dict], dt: float, tol: float, hbar: float
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "quantum",
        "dt": float(dt),
        "tol": float(tol),
        "hbar": float(hbar),
        "states": states,
    }


def quantum_state_entry(index: int, last: TrajectoryPoint, converged: bool) -> dict:
    """State index's entry: its flow's last point and converged flag."""
    return {
        "index": index,
        "rayleigh": float(last.rayleigh[0]),
        "residual": float(last.residual[0]),
        "matched_eigenvalue_index": None,
        "time": float(last.time),
        "converged": bool(converged),
        "amplitudes": last.amplitudes[0].tolist(),
    }
