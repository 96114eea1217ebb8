"""Readers and writers for the JSON surfaces.

Problem files describe variables, agents and objectives; Hamiltonian files
describe a diagonal, dense or finite-difference grid operator; profile
files carry one distribution per agent.  Result documents are plain JSON
with a schema_version field, written with sorted keys and a trailing
newline so identical runs emit identical bytes.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .continuous import StationaryReport, build_grid_hamiltonian
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


def _read_json(path):
    try:
        with open(path) as f:
            text = f.read()
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise FileFormatError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    except OSError as e:
        raise FileFormatError(f"{path}: {e.strerror or e}") from e
    # No list in an input file may hold true or false, which numpy would read
    # as 1 and 0.  The text test spares the walk for files without either.
    if "true" in text or "false" in text:
        keys = _keys_to_bool_list(data)
        if keys is not None:
            where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
            raise FileFormatError(f"{path}: {where.lstrip('.') or 'top level'}: "
                                  "lists may not hold true or false")
    return data


def _keys_to_bool_list(value):
    # keys down to the first list holding true or false, depth first, or None
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        kinds = set(map(type, value))
        if bool in kinds:
            return []
        if list not in kinds and dict not in kinds:
            return None
        children = enumerate(value)
    else:
        return None
    for key, child in children:
        if isinstance(child, (dict, list)):
            keys = _keys_to_bool_list(child)
            if keys is not None:
                return [key, *keys]
    return None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _floats(value, where: str, what: str = "numbers") -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as e:  # overflow: a huge JSON integer
        raise FileFormatError(f"{where}: must be {what} within the float range") from e


def _require(data: dict, field: str, kind, where: str):
    if field not in data:
        raise FileFormatError(f"{where}: missing required field {field!r}")
    value = data[field]
    if kind is float:
        if not _is_number(value):
            raise FileFormatError(f"{where}: field {field!r} must be a number")
        return float(_floats(value, f"{where}: field {field!r}", "a number"))
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise FileFormatError(f"{where}: field {field!r} has the wrong type")
    return value


def _parse_objective(raw, mode: str, where: str):
    if not isinstance(raw, dict) or len(raw) != 1:
        raise FileFormatError(
            f"{where}: objective must be an object with exactly one of 'dense' or 'pairwise'"
        )
    if "dense" in raw:
        dense = _require(raw, "dense", dict, where)
        order = _require(dense, "order", list, f"{where}.dense")
        values = _require(dense, "values", list, f"{where}.dense")
        if not all(isinstance(v, str) for v in order):
            raise FileFormatError(f"{where}.dense.order: entries must be variable names")
        if not all(_is_number(v) for v in values):
            raise FileFormatError(f"{where}.dense.values: entries must be numbers")
        cls = DenseUtility if mode == "utility" else DenseEnergy
        return cls(tuple(order), _floats(values, f"{where}.dense.values"))
    if "pairwise" in raw:
        terms_raw = _require(raw, "pairwise", list, where)
        terms = []
        for k, term in enumerate(terms_raw):
            if not isinstance(term, dict):
                raise FileFormatError(f"{where}.pairwise[{k}]: must be an object")
            other = _require(term, "with", str, f"{where}.pairwise[{k}]")
            table = _require(term, "table", list, f"{where}.pairwise[{k}]")
            arr = _floats(table, f"{where}.pairwise[{k}].table", "a rectangular number matrix")
            if arr.ndim != 2:
                raise FileFormatError(f"{where}.pairwise[{k}].table: must be a 2-D matrix")
            terms.append((other, arr))
        return PairwiseEnergy(tuple(terms))
    raise FileFormatError(f"{where}: objective must contain 'dense' or 'pairwise'")


def load_problem(path) -> GameModel:
    """Parse and validate a problem file; raises FileFormatError or
    model.ValidationError with a field-anchored message."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
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

    return validate(GameModel(tuple(variables), tuple(agents), hbar=hbar, mode=mode))


def load_hamiltonian(path) -> HermitianOperator:
    """Parse a Hamiltonian file: diagonal entries, a dense symmetric matrix,
    or a 1-D finite-difference grid with a potential."""
    data = _read_json(path)
    if not isinstance(data, dict) or len(data) != 1:
        raise FileFormatError(
            f"{path}: expected an object with exactly one of 'diagonal', 'dense', 'grid'"
        )
    if "diagonal" in data:
        entries = _require(data, "diagonal", list, str(path))
        # false for NaN, infinities and integers past the float range
        if not all(_is_number(x) and abs(x) <= sys.float_info.max for x in entries):
            raise FileFormatError(f"{path}: 'diagonal' entries must be finite numbers")
        return Diagonal(np.array(entries, dtype=float))
    if "dense" in data:
        rows = _require(data, "dense", list, str(path))
        matrix = _floats(rows, f"{path}: dense", "a rectangular number matrix")
        try:
            return DenseSymmetric(matrix)
        except ValueError as e:
            raise FileFormatError(f"{path}: dense: {e}") from e
    if "grid" in data:
        grid = _require(data, "grid", dict, str(path))
        xmin = _require(grid, "xmin", float, f"{path}: grid")
        xmax = _require(grid, "xmax", float, f"{path}: grid")
        n = _require(grid, "n", int, f"{path}: grid")
        potential = _require(grid, "potential", list, f"{path}: grid")
        potential = _floats(potential, f"{path}: grid.potential")
        try:
            return build_grid_hamiltonian(xmin, xmax, int(n), potential)
        except ValueError as e:
            raise FileFormatError(f"{path}: grid: {e}") from e
    raise FileFormatError(f"{path}: expected one of 'diagonal', 'dense', 'grid'")


def load_profile(path, model: GameModel) -> StrategyProfile:
    """Read a profile document ({"profile": {agent: [p, ...]}}); any emitted
    solve result is accepted directly since it carries the same key."""
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    table = _require(data, "profile", dict, str(path))
    dists = []
    for agent in model.agents:
        if agent.name not in table:
            raise FileFormatError(f"{path}: profile: missing agent {agent.name!r}")
        entry = table[agent.name]
        if not isinstance(entry, list):
            raise FileFormatError(f"{path}: profile[{agent.name!r}] must be a list of numbers")
        dists.append(_floats(entry, f"{path}: profile[{agent.name!r}]"))
    return validate_profile(model, StrategyProfile(tuple(dists)))


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_document(doc: dict, path=None) -> None:
    text = dumps_document(doc)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
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


def quantum_state_entry(
    index: int, report: StationaryReport, psi: np.ndarray
) -> dict:
    state = report.states[0]
    return {
        "index": index,
        "rayleigh": float(state.rayleigh),
        "residual": float(state.residual),
        "matched_eigenvalue_index": state.matched_index,
        "time": float(report.time),
        "converged": bool(report.converged),
        "amplitudes": psi.tolist(),
    }
