import json

import numpy as np
import pytest

from coopt import bundled_path
from coopt.cli import main
from coopt.discrete import iterate_to_fixed_point
from coopt.equilibrium import epsilon_of_profile
from coopt.fileio import (
    FileFormatError,
    dumps_document,
    load_hamiltonian,
    load_problem,
    load_profile,
    solve_document,
    write_document,
)
from coopt.model import PairwiseEnergy, ValidationError
from coopt.numerics import DenseSymmetric, Diagonal


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestProblemLoading:
    def test_bundled_prisoners_dilemma(self):
        model = load_problem(bundled_path("prisoners_dilemma"))
        assert model.mode == "utility"
        assert model.hbar == 1.0  # default applies when the file omits it
        assert [a.name for a in model.agents] == ["row", "col"]
        np.testing.assert_array_equal(model.agents[0].objective.values, [3, 0, 5, 1])

    def test_bundled_pairwise_chain(self):
        model = load_problem(bundled_path("pairwise_chain"))
        assert model.mode == "energy"
        assert isinstance(model.agents[1].objective, PairwiseEnergy)
        assert len(model.agents[1].objective.terms) == 2

    def test_missing_mode_field(self, tmp_path):
        path = write_json(tmp_path, "bad.json", {"variables": [], "agents": []})
        with pytest.raises(FileFormatError, match="mode"):
            load_problem(path)

    def test_malformed_variables_entry_names_the_field(self, tmp_path):
        doc = {
            "mode": "utility",
            "variables": [{"name": "x"}],
            "agents": [],
        }
        path = write_json(tmp_path, "bad.json", doc)
        with pytest.raises(FileFormatError, match=r"variables\[0\].*cardinality"):
            load_problem(path)

    def test_wrong_value_count_is_a_validation_error(self, tmp_path):
        doc = {
            "mode": "utility",
            "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
            "agents": [
                {"name": "ax", "acts_on": "x",
                 "objective": {"dense": {"order": ["x", "y"], "values": [1, 2, 3]}}},
                {"name": "ay", "acts_on": "y",
                 "objective": {"dense": {"order": ["y", "x"], "values": [1, 2, 3, 4]}}},
            ],
        }
        path = write_json(tmp_path, "bad.json", doc)
        with pytest.raises(ValidationError, match="3 values"):
            load_problem(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(FileFormatError, match="line 2"):
            load_problem(path)

    def test_pairwise_in_utility_mode_rejected(self, tmp_path):
        doc = {
            "mode": "utility",
            "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
            "agents": [
                {"name": "ax", "acts_on": "x",
                 "objective": {"pairwise": [{"with": "y", "table": [[0, 1], [1, 0]]}]}},
                {"name": "ay", "acts_on": "y",
                 "objective": {"dense": {"order": ["y", "x"], "values": [1, 2, 3, 4]}}},
            ],
        }
        path = write_json(tmp_path, "bad.json", doc)
        with pytest.raises(ValidationError, match="energy mode"):
            load_problem(path)


class TestMistypedFieldsExitOne:
    """The CLI names the mistyped field instead of converting it or crashing."""

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("hbar", {"mode": "energy", "hbar": [1], "variables": [], "agents": []}),
            ("hbar", {"mode": "energy", "hbar": "abc", "variables": [], "agents": []}),
            ("hbar", {"mode": "energy", "hbar": True, "variables": [], "agents": []}),
            ("cardinality", {"mode": "energy", "agents": [],
                             "variables": [{"name": "x", "cardinality": True}]}),
        ],
        ids=["hbar-list", "hbar-string", "hbar-bool", "cardinality-bool"],
    )
    def test_problem_field(self, tmp_path, capsys, field, doc):
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert f"field {field!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_diagonal_entry(self, tmp_path, capsys, entry):
        path = tmp_path / "h.json"
        path.write_text(f'{{"diagonal": [{entry}, 1.0]}}')
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert "diagonal" in capsys.readouterr().err


class TestHamiltonianLoading:
    def test_diagonal(self, tmp_path):
        path = write_json(tmp_path, "h.json", {"diagonal": [1.0, 2.0, 3.0]})
        op = load_hamiltonian(path)
        assert isinstance(op, Diagonal)
        np.testing.assert_array_equal(op.entries, [1.0, 2.0, 3.0])

    def test_dense(self, tmp_path):
        path = write_json(tmp_path, "h.json", {"dense": [[0.0, 1.0], [1.0, 0.0]]})
        op = load_hamiltonian(path)
        assert isinstance(op, DenseSymmetric)

    def test_dense_asymmetric_rejected(self, tmp_path):
        path = write_json(tmp_path, "h.json", {"dense": [[0.0, 1.0], [0.5, 0.0]]})
        with pytest.raises(FileFormatError, match="symmetric"):
            load_hamiltonian(path)

    def test_bundled_grid(self):
        op = load_hamiltonian(bundled_path("harmonic_oscillator"))
        assert op.dimension == 201
        assert op.matrix[0, 0] == pytest.approx(1.0 / 0.08**2 + 32.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_json(tmp_path, "h.json", {"matrix": [[1.0]]})
        with pytest.raises(FileFormatError, match="diagonal"):
            load_hamiltonian(path)


class TestProfileLoading:
    def test_round_trip_through_solve_document(self, tmp_path):
        model = load_problem(bundled_path("prisoners_dilemma"))
        result = iterate_to_fixed_point(model, 2.0)
        doc = solve_document(model, 2.0, result, epsilon_of_profile(model, result.profile))
        path = tmp_path / "result.json"
        write_document(doc, path)
        profile = load_profile(path, model)
        for got, want in zip(profile.dists, result.profile.dists):
            np.testing.assert_allclose(got, want, atol=1e-15)

    def test_missing_agent_rejected(self, tmp_path):
        model = load_problem(bundled_path("prisoners_dilemma"))
        path = write_json(tmp_path, "p.json", {"profile": {"row": [0.5, 0.5]}})
        with pytest.raises(FileFormatError, match="col"):
            load_profile(path, model)

    def test_bad_sum_rejected(self, tmp_path):
        model = load_problem(bundled_path("prisoners_dilemma"))
        path = write_json(
            tmp_path, "p.json", {"profile": {"row": [0.7, 0.7], "col": [0.5, 0.5]}}
        )
        with pytest.raises(ValidationError, match="sum"):
            load_profile(path, model)


class TestDocumentRoundTrip:
    def test_emit_parse_emit_is_a_fixed_point(self, tmp_path):
        model = load_problem(bundled_path("prisoners_dilemma"))
        result = iterate_to_fixed_point(model, 4.0)
        doc = solve_document(model, 4.0, result, epsilon_of_profile(model, result.profile))
        text = dumps_document(doc)
        assert dumps_document(json.loads(text)) == text

    def test_every_bundled_file_reparses_identically(self):
        for name in ("prisoners_dilemma", "matching_pennies", "coordination",
                     "pairwise_chain", "harmonic_oscillator"):
            raw = json.loads(bundled_path(name).read_text())
            assert json.loads(json.dumps(raw)) == raw
