import json
import math

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


class TestBundledPath:
    @pytest.mark.parametrize("name", ["../../../BENCHMARK", "../__init__", "no_such_game"])
    def test_other_names_are_refused_with_the_sorted_list(self, name):
        with pytest.raises(KeyError) as excinfo:
            bundled_path(name)
        assert excinfo.value.args[0] == (
            f"no bundled file {name!r}; choose one of coordination, harmonic_oscillator, "
            "matching_pennies, pairwise_chain, prisoners_dilemma"
        )


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

    def test_domain_size_past_two_to_the_64_is_exact(self, tmp_path):
        # 2**32 * 2**32 wraps to 0 in int64, which the empty tables would match
        doc = {
            "mode": "utility",
            "variables": [{"name": "x", "cardinality": 2**32},
                          {"name": "y", "cardinality": 2**32}],
            "agents": [
                {"name": "ax", "acts_on": "x",
                 "objective": {"dense": {"order": ["x", "y"], "values": []}}},
                {"name": "ay", "acts_on": "y",
                 "objective": {"dense": {"order": ["y", "x"], "values": []}}},
            ],
        }
        path = write_json(tmp_path, "huge.json", doc)
        with pytest.raises(ValidationError, match="domain of size 18446744073709551616"):
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


BIG = int("9" * 400)  # a valid JSON integer, far past the float range


def _two_by_two(mode, objective):
    return {
        "mode": mode,
        "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
        "agents": [
            {"name": "a", "acts_on": "x", "objective": objective},
            {"name": "b", "acts_on": "y", "objective": {"pairwise": [
                {"with": "x", "table": [[1, 0], [0, 1]]}]}},
        ],
    }


class TestHugeIntegersExitOne:
    """A JSON integer too large for a float is named, not an OverflowError."""

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("'hbar'", {"mode": "energy", "hbar": BIG, "variables": [], "agents": []}),
            ("dense.values", _two_by_two(
                "energy", {"dense": {"order": ["x", "y"], "values": [BIG, 0, 0, 1]}})),
            ("pairwise[0].table", _two_by_two(
                "energy", {"pairwise": [{"with": "y", "table": [[BIG, 0], [0, 1]]}]})),
        ],
        ids=["hbar", "dense-values", "pairwise-table"],
    )
    def test_problem_field(self, tmp_path, capsys, field, doc):
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("diagonal:", {"diagonal": [BIG, 1]}),
            ("dense", {"dense": [[BIG, 0], [0, 1]]}),
            ("grid.potential", {"grid": {"xmin": -1, "xmax": 1, "n": 3, "potential": [BIG, 0, 0]}}),
            ("'xmin'", {"grid": {"xmin": -BIG, "xmax": 1, "n": 3, "potential": [1, 0, 0]}}),
        ],
        ids=["diagonal", "dense", "grid-potential", "grid-xmin"],
    )
    def test_hamiltonian_field(self, tmp_path, capsys, field, doc):
        path = write_json(tmp_path, "h.json", doc)
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert field in capsys.readouterr().err

    def test_profile_entry(self, tmp_path, capsys):
        problem = write_json(tmp_path, "p.json", _two_by_two(
            "energy", {"pairwise": [{"with": "y", "table": [[1, 0], [0, 1]]}]}))
        profile = write_json(tmp_path, "prof.json", {"profile": {"a": [BIG, 0], "b": [1, 0]}})
        assert main(["verify", "--problem", str(problem), "--profile", str(profile)]) == 1
        assert "profile['a']" in capsys.readouterr().err


class TestBooleansInListsExitOne:
    """true and false inside lists are named, not read as 1 and 0."""

    def test_pairwise_table(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", _two_by_two(
            "energy", {"pairwise": [{"with": "y", "table": [[1, 0], [0, False]]}]}))
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert "pairwise[0].table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("dense", {"dense": [[True, False], [False, True]]}),
            ("grid.potential", {"grid": {"xmin": -1, "xmax": 1, "n": 3,
                                         "potential": [True, False, True]}}),
        ],
        ids=["dense", "grid-potential"],
    )
    def test_hamiltonian_field(self, tmp_path, capsys, field, doc):
        path = write_json(tmp_path, "h.json", doc)
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert field in capsys.readouterr().err

    def test_profile_entry(self, tmp_path, capsys):
        problem = write_json(tmp_path, "p.json", _two_by_two(
            "energy", {"pairwise": [{"with": "y", "table": [[1, 0], [0, 1]]}]}))
        profile = write_json(tmp_path, "prof.json", {"profile": {"a": [1, 0], "b": [True, False]}})
        assert main(["verify", "--problem", str(problem), "--profile", str(profile)]) == 1
        assert "profile['b']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "message, objective",
        [
            ("agents[0].objective.dense.values: must be a list of numbers within the float range",
             {"dense": {"order": ["x", "y"], "values": [True, 0, 0, 1]}}),
            ("agents[0].objective.dense.order: entries must be variable names",
             {"dense": {"order": [True, "y"], "values": [1, 0, 0, 1]}}),
            ("agents[0].objective.pairwise[0]: must be an object", {"pairwise": [False]}),
        ],
        ids=["dense-values", "dense-order", "pairwise-entry"],
    )
    def test_objective_field(self, tmp_path, capsys, message, objective):
        path = write_json(tmp_path, "bad.json", _two_by_two("energy", objective))
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("field", ["variables", "agents"])
    def test_problem_entry(self, tmp_path, capsys, field):
        doc = _two_by_two("energy", {"pairwise": [{"with": "y", "table": [[1, 0], [0, 1]]}]})
        doc[field][0] = True
        path = write_json(tmp_path, "bad.json", doc)
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: {field}[0] must be an object\n"

    def test_diagonal(self, tmp_path, capsys):
        path = write_json(tmp_path, "h.json", {"diagonal": [True, 2.0]})
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: diagonal: must be a list of numbers within the float range\n")

    def test_fields_that_are_not_read_may_hold_them(self, tmp_path, capsys):
        doc = json.loads(bundled_path("prisoners_dilemma").read_text())
        doc["notes"] = [True, {"seen": [False, None]}]
        path = write_json(tmp_path, "p.json", doc)
        assert main(["solve", "--problem", str(path), "--alpha", "2"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "beside", [{"note": "x"}, {"pairwise": [{"with": "y", "table": [[1, 0], [0, 1]]}]}],
        ids=["note", "pairwise"],
    )
    def test_objective_holds_exactly_one_kind(self, tmp_path, capsys, beside):
        # an objective object is read whole: no field may stand beside its kind
        objective = {"dense": {"order": ["x", "y"], "values": [1, 0, 0, 1]}, **beside}
        path = write_json(tmp_path, "p.json", _two_by_two("energy", objective))
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: agents[0].objective: "
            "expected an object with exactly one of 'dense', 'pairwise'\n")


class TestUnreadableFilesExitOne:
    """A file that is not UTF-8 or is nested past the interpreter's
    recursion limit is named on one error line."""

    def test_utf16_file(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_bytes('{"diagonal": [1.0]}'.encode("utf-16"))  # starts with FF FE
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text: invalid start byte at byte 0\n")

    def test_deep_nesting(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text('{"diagonal": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: nested too deeply\n"

    def test_deep_nesting_past_the_parser(self, tmp_path, monkeypatch, capsys):
        # a document the parser returns but the walk over its lists cannot finish
        deep = [True]
        for _ in range(100_000):
            deep = [deep]
        path = write_json(tmp_path, "h.json", {"diagonal": [True]})
        monkeypatch.setattr(json, "loads", lambda text: {"diagonal": deep})
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: nested too deeply\n"


class TestOnlyJsonNumbersAreRead:
    """Strings that spell numbers, null and lists of the wrong depth are
    named, not converted or flattened."""

    def test_pairwise_table(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", _two_by_two(
            "energy", {"pairwise": [{"with": "y", "table": [["1", "0"], [0, 1]]}]}))
        assert main(["solve", "--problem", str(path), "--alpha", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: agents[0].objective.pairwise[0].table: "
            "must be a rectangular matrix of numbers within the float range\n")

    @pytest.mark.parametrize(
        "field, doc",
        [
            ("dense", {"dense": [["2", "-1"], ["-1", "2"]]}),
            ("dense", {"dense": [[2.0, None], [-1.0, 2.0]]}),
            ("grid.potential", {"grid": {"xmin": -1, "xmax": 1, "n": 3,
                                         "potential": ["0", "1", "0"]}}),
            ("grid.potential", {"grid": {"xmin": -1, "xmax": 1, "n": 4,
                                         "potential": [[0, 1], [1, 0]]}}),
        ],
        ids=["dense-strings", "dense-null", "potential-strings", "potential-2d"],
    )
    def test_hamiltonian_field(self, tmp_path, capsys, field, doc):
        path = write_json(tmp_path, "h.json", doc)
        assert main(["quantum", "--hamiltonian", str(path)]) == 1
        shape = "a rectangular matrix" if field == "dense" else "a list"
        assert capsys.readouterr().err == (
            f"error: {path}: {field}: must be {shape} of numbers within the float range\n")

    def test_profile_entry(self, tmp_path, capsys):
        model = load_problem(bundled_path("prisoners_dilemma"))
        path = write_json(tmp_path, "prof.json",
                          {"profile": {"row": ["0.25", "0.75"], "col": [0.5, 0.5]}})
        with pytest.raises(FileFormatError, match=r"profile\['row'\]: must be a list of numbers"):
            load_profile(path, model)


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

    def test_key_beside_the_operator_rejected(self, tmp_path):
        path = write_json(tmp_path, "h.json", {"diagonal": [1.0, 2.0], "note": "x"})
        with pytest.raises(FileFormatError) as excinfo:
            load_hamiltonian(path)
        assert str(excinfo.value) == (
            f"{path}: expected an object with exactly one of 'diagonal', 'dense', 'grid'")


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_refused(self, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            dumps_document({"epsilon": value})

    def test_every_document_the_cli_writes_is_json_dumps(self, tmp_path):
        def out(name):
            return str(tmp_path / name)

        games = {name: str(bundled_path(name)) for name in ("prisoners_dilemma", "pairwise_chain")}
        runs = [
            ["solve", "--problem", games["prisoners_dilemma"], "--alpha", "4", "--out", out("u.json")],
            ["solve", "--problem", games["pairwise_chain"], "--alpha", "2", "--out", out("e.json")],
            ["nash", "--problem", games["prisoners_dilemma"], "--out", out("nash.json")],
            ["verify", "--problem", games["pairwise_chain"], "--profile", out("e.json"),
             "--out", out("verify.json")],
            ["quantum", "--hamiltonian", str(bundled_path("harmonic_oscillator")),
             "--states", "2", "--out", out("quantum.json")],
        ]
        for argv in runs:
            assert main(argv) in (0, 2)
        for name in ("u.json", "e.json", "nash.json", "verify.json", "quantum.json"):
            text = (tmp_path / name).read_text()
            doc = json.loads(text)
            assert text == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
            assert dumps_document(doc) == text

    def test_writer_is_json_dumps_byte_for_byte(self):
        doc = {
            "floats": [-0.0, 0.0, 5e-324, 1.7976931348623157e308, -2.5e-7, 1e16, 0.1],
            "scalars": [-0.0, 10**40, -(10**25), True, False, None, 1, 2.5, "x"],
            "empty": {"list": [], "dict": {}, "tuple": ()},
            "nested": [{"b": [1.0, 2.0], "a": [{"z": None}, []]}, {}, [[0.5], [True]]],
            "names": {"agént": 1.0, "名前": [0.5], 'quote"d': "back\\slash", "tab\t": "é\n"},
            "tuple": (1.5, 2.5),
            "int keys": {2: "two", 1: "one"},
            "zero": 0,
        }
        assert dumps_document(doc) == (
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["scalar", "float list", "mixed list"])
    def test_non_finite_numbers_raise_as_json_does(self, value, where):
        doc = {"scalar": {"epsilon": value}, "float list": {"x": [1.0, value]},
               "mixed list": {"x": [1, {"y": value}]}}[where]
        with pytest.raises(ValueError) as want:
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError) as got:
            dumps_document(doc)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("doc", [{"x": object()}, {"x": [1.0, {1, 2}]}, {"x": np.int64(3)},
                                     {1: "a", "b": 2}])
    def test_unencodable_objects_raise_type_error_as_json_does(self, doc):
        with pytest.raises(TypeError) as want:
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(TypeError) as got:
            dumps_document(doc)
        assert str(got.value) == str(want.value)

    def test_every_bundled_file_reparses_identically(self):
        for name in ("prisoners_dilemma", "matching_pennies", "coordination",
                     "pairwise_chain", "harmonic_oscillator"):
            raw = json.loads(bundled_path(name).read_text())
            assert json.loads(json.dumps(raw)) == raw
