import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import helpers
from coopt import bundled_path, fileio
from coopt.continuous import RK4_MONOTONE_LIMIT, default_step
from coopt.numerics import jacobi_eigen

PD = str(bundled_path("prisoners_dilemma"))
HARMONIC = str(bundled_path("harmonic_oscillator"))


def run_cli(*args, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "coopt", *args], capture_output=True, text=True, timeout=timeout
    )


def _all_zero_game():
    """Utility game whose agent Col holds all-zero utilities, so the map
    refuses it at its first step."""
    return {
        "mode": "utility",
        "variables": [{"name": "r", "cardinality": 2}, {"name": "c", "cardinality": 2}],
        "agents": [
            {"name": "Row", "acts_on": "r",
             "objective": {"dense": {"order": ["r", "c"], "values": [1, 2, 3, 4]}}},
            {"name": "Col", "acts_on": "c",
             "objective": {"dense": {"order": ["r", "c"], "values": [0, 0, 0, 0]}}},
        ],
    }


def write_agreement_game(path, hbar):
    """Two binary agents with the pairwise energy table [[1, 2], [2, 1]]."""
    table = [[1.0, 2.0], [2.0, 1.0]]
    path.write_text(json.dumps({
        "mode": "energy",
        "hbar": hbar,
        "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
        "agents": [
            {"name": "A", "acts_on": "a",
             "objective": {"pairwise": [{"with": "b", "table": table}]}},
            {"name": "B", "acts_on": "b",
             "objective": {"pairwise": [{"with": "a", "table": table}]}},
        ],
    }))


class TestSolve:
    def test_prisoners_dilemma_high_alpha(self, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli("solve", "--problem", PD, "--alpha", "8", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["converged"] is True
        assert doc["profile"]["row"][1] > 0.99
        assert doc["profile"]["col"][1] > 0.99
        assert doc["schema_version"] == 1
        assert "epsilon_certificate" in doc

    @pytest.mark.parametrize("problem, argv, code", [
        (PD, ["--alpha", "2"], 0),
        # the cycle stop scripts/compare_outputs.py runs
        (str(bundled_path("matching_pennies")),
         ["--alpha", "4", "--init", "random", "--seed", "7"], 2),
    ], ids=["converged", "cycle"])
    def test_trace_file(self, tmp_path, problem, argv, code):
        """One row per map evaluation, the last one the document's max_change."""
        trace, out = tmp_path / "trace.csv", tmp_path / "r.json"
        proc = run_cli("solve", "--problem", problem, *argv, "--trace", str(trace),
                       "--out", str(out))
        assert proc.returncode == code, proc.stderr
        doc = json.loads(out.read_text())
        assert ("cycle_period" in doc) == (code == 2)
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,max_change"
        rows = [line.split(",") for line in lines[1:]]
        assert [int(step) for step, _ in rows] == list(range(1, doc["iterations"] + 1))
        assert rows[-1][1] == repr(doc["max_change"])

    def test_non_convergence_exits_two(self, tmp_path):
        mp = str(bundled_path("matching_pennies"))
        out = tmp_path / "r.json"
        proc = run_cli(
            "solve", "--problem", mp, "--alpha", "32", "--init", "random",
            "--seed", "123", "--max-iter", "200", "--out", str(out),
        )
        assert proc.returncode == 2
        doc = json.loads(out.read_text())
        assert doc["converged"] is False

    def test_malformed_problem_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "mode": "utility",
            "variables": [{"name": "x", "cardinality": 2}, {"name": "x2"}],
            "agents": [],
        }))
        proc = run_cli("solve", "--problem", str(bad), "--alpha", "1")
        assert proc.returncode == 1
        assert "variables[1]" in proc.stderr

    @pytest.mark.parametrize(
        "problem, hbar, message",
        [("pairwise_chain", "1e-4", "agent 'A': the expected return exp(2000.0) of its best "
          "action overflows at hbar=0.0001; use a larger hbar"),
         ("pairwise_chain", "1e-320", "diverged at step 1: agent 'A': non-finite expected "
          "return at hbar=1e-320; use a larger hbar"),
         ("all-zero", None, "agent 'Col': all expected returns are zero, distribution undefined")],
        ids=["returns-overflow-on-output", "returns-overflow-in-map", "all-zero-returns"],
    )
    def test_runtime_refusal_names_the_agent_and_writes_nothing(
        self, tmp_path, problem, hbar, message
    ):
        path = bundled_path(problem) if problem != "all-zero" else tmp_path / "zero.json"
        if problem == "all-zero":
            path.write_text(json.dumps(_all_zero_game()))
        out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
        proc = run_cli("solve", "--problem", str(path), "--alpha", "1",
                       *(["--hbar", hbar] if hbar else []),
                       "--out", str(out), "--trace", str(trace))
        assert (proc.returncode, proc.stderr) == (1, f"error: {message}\n")
        assert not out.exists() and not trace.exists()

    def test_energy_problem_has_no_certificate(self, tmp_path):
        chain = str(bundled_path("pairwise_chain"))
        out = tmp_path / "r.json"
        proc = run_cli("solve", "--problem", chain, "--alpha", "4", "--out", str(out))
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert "epsilon_certificate" not in doc
        assert doc["mode"] == "energy"


@pytest.mark.parametrize(
    "argv",
    [["solve", "--alpha", "1"], ["sweep", "--alpha-grid", "1:2:lin:2"], ["nash"],
     ["verify", "--profile", "profile.json"]],
    ids=["solve", "sweep", "nash", "verify"],
)
def test_problem_without_variables_exits_one(tmp_path, monkeypatch, capsys, argv):
    from coopt.cli import main

    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.json").write_text(
        json.dumps({"mode": "energy", "variables": [], "agents": []})
    )
    (tmp_path / "profile.json").write_text(json.dumps({"profile": {}}))
    assert main([*argv, "--problem", "empty.json"]) == 1
    assert "variables: at least one variable is required" in capsys.readouterr().err


class TestNash:
    def test_prisoners_dilemma(self):
        proc = run_cli("nash", "--problem", PD)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["count"] == 1
        assert doc["equilibria"] == [{"row": 1, "col": 1}]

    def test_matching_pennies_empty(self):
        proc = run_cli("nash", "--problem", str(bundled_path("matching_pennies")))
        doc = json.loads(proc.stdout)
        assert doc["count"] == 0

    def test_energy_problem_converts(self):
        proc = run_cli("nash", "--problem", str(bundled_path("pairwise_chain")))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert {"A": 0, "B": 0, "C": 0} in doc["equilibria"]

    def test_energy_game_at_small_hbar(self, tmp_path):
        # exp(-E/hbar) underflows to 0 for every entry here; energies do not.
        problem = tmp_path / "game.json"
        write_agreement_game(problem, 0.001)
        proc = run_cli("nash", "--problem", str(problem))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["equilibria"] == [{"A": 0, "B": 0}, {"A": 1, "B": 1}]


@pytest.mark.parametrize(
    "argv",
    [["nash"], ["verify", "--profile", "profile.json"],
     ["sweep", "--alpha-grid", "0.25:2:log:4", "--restarts", "2"]],
    ids=["nash", "verify", "sweep"],
)
def test_energy_commands_use_no_utility_copy(tmp_path, monkeypatch, argv):
    import coopt
    from coopt.cli import main

    def refuse(model):
        raise AssertionError("energy model converted to utilities")

    for ns in (coopt.model, coopt.cli, coopt.equilibrium):
        monkeypatch.setattr(ns, "to_utility_model", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profile.json").write_text(json.dumps(
        {"profile": {"A": [0.5, 0.5, 0.0], "B": [0.2, 0.3, 0.5], "C": [0.9, 0.1, 0.0]}}
    ))
    chain = str(bundled_path("pairwise_chain"))
    assert main([*argv, "--problem", chain, "--out", "out"]) == 0


class TestVerify:
    def test_certificate_for_uniform_profile(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"profile": {"row": [0.5, 0.5], "col": [0.5, 0.5]}}
        ))
        proc = run_cli("verify", "--problem", PD, "--profile", str(profile))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["epsilon"] == pytest.approx(0.75)
        assert doc["best_deviation"] == {"row": 1, "col": 1}

    def test_solve_output_feeds_verify(self, tmp_path):
        out = tmp_path / "solved.json"
        run_cli("solve", "--problem", PD, "--alpha", "8", "--out", str(out))
        proc = run_cli("verify", "--problem", PD, "--profile", str(out))
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["epsilon"] <= 1e-9

    def test_underflowed_energy_profile_exits_one(self, tmp_path):
        # Every weight exp(-E/hbar) underflows to 0 at hbar = 0.001, so a
        # certificate would read epsilon 0 although B gains by switching.
        problem, profile = tmp_path / "game.json", tmp_path / "profile.json"
        write_agreement_game(problem, 0.001)
        profile.write_text(json.dumps({"profile": {"A": [1.0, 0.0], "B": [0.0, 1.0]}}))
        proc = run_cli("verify", "--problem", str(problem), "--profile", str(profile))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "hbar=0.001" in proc.stderr
        proc = run_cli("verify", "--problem", str(problem), "--profile", str(profile),
                       "--hbar", "0.01")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["best_deviation"] == {"A": 1, "B": 0}

    def test_overflowed_energy_profile_exits_one(self, tmp_path):
        # exp(-E/hbar) of the chain's negative energies overflows at 1e-300,
        # where the certificate would read epsilon NaN and payoffs Infinity.
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps(
            {"profile": {"A": [0.5, 0.5, 0.0], "B": [0.2, 0.3, 0.5], "C": [0.9, 0.1, 0.0]}}
        ))
        proc = run_cli("verify", "--problem", str(bundled_path("pairwise_chain")),
                       "--profile", str(profile), "--hbar", "1e-300")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "overflows at hbar=1e-300" in proc.stderr


class TestSweep:
    def test_csv_report(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--problem", PD, "--alpha-grid", "1:32:log:6",
            "--restarts", "2", "--seed", "11", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,seed,converged,iterations,epsilon,welfare,global_hit"
        assert len(lines) == 13

    def test_bad_grid_spec_exits_one(self):
        proc = run_cli("sweep", "--problem", PD, "--alpha-grid", "nope")
        assert proc.returncode == 1
        assert "alpha-grid" in proc.stderr

    @pytest.mark.parametrize("hbar", ["0.001", "1e-300"])
    def test_welfare_outside_the_float_range_is_left_empty(self, tmp_path, hbar):
        # The weights underflow to 0 at 0.001 and, for the chain's negative
        # energies, overflow at 1e-300.
        if hbar == "0.001":
            problem = tmp_path / "game.json"
            write_agreement_game(problem, 0.001)
        else:
            problem = bundled_path("pairwise_chain")
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--problem", str(problem), "--alpha-grid", "0.5:8:log:3",
                       "--restarts", "2", "--hbar", hbar, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 6
        assert all(row[5] == "" and row[6] in ("true", "false") for row in rows)

    def test_utility_welfare_whose_mean_overflows_is_left_empty(self, tmp_path):
        # Each agent's payoff is 1.35e308, but their sum overflows.
        values = [1e308, 1.7e308, 1.7e308, 1e308]
        problem = tmp_path / "game.json"
        problem.write_text(json.dumps({
            "mode": "utility",
            "variables": [{"name": "x", "cardinality": 2}, {"name": "y", "cardinality": 2}],
            "agents": [
                {"name": name, "acts_on": own,
                 "objective": {"dense": {"order": ["x", "y"], "values": values}}}
                for name, own in (("a", "x"), ("b", "y"))
            ],
        }))
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--problem", str(problem), "--alpha-grid", "1:2:lin:2",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[:2] + row[4:] for row in rows] == [
            ["1.0", "5156922822541503845", "0.0", "", ""],
            ["2.0", "5120397642381829728", "0.0", "", ""],
        ]

    def test_refused_cells_are_written_empty_and_exit_two(self, tmp_path):
        # agent B's expected return overflows at alpha 2, not at alpha 1
        problem = tmp_path / "game.json"
        problem.write_text(json.dumps(_two_agents([[1e308, -1e308], [0, 0]])))
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--problem", str(problem), "--alpha-grid", "1:2:lin:2",
                       "--restarts", "2", "--out", str(out))
        assert (proc.returncode, proc.stderr) == (2, "")
        assert out.read_text().splitlines()[1:] == [
            "1.0,5156922822541503845,true,3,,,false",
            "1.0,13197271613650035135,true,3,,,false",
            "2.0,5120397642381829728,false,0,,,",
            "2.0,9691361167763047584,false,0,,,",
        ]

    def test_all_zero_returns_refuse_every_cell(self, tmp_path):
        problem = tmp_path / "zero.json"
        problem.write_text(json.dumps(_all_zero_game()))
        out = tmp_path / "sweep.csv"
        proc = run_cli("sweep", "--problem", str(problem), "--alpha-grid", "1:2:lin:2",
                       "--restarts", "2", "--out", str(out))
        assert (proc.returncode, proc.stderr) == (2, "")
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 4
        assert all(row[2:] == ["false", "0", "", "", ""] for row in rows)


@pytest.mark.parametrize(
    "argv,flag",
    [(["solve", "--alpha", "inf"], "--alpha"), (["solve", "--alpha", "nan"], "--alpha"),
     (["sweep", "--alpha-grid", "1:inf:lin:2"], "--alpha-grid bounds"),
     (["sweep", "--alpha-grid", "nan:2:log:2"], "--alpha-grid bounds")],
)
def test_non_finite_alpha_exits_one_naming_the_flag(tmp_path, capsys, argv, flag):
    from coopt.cli import main

    assert main([*argv, "--problem", PD, "--out", str(tmp_path / "out")]) == 1
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-9"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--problem", PD, "--alpha", "2"],
     ["sweep", "--problem", PD, "--alpha-grid", "1:2:lin:2"],
     ["quantum", "--hamiltonian", HARMONIC]],
    ids=["solve", "sweep", "quantum"],
)
def test_tol_that_is_not_positive_and_finite_exits_one_naming_the_flag(
    tmp_path, capsys, argv, tol
):
    from coopt.cli import main

    assert main([*argv, f"--tol={tol}", "--out", str(tmp_path / "out")]) == 1
    assert "--tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv,message",
    [(["solve", "--alpha", "1", "--max-iter", "0"], "--max-iter must be at least 1 (got 0)"),
     (["sweep", "--alpha-grid", "1:2:lin:2", "--max-iter", "0"],
      "--max-iter must be at least 1 (got 0)"),
     (["sweep", "--alpha-grid", "1:2:lin:2", "--restarts", "0"],
      "--restarts must be at least 1 (got 0)"),
     (["quantum", "--states", "0"], "--states must be at least 1 (got 0)"),
     (["quantum", "--t-max", "0"], "--t-max must be positive (got 0.0)"),
     (["quantum", "--t-max", "nan"], "--t-max must be positive (got nan)"),
     (["solve", "--alpha", "0"], "--alpha must be positive (got 0.0)"),
     (["solve", "--alpha=-2"], "--alpha must be positive (got -2.0)"),
     (["sweep", "--alpha-grid", "0:2:lin:3"], "--alpha-grid values must be positive (got 0.0)"),
     (["sweep", "--alpha-grid=-1:2:lin:1"], "--alpha-grid values must be positive (got -1.0)")],
    ids=["solve-max-iter", "sweep-max-iter", "restarts", "states", "t-max", "t-max-nan",
         "alpha", "alpha-negative", "alpha-grid", "alpha-grid-negative"],
)
def test_out_of_range_flag_exits_one_naming_the_flag_before_reading_files(
    tmp_path, capsys, argv, message
):
    from coopt.cli import main

    # the input file does not exist, so the flag is checked before any read
    missing = str(tmp_path / "missing.json")
    where = "--hamiltonian" if argv[0] == "quantum" else "--problem"
    assert main([*argv, where, missing, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


class TestQuantum:
    def test_harmonic_ground_state(self, tmp_path):
        out = tmp_path / "q.json"
        proc = run_cli(
            "quantum", "--hamiltonian", HARMONIC, "--dt", "0.0025", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        state = doc["states"][0]
        assert state["converged"] is True
        assert abs(state["rayleigh"] - 0.5) < 5e-3

    def test_two_states_with_trace(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"diagonal": [0.5, 1.25, 2.0]}))
        out = tmp_path / "q.json"
        trace = tmp_path / "traj.csv"
        proc = run_cli(
            "quantum", "--hamiltonian", str(h), "--states", "2", "--init", "random",
            "--seed", "3", "--out", str(out), "--trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert [s["index"] for s in doc["states"]] == [0, 1]
        assert doc["states"][0]["rayleigh"] == pytest.approx(0.5, abs=1e-6)
        assert doc["states"][1]["rayleigh"] == pytest.approx(1.25, abs=1e-5)
        lines = trace.read_text().splitlines()
        assert lines[0] == "t,agent,action,psi,lambda,residual"
        labels = {row.split(",")[1] for row in lines[1:]}
        assert labels == {"0", "1"}

    def test_default_init_writes_the_oscillator_states_in_spectral_order(self, tmp_path):
        # the uniform start is even; later states start from seeded random vectors
        out = tmp_path / "q.json"
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--states", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        states = json.loads(out.read_text())["states"]
        assert all(s["converged"] for s in states)
        expected = np.linalg.eigvalsh(fileio.load_hamiltonian(HARMONIC).matrix)[:5]
        np.testing.assert_allclose([s["rayleigh"] for s in states], expected, rtol=0, atol=1e-6)

    def test_default_step_reaches_the_oracle_ground_state(self, tmp_path):
        operator = fileio.load_hamiltonian(HARMONIC)
        out = tmp_path / "q.json"
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["dt"] == default_step(operator)
        state = doc["states"][0]
        steps = state["time"] / doc["dt"]
        assert steps == round(steps) > 0
        assert state["converged"] is True
        assert abs(state["rayleigh"] - jacobi_eigen(operator).eigenvalues[0]) <= 1e-12

    def test_step_at_the_monotone_limit_exits_one(self):
        operator = fileio.load_hamiltonian(HARMONIC)
        dt = RK4_MONOTONE_LIMIT / helpers.centre(operator)[1]
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--dt", repr(dt))
        assert proc.returncode == 1
        assert "monotone limit" in proc.stderr and "Traceback" not in proc.stderr

    def test_oversized_dt_exits_one(self):
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--dt", "1.0")
        assert proc.returncode == 1
        assert "characteristic" in proc.stderr

    def test_infinite_hbar_exits_one_naming_hbar(self):
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--hbar", "inf", timeout=60)
        assert proc.returncode == 1
        assert "hbar must be positive and finite" in proc.stderr

    def test_largest_finite_hbar_is_decided_at_once(self, tmp_path):
        # 0.99 * 1.5961 * hbar overflows here, but the default step does
        # not: it is accepted.  So does the default horizon 1000 * hbar,
        # and the run stops at the last step whose time is a float.
        out = tmp_path / "q.json"
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--hbar", "1.7e308",
                       "--out", str(out), timeout=60)
        assert proc.returncode == 2, proc.stderr
        doc = json.loads(out.read_text())
        dt = default_step(fileio.load_hamiltonian(HARMONIC), 1.7e308)
        assert doc["dt"] == dt and 1.5e306 < dt < 1.6e306
        time = doc["states"][0]["time"]
        assert time == round(time / dt) * dt and math.isinf(time + dt)

    @pytest.mark.parametrize("hbar", ["1e4", "0.01"])
    def test_default_horizon_grows_with_hbar(self, tmp_path, hbar):
        # The flow's time unit is hbar / half-width, so the default run
        # takes the same 1080 steps at every hbar.
        out = tmp_path / "q.json"
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--hbar", hbar,
                       "--out", str(out), timeout=60)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["states"][0]["converged"]
        assert round(doc["states"][0]["time"] / doc["dt"]) == 1080

    def test_zero_operator_is_stationary_at_once(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"dense": [[0, 0], [0, 0]]}))
        out = tmp_path / "q.json"
        proc = run_cli("quantum", "--hamiltonian", str(h), "--out", str(out))
        assert (proc.returncode, proc.stderr) == (0, "")
        (state,) = json.loads(out.read_text())["states"]
        assert state["converged"] is True
        assert (state["time"], state["rayleigh"], state["residual"]) == (0.0, 0.0, 0.0)

    def test_empty_diagonal_exits_one_naming_the_file(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"diagonal": []}))
        proc = run_cli("quantum", "--hamiltonian", str(h))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {h}: diagonal: diagonal operator needs a nonempty 1-D entry vector\n"
        )

    def test_scale_past_the_float_range_exits_one_naming_the_scale(self, tmp_path):
        # every row sums to inf
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"dense": [[1e308, 1e308], [1e308, 1e308]]}))
        proc = run_cli("quantum", "--hamiltonian", str(h))
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: the operator's scale") and "inf" in line

    def test_unbounded_step_count_exits_one(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"diagonal": [1e308, -1e308]}))
        proc = run_cli("quantum", "--hamiltonian", str(h))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "t_max" in proc.stderr and "dt" in proc.stderr


def _two_agents(table, hbar=1.0):
    """Two binary energy agents; A holds table against b, B the identity."""
    return {
        "mode": "energy",
        "hbar": hbar,
        "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
        "agents": [
            {"name": "A", "acts_on": "a",
             "objective": {"pairwise": [{"with": "b", "table": table}]}},
            {"name": "B", "acts_on": "b",
             "objective": {"pairwise": [{"with": "a", "table": [[0, 1], [1, 0]]}]}},
        ],
    }


class TestOneErrorLine:
    """Every failure prints one error line and exits 1; no run prints a
    usage block or a numpy RuntimeWarning."""

    @pytest.mark.parametrize(
        "argv, message",
        [(["--alpha", "abc"], "error: argument --alpha: invalid float value: 'abc'\n"),
         ([], "error: the following arguments are required: --alpha\n")],
        ids=["alpha-not-a-number", "alpha-missing"],
    )
    def test_usage_error_exits_one(self, argv, message):
        proc = run_cli("solve", "--problem", PD, *argv)
        assert (proc.returncode, proc.stderr) == (1, message)

    @pytest.mark.parametrize(
        "argv, doc, code, message",
        [
            (["verify", "--problem", PD, "--profile"],
             {"profile": {"row": [1e308, 1e308], "col": [0.5, 0.5]}},
             1, "error: agent 'row': probabilities sum to inf, not 1\n"),
            (["solve", "--alpha", "2", "--problem"], _two_agents([[1e308, -1e308], [0, 0]]),
             1, "error: diverged at step 2: agent 'B': non-finite expected return at hbar=1.0; "
                "use a larger hbar\n"),
            (["solve", "--alpha", "2", "--problem"], _two_agents([[0, 1], [1, 0]], hbar=1e-320),
             0, ""),
            (["quantum", "--t-max", "1", "--hamiltonian"],
             {"grid": {"xmin": -1, "xmax": 1, "n": 3, "potential": [0, 1e308, -1e308]}},
             1, "error: derivative returned a non-finite value\n"),
        ],
        ids=["profile-sum-overflows", "returns-overflow", "tiny-hbar", "potential-overflows"],
    )
    def test_floating_point_warnings_are_not_printed(self, tmp_path, argv, doc, code, message):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        proc = run_cli(*argv, str(path), "--out", str(tmp_path / "out.json"))
        assert (proc.returncode, proc.stderr) == (code, message)

    def test_grid_spacing_past_the_float_range_exits_one_naming_it(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"grid": {"xmin": 0.0, "xmax": 1e-300, "n": 3,
                                          "potential": [0, 0, 0]}}))
        proc = run_cli("quantum", "--hamiltonian", str(h))
        assert proc.returncode == 1
        assert proc.stderr == (
            f"error: {h}: grid: spacing 5e-301 leaves h**2 or 1/h**2 past the float range\n"
        )

    @staticmethod
    def run_capped(tmp_path, doc, *argv):
        """coopt on doc, in a process whose address space is capped at
        2 GiB, so that an array past the cap is never given memory,
        whatever the machine has."""
        path = tmp_path / "input.json"
        path.write_text(json.dumps(doc))
        limited = ("import resource, sys; "
                   "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                   "from coopt.cli import main; sys.exit(main())")
        return subprocess.run(
            [sys.executable, "-c", limited, *argv, str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )

    @pytest.mark.parametrize(
        "argv, doc, shape",
        [
            # build_grid_hamiltonian's n x n matrix
            (["quantum", "--hamiltonian"],
             {"grid": {"xmin": -1, "xmax": 1, "n": 10**6, "potential": [0] * 10**6}},
             "(1000000, 1000000)"),
        ],
        ids=["grid"],
    )
    def test_an_allocation_that_is_refused_exits_one(self, tmp_path, argv, doc, shape):
        proc = self.run_capped(tmp_path, doc, *argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert shape in proc.stderr

    def test_a_wide_variable_beside_a_narrow_one_solves_within_the_cap(self, tmp_path):
        # The plan stores each table unpadded: two tables of 60,000 entries,
        # not two of 30,000**2.
        doc = {
            "mode": "energy",
            "variables": [{"name": "x", "cardinality": 30000},
                          {"name": "y", "cardinality": 2}],
            "agents": [
                {"name": "A", "acts_on": "x", "objective": {"pairwise": [
                    {"with": "y", "table": [[0, 1]] * 30000}]}},
                {"name": "B", "acts_on": "y", "objective": {"pairwise": [
                    {"with": "x", "table": [[0] * 30000, [1] * 30000]}]}},
            ],
        }
        proc = self.run_capped(tmp_path, doc, "solve", "--alpha", "1", "--problem")
        assert (proc.returncode, proc.stderr) == (0, "")
        out = json.loads((tmp_path / "out").read_text())
        assert [len(dist) for dist in out["profile"].values()] == [30000, 2]

    @pytest.mark.parametrize(
        "argv, flag",
        [(["solve", "--problem", PD, "--alpha", "2"], "--out"),
         (["sweep", "--problem", PD, "--alpha-grid", "0.5:2:log:2"], "--out"),
         (["quantum", "--hamiltonian", HARMONIC, "--dt", "0.0025"], "--trace")],
        ids=["solve-out", "sweep-out", "quantum-trace"],
    )
    def test_output_that_cannot_be_written_exits_one(self, tmp_path, capsys, argv, flag):
        from coopt.cli import main

        path = tmp_path / "missing" / "x"
        out = [] if flag == "--out" else ["--out", str(tmp_path / "q.json")]
        assert main([*argv, *out, flag, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"


def test_files_are_read_and_written_as_utf8(tmp_path):
    # -X warn_default_encoding warns at each open() that takes the locale's encoding
    out = {name: str(tmp_path / name) for name in ("s.json", "s.csv", "w.csv", "q.json", "q.csv")}
    for argv in (
        ["solve", "--problem", PD, "--alpha", "2", "--out", out["s.json"], "--trace", out["s.csv"]],
        ["sweep", "--problem", PD, "--alpha-grid", "0.5:2:log:2", "--out", out["w.csv"]],
        ["quantum", "--hamiltonian", HARMONIC, "--dt", "0.0025", "--out", out["q.json"],
         "--trace", out["q.csv"]],
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "coopt", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        assert proc.stderr == ""


class TestDeterminism:
    def test_solve_twice_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            proc = run_cli(
                "solve", "--problem", PD, "--alpha", "4", "--init", "random",
                "--seed", "77", "--out", str(path),
            )
            assert proc.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_consecutive_main_calls_match_fresh_runs(self, tmp_path):
        from coopt.cli import build_parser, main

        # The third call leaves --init and --seed at their defaults, which
        # the first call overrode: a parser reused across calls must not
        # carry them over.
        jobs = [
            ["solve", "--problem", PD, "--alpha", "4", "--init", "random", "--seed", "77"],
            ["sweep", "--problem", str(bundled_path("matching_pennies")),
             "--alpha-grid", "0.5:4:log:3", "--restarts", "2", "--seed", "5"],
            ["solve", "--problem", PD, "--alpha", "0.5", "--tol", "1e-6"],
        ]
        for k, argv in enumerate(jobs):
            code = main([*argv, "--out", str(tmp_path / f"in_process{k}")])
            assert run_cli(*argv, "--out", str(tmp_path / f"fresh{k}")).returncode == code
            assert (tmp_path / f"in_process{k}").read_bytes() == (
                tmp_path / f"fresh{k}"
            ).read_bytes()
        assert build_parser() is build_parser()
