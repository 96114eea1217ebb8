import json
import subprocess
import sys

import pytest

from coopt import bundled_path, fileio
from coopt.continuous import RK4_MONOTONE_LIMIT, default_step
from coopt.numerics import jacobi_eigen

PD = str(bundled_path("prisoners_dilemma"))
HARMONIC = str(bundled_path("harmonic_oscillator"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "coopt", *args], capture_output=True, text=True
    )


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

    def test_trace_file(self, tmp_path):
        trace = tmp_path / "trace.csv"
        proc = run_cli("solve", "--problem", PD, "--alpha", "2", "--trace", str(trace),
                       "--out", str(tmp_path / "r.json"))
        assert proc.returncode == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "step,max_change"
        assert len(lines) > 1

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
        table = [[1.0, 2.0], [2.0, 1.0]]
        problem = tmp_path / "game.json"
        problem.write_text(json.dumps({
            "mode": "energy",
            "hbar": 0.001,
            "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
            "agents": [
                {"name": "A", "acts_on": "a",
                 "objective": {"pairwise": [{"with": "b", "table": table}]}},
                {"name": "B", "acts_on": "b",
                 "objective": {"pairwise": [{"with": "a", "table": table}]}},
            ],
        }))
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
        table = [[1.0, 2.0], [2.0, 1.0]]
        problem, profile = tmp_path / "game.json", tmp_path / "profile.json"
        problem.write_text(json.dumps({
            "mode": "energy",
            "hbar": 0.001,
            "variables": [{"name": "a", "cardinality": 2}, {"name": "b", "cardinality": 2}],
            "agents": [
                {"name": "A", "acts_on": "a",
                 "objective": {"pairwise": [{"with": "b", "table": table}]}},
                {"name": "B", "acts_on": "b",
                 "objective": {"pairwise": [{"with": "a", "table": table}]}},
            ],
        }))
        profile.write_text(json.dumps({"profile": {"A": [1.0, 0.0], "B": [0.0, 1.0]}}))
        proc = run_cli("verify", "--problem", str(problem), "--profile", str(profile))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "hbar=0.001" in proc.stderr
        proc = run_cli("verify", "--problem", str(problem), "--profile", str(profile),
                       "--hbar", "0.01")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["best_deviation"] == {"A": 1, "B": 0}


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
        dt = RK4_MONOTONE_LIMIT / operator.scale()
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--dt", repr(dt))
        assert proc.returncode == 1
        assert "monotone limit" in proc.stderr and "Traceback" not in proc.stderr

    def test_oversized_dt_exits_one(self):
        proc = run_cli("quantum", "--hamiltonian", HARMONIC, "--dt", "1.0")
        assert proc.returncode == 1
        assert "characteristic" in proc.stderr

    def test_unbounded_step_count_exits_one(self, tmp_path):
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"diagonal": [1e308, -1e308]}))
        proc = run_cli("quantum", "--hamiltonian", str(h))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "t_max" in proc.stderr and "dt" in proc.stderr


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
