"""scripts/compare_outputs.py, the output-identity check between two trees."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np

from coopt.fileio import load_problem

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_matches_itself_on_one_small_game(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.game_jobs(inputs, {"prisoners_dilemma": ("0.25:0.5:log:2", 0)}, seeds=(3,))
    assert script.compare(ROOT, ROOT, jobs, tmp_path) == []
    # sweep CSV, two solves with their traces, nash and verify, and the five
    # jobs' stderr
    written = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert len(written) == 12
    assert [name for name in written if name.endswith(".stderr")] == sorted(
        job[job.index("--out") + 1] + ".stderr" for job in jobs
    )


def test_quantum_outputs_are_compared(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.quantum_jobs(inputs)
    assert [job[0] for job in jobs] == ["quantum"] * 5
    assert [job[job.index("--hbar") + 1] for job in jobs if "--hbar" in job] == ["0.37"]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    written = sorted(p.name for p in (tmp_path / "same" / "new").iterdir())
    assert written == ["oscillator.dt-past-limit.json.stderr",
                       "oscillator.hbar0.37.json", "oscillator.hbar0.37.json.stderr",
                       "oscillator.json", "oscillator.json.stderr",
                       "oscillator.states3.json", "oscillator.states3.json.stderr",
                       "oscillator.trace.csv",
                       "shifted-diagonal.json", "shifted-diagonal.json.stderr"]
    refusal = (tmp_path / "same" / "new" / "oscillator.dt-past-limit.json.stderr").read_text()
    assert refusal.startswith("error: dt=1.0 is not below the RK4 monotone limit 1.5961 ")
    assert refusal.count("\n") == 1

    # A tree whose default step is one ulp shorter.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    continuous = tree / "src" / "coopt" / "continuous.py"
    source = continuous.read_text()
    line = "DEFAULT_STEP_TIMES = 0.99 * RK4_MONOTONE_LIMIT\n"
    assert source.count(line) == 1
    continuous.write_text(source.replace(
        line, "DEFAULT_STEP_TIMES = math.nextafter(0.99 * RK4_MONOTONE_LIMIT, 0.0)\n"
    ))
    # At hbar = 0.37 the shorter factor rounds to the same step.
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == [
        name for name in written if "hbar" not in name and not name.endswith(".stderr")
    ]

    # A tree whose refusal gives the limit to three places.
    tree = tmp_path / "reworded"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    continuous = tree / "src" / "coopt" / "continuous.py"
    source = continuous.read_text()
    assert source.count("{RK4_MONOTONE_LIMIT:.4f}") == 1
    continuous.write_text(source.replace("{RK4_MONOTONE_LIMIT:.4f}", "{RK4_MONOTONE_LIMIT:.3f}"))
    assert script.compare(ROOT, tree, jobs, tmp_path / "reworded-out") == [
        "oscillator.dt-past-limit.json.stderr"
    ]


def test_solves_that_stop_on_a_repeat_are_compared(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.cycle_jobs(inputs)
    assert script.run_tree(ROOT, jobs, tmp_path / "codes") == [2, 2]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    written = sorted(p.name for p in new.iterdir())
    assert written == ["coordination.cycle.json", "coordination.cycle.json.stderr",
                       "matching_pennies.cycle.csv", "matching_pennies.cycle.json",
                       "matching_pennies.cycle.json.stderr"]
    for name in ("coordination.cycle.json", "matching_pennies.cycle.json"):
        doc = json.loads((new / name).read_text())
        assert not doc["converged"] and doc["cycle_period"] >= 2
        assert doc["iterations"] < 10000

    # A tree that runs every repeat out to --max-iter.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    discrete = tree / "src" / "coopt" / "discrete.py"
    source = discrete.read_text()
    assert source.count("        if state == saved:\n") == 1
    discrete.write_text(source.replace("        if state == saved:\n", "        if False:\n"))
    found = script.compare(ROOT, tree, jobs, tmp_path / "moved")
    assert found == [name for name in written if not name.endswith(".stderr")]


def test_malformed_problems_are_refused_and_a_reworded_message_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.malformed_jobs(inputs)
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    messages = [p.read_text() for p in (tmp_path / "same" / "new").iterdir()]
    assert len(messages) == len(jobs)
    assert all(m.startswith("error: ") and m.count("\n") == 1 for m in messages)
    assert len(set(messages)) == len(jobs)  # each job words a different refusal

    # A tree whose duplicate-term message says "tables" for "terms".
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    model = tree / "src" / "coopt" / "model.py"
    source = model.read_text()
    assert source.count("listed twice in pairwise terms") == 1
    model.write_text(source.replace("listed twice in pairwise terms",
                                    "listed twice in pairwise tables"))
    found = script.compare(ROOT, tree, jobs, tmp_path / "moved")
    assert found == ["bad.pairwise-twice.json.stderr"]

    # A tree that reads true and false in lists as 1 and 0.
    tree = tmp_path / "bools"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    fileio = tree / "src" / "coopt" / "fileio.py"
    source = fileio.read_text()
    assert source.count("            _nulls_for_bools(data)\n") == 1
    fileio.write_text(source.replace("            _nulls_for_bools(data)\n", "            pass\n"))
    read = [job for job in jobs
            if job[-1] in ("bad.pairwise-bool.json", "bad.dense-values-bool.json")]
    assert script.compare(ROOT, tree, jobs, tmp_path / "bools-out") == [
        *(f"exit code 1 -> 0: coopt {' '.join(job)}" for job in read),
        "bad.dense-values-bool.json",
        "bad.dense-values-bool.json.stderr",
        "bad.pairwise-bool.json",
        "bad.pairwise-bool.json.stderr",
    ]


def test_runtime_refusals_are_compared_and_an_unnamed_agent_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.refusal_jobs(inputs)
    assert script.run_tree(ROOT, jobs, tmp_path / "codes") == [1, 1, 1]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    written = sorted(p.name for p in new.iterdir())
    assert written == ["refused.all-zero.json.stderr", "refused.hbar1e-320.json.stderr",
                       "refused.hbar1e-4.json.stderr"]
    for name, agent in zip(written, ("agent 'Col'", "agent 'A'", "agent 'A'")):
        message = (new / name).read_text()
        assert message.startswith("error: ") and message.count("\n") == 1 and agent in message

    # A tree whose all-zero refusal names the agent's row, not the agent.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    discrete = tree / "src" / "coopt" / "discrete.py"
    source = discrete.read_text()
    line = "            raise AllZeroReturnsError(e.index, model.agents[e.index].name) from None\n"
    assert source.count(line) == 1
    discrete.write_text(source.replace(line, "            raise\n"))
    found = script.compare(ROOT, tree, jobs, tmp_path / "moved")
    assert found == ["refused.all-zero.json.stderr"]


def test_overflowing_welfare_sweep_is_compared_and_an_infinite_welfare_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.overflow_sweep_jobs(inputs)
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    assert (new / "sweep.overflow.csv.stderr").read_text() == ""
    rows = [line.split(",") for line in (new / "sweep.overflow.csv").read_text().splitlines()]
    assert [row[5] for row in rows] == ["welfare", "", ""]

    # A tree whose utility cells write the plain mean, which overflows.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    equilibrium = tree / "src" / "coopt" / "equilibrium.py"
    source = equilibrium.read_text()
    call = "_mean_payoff(model, certificate.payoffs)"
    assert source.count(call) == 1
    equilibrium.write_text(source.replace(call, "float(np.mean(certificate.payoffs))"))
    found = script.compare(ROOT, tree, jobs, tmp_path / "moved")
    assert found == ["sweep.overflow.csv"]
    assert script.describe(found[0], tmp_path / "moved" / "old", tmp_path / "moved" / "new") == (
        "sweep.overflow.csv (structure differs)")


def test_malformed_profiles_are_refused_and_a_dropped_check_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.malformed_profile_jobs(inputs)
    assert [job[0] for job in jobs] == ["verify"] * len(jobs)
    codes = script.run_tree(ROOT, jobs, tmp_path / "codes")
    assert codes == [0 if "accepted" in job[-1] else 1 for job in jobs]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    written = sorted(p.name for p in new.iterdir())
    names = ["bools", "length", "missing-agent", "negative", "no-profile", "non-finite",
             "not-list", "not-numbers", "not-object", "numeric-strings", "sum-off",
             "sum-rounding-accepted", "sum-rounding-refused", "two-dimensional",
             "unread-bool-accepted"]
    assert written == sorted(
        [f"bad-profile.{name}.json.stderr" for name in names]
        + ["bad-profile.sum-rounding-accepted.json", "bad-profile.unread-bool-accepted.json"]
    )
    refusals = [(new / name).read_text() for name in written if "accepted" not in name]
    assert all(m.startswith("error: ") and m.count("\n") == 1 for m in refusals)
    assert len(set(refusals)) == len(refusals)  # each job words a different refusal

    def tree_with(name, old, replacement):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        model = tree / "src" / "coopt" / "model.py"
        source = model.read_text()
        assert source.count(old) == 1
        model.write_text(source.replace(old, replacement))
        return tree

    accepted = next(job for job in jobs if "accepted" in job[-1])
    refused = next(job for job in jobs if "refused" in job[-1])
    # Sums near the tolerance decided by the screen's row sums, not re-summed.
    tree = tree_with("no-resum", "        elif abs(float(dist.sum()) - 1.0) > PROBABILITY_TOL:\n",
                     "        else:\n")
    assert script.compare(ROOT, tree, jobs, tmp_path / "no-resum-out") == [
        f"exit code 0 -> 1: coopt {' '.join(accepted)}",
        "bad-profile.sum-rounding-accepted.json",
        "bad-profile.sum-rounding-accepted.json.stderr",
    ]
    # A screen without slack, which passes a row sum just inside the tolerance.
    tree = tree_with("no-slack", "    slack = 4e-16 * ", "    slack = 0 * ")
    assert script.compare(ROOT, tree, jobs, tmp_path / "no-slack-out") == [
        f"exit code 1 -> 0: coopt {' '.join(refused)}",
        "bad-profile.sum-rounding-refused.json",
        "bad-profile.sum-rounding-refused.json.stderr",
    ]


def test_malformed_hamiltonians_are_refused_and_a_reader_of_strings_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.malformed_hamiltonian_jobs(inputs)
    assert [job[0] for job in jobs] == ["quantum"] * len(jobs)
    assert script.run_tree(ROOT, jobs, tmp_path / "codes") == [1] * len(jobs)
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    written = sorted(p.name for p in new.iterdir())
    names = ["dense-asymmetric", "dense-bool", "dense-null", "dense-numeric-strings",
             "diagonal-bool", "diagonal-not-numbers", "no-key", "potential-2d", "potential-bool",
             "two-keys", "unknown-key"]
    assert written == [f"bad-hamiltonian.{name}.json.stderr" for name in names]
    refusals = [(new / name).read_text() for name in written]
    assert all(m.startswith("error: ") and m.count("\n") == 1 for m in refusals)

    # A tree whose number reader converts with dtype=float, which parses
    # strings that spell numbers and reads null, and so true and false, as NaN.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    fileio = tree / "src" / "coopt" / "fileio.py"
    source = fileio.read_text()
    line = "        arr = np.array(value)  # ValueError when ragged\n"
    assert source.count(line) == 1
    fileio.write_text(source.replace(line, "        arr = np.array(value, dtype=float)\n"))
    strings = next(job for job in jobs if "numeric-strings" in job[-1])
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == [
        f"exit code 1 -> 0: coopt {' '.join(strings)}",
        "bad-hamiltonian.dense-bool.json.stderr",
        "bad-hamiltonian.dense-null.json.stderr",
        "bad-hamiltonian.dense-numeric-strings.json",
        "bad-hamiltonian.dense-numeric-strings.json.stderr",
        "bad-hamiltonian.diagonal-bool.json.stderr",
        "bad-hamiltonian.potential-bool.json.stderr",
    ]


def test_mixed_ring_covers_grouped_edges_and_escaped_names(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.mixed_jobs(inputs)
    assert script.compare(ROOT, ROOT, jobs, tmp_path) == []
    problem = script.mixed_problem()
    assert sorted({v["cardinality"] for v in problem["variables"]}) == [2, 3, 5]
    assert {"dense", "pairwise"} == {k for a in problem["agents"] for k in a["objective"]}
    text = (tmp_path / "new" / "mixed.verify.json").read_text()
    for escaped in ('agent \\"0\\"', "agent \\\\1", "ag\\u00e9nt 2", "\\u30a8"):
        assert escaped in text


def test_dense_three_player_game_runs_the_plan_without_edges(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.dense_three_jobs(inputs)
    assert [job[0] for job in jobs] == ["solve", "sweep", "verify", "nash"]
    assert script.run_tree(ROOT, jobs, tmp_path / "codes") == [0, 0, 0, 0]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    written = sorted(p.name for p in new.iterdir())
    outputs = ["dense3.nash.json", "dense3.soft.csv", "dense3.soft.json", "dense3.sweep.csv",
               "dense3.verify.json"]
    assert written == sorted(
        outputs + [job[job.index("--out") + 1] + ".stderr" for job in jobs]
    )
    plan = load_problem(inputs / "dense3.json").plan
    # every table is over both other agents
    assert [(g.owner.tolist(), len(g.others)) for g in plan.groups] == [([i], 2) for i in range(3)]
    assert json.loads((new / "dense3.nash.json").read_text())["count"] == 2

    # A tree whose dense log returns move up by one ulp.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    model = tree / "src" / "coopt" / "model.py"
    source = model.read_text()
    line = "                result = log_sum_exp_first(group.log_tables + joint[:, :, np.newaxis])\n"
    assert source.count(line) == 1
    model.write_text(source.replace(
        line, line.replace("= log_sum_exp_first(", "= np.nextafter(log_sum_exp_first(")
        .replace("])\n", "]), np.inf)\n")
    ))
    # nash reads the plan's joint tables, not its log returns.
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == [
        name for name in outputs if "nash" not in name
    ]


def test_tables_added_out_of_term_order_are_compared(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.term_order_jobs(inputs)
    assert [job[0] for job in jobs] == ["solve", "sweep", "nash"]
    assert script.run_tree(ROOT, jobs, tmp_path / "codes") == [0, 0, 0]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    outputs = ["terms.nash.json", "terms.soft.csv", "terms.soft.json", "terms.sweep.csv"]
    assert sorted(p.name for p in new.iterdir()) == sorted(
        outputs + [job[job.index("--out") + 1] + ".stderr" for job in jobs]
    )
    model = load_problem(inputs / "terms.json")
    # agent 0's terms are with x1, x2 and x3; the plan adds x1, x3, then x2
    assert [(g.owner.tolist(), g.others[0].tolist()) for g in model.plan.groups] == [
        ([0, 0], [1, 3]), ([0, 2], [2, 0]), ([1, 3], [0, 0])
    ]
    assert json.loads((new / "terms.nash.json").read_text())["count"] == 1
    hits = {line.rsplit(",", 1)[1] for line in (new / "terms.sweep.csv").read_text().split()[1:]}
    assert hits == {"true", "false"}

    # A tree whose joint tables hold only the first table of each group.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    module = tree / "src" / "coopt" / "model.py"
    source = module.read_text()
    line = "enumerate(group.owner.tolist()) if owner == agent]:\n"
    assert source.count(line) == 1
    module.write_text(source.replace(line, line.replace("group.owner", "group.owner[:1]")))
    # solve reads the plan's log returns, not its joint tables
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == [
        "terms.nash.json", "terms.sweep.csv"
    ]


def test_digests_do_not_depend_on_the_cli_jobs_run_before_them(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.mixed_jobs(inputs) + script.term_order_jobs(inputs)
    trajectories, spectra = script.trajectory_jobs(inputs), script.spectrum_jobs(inputs)
    codes = script.run_tree(ROOT, jobs, tmp_path / "with", trajectories, spectra)
    assert len(codes) == len(jobs)
    assert script.run_tree(ROOT, [], tmp_path / "without", trajectories, spectra) == []
    digests = sorted(p.name for p in (tmp_path / "without").iterdir())
    assert len(digests) == len(trajectories) + len(spectra)
    for name in digests:
        assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()


def test_differing_and_missing_files_are_listed(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for directory, text in ((old, "1.0\n"), (new, "1.0000000000000002\n")):
        directory.mkdir()
        (directory / "same.csv").write_text("step\n")
        (directory / "moved.json").write_text(text)
    (old / "gone.json").write_text("{}\n")
    assert script.differences(old, new) == ["gone.json", "moved.json"]


def test_differing_files_are_described_by_their_largest_number_difference(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir()
    new.mkdir()
    files = {
        "rounded.json": ('{"a": [1.0, 2.5], "name": "x", "ok": true, "n": 3}',
                         '{"a": [1.0000000000000002, 2.5], "name": "x", "ok": true, "n": 3}'),
        "rounded.csv": ("t,agent,psi\n0.5,a,0.25\n", "t,agent,psi\n0.5,a,0.2500001\n"),
        # a large move beside a rounding-level one shows both
        "stepped.json": ('{"time": 9.397, "rayleigh": 0.5, "psi": [0.1, 0.2]}',
                         '{"time": 9.926, "rayleigh": 0.5000000000000364, "psi": [0.1, 0.2]}'),
        "stepped.csv": ("t,psi,r\n1,0.5,2\n2,0.5,3\n", "t,psi,r\n1.5,0.5,2\n2,0.5,3.25\n"),
        "equal.json": ('{"a": 1.0}', '{"a": 1.00}'),
        "headless.csv": ("t,psi\n", "t,r\n"),
        "ragged.csv": ("t,psi\n1\n", "t,psi\n2\n"),
        "renamed.json": ('{"a": 1.0}', '{"b": 1.0}'),
        "flipped.json": ('{"ok": true}', '{"ok": false}'),
        "longer.csv": ("t\n1\n", "t\n1\n2\n"),
        "relabelled.csv": ("t,agent\n1,a\n", "t,agent\n1,b\n"),
        "digest.sha256": ("aa\n", "ab\n"),
    }
    for name, (before, after) in files.items():
        (old / name).write_text(before)
        (new / name).write_text(after)
    (old / "gone.json").write_text("{}\n")

    assert script.largest_differences(old / "rounded.json", new / "rounded.json") == {
        "a": 2.0**-52, "name": 0.0, "ok": 0.0, "n": 0.0,
    }
    assert script.largest_differences(old / "stepped.csv", new / "stepped.csv") == {
        "t": 0.5, "psi": 0.0, "r": 0.25,
    }
    described = {name: script.describe(name, old, new) for name in [*files, "gone.json"]}
    assert described == {
        "rounded.json": "rounded.json (largest absolute difference by key: a 2.22e-16)",
        "rounded.csv": "rounded.csv (largest absolute difference by column: psi 1e-07)",
        "stepped.json": "stepped.json (largest absolute difference by key: time 0.529, "
                        "rayleigh 3.64e-14)",
        "stepped.csv": "stepped.csv (largest absolute difference by column: t 0.5, r 0.25)",
        "equal.json": "equal.json (largest absolute difference by key: none)",
        "headless.csv": "headless.csv (structure differs)",
        "ragged.csv": "ragged.csv (structure differs)",
        "renamed.json": "renamed.json (structure differs)",
        "flipped.json": "flipped.json (structure differs)",
        "longer.csv": "longer.csv (structure differs)",
        "relabelled.csv": "relabelled.csv (structure differs)",
        "digest.sha256": "digest.sha256",
        "gone.json": "gone.json",
    }


def test_trajectory_digests_catch_a_last_bit_change(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    trajectories = script.trajectory_jobs(inputs)
    assert script.compare(ROOT, ROOT, [], tmp_path / "same", trajectories) == []
    digests = sorted((tmp_path / "same" / "new").iterdir())
    assert [p.name for p in digests] == ["mixed.coupled.sha256",
                                         "pairwise_chain.coupled.sha256",
                                         "pairwise_chain.hbar0.37.coupled.sha256",
                                         "ring1.coupled.sha256"]
    assert all(len(p.read_text().strip()) == 64 for p in digests)

    # A tree whose renormalized amplitudes move by one ulp after each step:
    # each agent's row, once written in place, is moved.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    continuous = tree / "src" / "coopt" / "continuous.py"
    source = continuous.read_text()
    write = ("            psi[:] = _renormalized("
             "rk4_step(rates.__mul__, psi, step_size, k1=slope), step + 1)\n")
    assert source.count(write) == 1
    continuous.write_text(source.replace(
        write, write + "            psi[:] = np.nextafter(psi, 2.0)\n"
    ))
    found = script.compare(ROOT, tree, [], tmp_path / "moved", trajectories)
    assert found == [p.name for p in digests]


def test_eigenvalue_digest_catches_a_last_bit_change_but_not_moved_vectors(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    spectra = script.spectrum_jobs(inputs)
    assert script.compare(ROOT, ROOT, [], tmp_path / "same", [], spectra) == []
    (digest,) = (tmp_path / "same" / "new").iterdir()
    assert digest.name == "oscillator.eigenvalues.sha256"
    assert len(digest.read_text().strip()) == 64

    def tree_with(name, old, new):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        module = tree / "src" / "coopt" / "tridiagonal.py"
        source = module.read_text()
        assert source.count(old) == 1
        module.write_text(source.replace(old, new))
        return tree

    # Eigenvalues one ulp up.
    tree = tree_with("up", "    return values * scale, vt.T\n",
                     "    return np.nextafter(values * scale, np.inf), vt.T\n")
    assert script.compare(ROOT, tree, [], tmp_path / "moved", [], spectra) == [digest.name]
    # Inverse iteration one shift at a time: other start vectors, the same eigenvalues.
    tree = tree_with("blocks", "_INVERSE_BYTES = 8 << 20", "_INVERSE_BYTES = 1")
    assert script.compare(ROOT, tree, [], tmp_path / "blocks", [], spectra) == []


def test_seeded_hamiltonians_cover_the_diagonal_the_dense_product_and_the_reflectors(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs, spectra = script.seeded_hamiltonian_jobs(inputs)
    assert script.run_tree(ROOT, jobs, tmp_path / "codes", (), spectra) == [0, 0]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same", (), spectra) == []
    written = sorted(p.name for p in (tmp_path / "same" / "new").iterdir())
    assert written == sorted(
        f"seeded.{name}.{suffix}" for name in ("dense", "diagonal")
        for suffix in ("eigenvalues.sha256", "json", "json.stderr", "trace.csv")
    )
    dense = np.array(json.loads((inputs / "seeded.dense.json").read_text())["dense"])
    assert dense.shape == (12, 12) and dense.tobytes() == dense.T.tobytes()
    assert np.count_nonzero(np.triu(dense, 2)) > 0

    def tree_with(name, module, old, new):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        path = tree / "src" / "coopt" / module
        source = path.read_text()
        assert source.count(old) == 1
        path.write_text(source.replace(old, new))
        return tree

    # Each mutation moves one path by an ulp and shows in its own outputs only.
    mutations = {
        "dense-product": ("numerics.py", "            return self.matrix @ v\n",
                          "            return np.nextafter(self.matrix @ v, np.inf)\n",
                          ["seeded.dense.json", "seeded.dense.trace.csv"]),
        "diagonal-product": ("numerics.py", "        return self.entries * v\n",
                             "        return np.nextafter(self.entries * v, np.inf)\n",
                             ["seeded.diagonal.json", "seeded.diagonal.trace.csv"]),
        "diagonal-oracle": ("numerics.py", "operator.entries[order].copy()",
                            "np.nextafter(operator.entries[order], np.inf)",
                            ["seeded.diagonal.eigenvalues.sha256"]),
        "reflector": ("tridiagonal.py", "        x[0], x[1:] = beta, v[1:]\n",
                      "        x[0], x[1:] = math.nextafter(beta, math.inf), v[1:]\n",
                      ["seeded.dense.eigenvalues.sha256"]),
    }
    for name, (module, old, new, expected) in mutations.items():
        tree = tree_with(name, module, old, new)
        assert script.compare(ROOT, tree, jobs, tmp_path / f"{name}-out", (), spectra) == expected


def test_reversed_variables_game_is_compared_and_its_equilibrium_order_is_reported(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.reversed_game_jobs(inputs)
    assert [job[0] for job in jobs] == ["solve", "sweep", "nash"]
    assert script.run_tree(ROOT, jobs, tmp_path / "codes")[::2] == [0, 0]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    new = tmp_path / "same" / "new"
    problem = json.loads((inputs / "reversed.json").read_text())
    assert [v["name"] for v in problem["variables"]] == ["y", "x"]
    assert [a["acts_on"] for a in problem["agents"]] == ["x", "y"]
    nash = json.loads((new / "reversed.nash.json").read_text())
    assert nash["equilibria"] == [{"left": 0, "right": 1}, {"left": 1, "right": 0}]

    # A tree that lists the equilibria last to first.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    equilibrium = tree / "src" / "coopt" / "equilibrium.py"
    source = equilibrium.read_text()
    line = "    return [tuple(joint) for joint in np.argwhere(mask).tolist()]\n"
    assert source.count(line) == 1
    equilibrium.write_text(source.replace(
        line, "    return [tuple(joint) for joint in np.argwhere(mask).tolist()][::-1]\n"
    ))
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == ["reversed.nash.json"]
