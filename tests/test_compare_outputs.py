"""scripts/compare_outputs.py, the output-identity check between two trees."""

import importlib.util
import json
import shutil
from pathlib import Path

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
    assert [job[0] for job in jobs] == ["quantum", "quantum", "quantum"]
    assert [job[job.index("--hbar") + 1] for job in jobs if "--hbar" in job] == ["0.37"]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    written = sorted(p.name for p in (tmp_path / "same" / "new").iterdir())
    assert written == ["oscillator.hbar0.37.json", "oscillator.hbar0.37.json.stderr",
                       "oscillator.json", "oscillator.json.stderr",
                       "oscillator.states3.json", "oscillator.states3.json.stderr",
                       "oscillator.trace.csv"]

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
    names = ["length", "missing-agent", "negative", "no-profile", "non-finite", "not-list",
             "not-numbers", "not-object", "numeric-strings", "sum-off", "sum-rounding-accepted",
             "sum-rounding-refused", "two-dimensional"]
    assert written == sorted(
        [f"bad-profile.{name}.json.stderr" for name in names]
        + ["bad-profile.sum-rounding-accepted.json"]
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
    names = ["dense-asymmetric", "dense-null", "dense-numeric-strings", "diagonal-not-numbers",
             "no-key", "potential-2d", "two-keys", "unknown-key"]
    assert written == [f"bad-hamiltonian.{name}.json.stderr" for name in names]
    refusals = [(new / name).read_text() for name in written]
    assert all(m.startswith("error: ") and m.count("\n") == 1 for m in refusals)

    # A tree whose number reader converts with dtype=float, which parses
    # strings that spell numbers and reads null as NaN.
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
        "bad-hamiltonian.dense-null.json.stderr",
        "bad-hamiltonian.dense-numeric-strings.json",
        "bad-hamiltonian.dense-numeric-strings.json.stderr",
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

    assert script.largest_difference(old / "rounded.json", new / "rounded.json") == 2.0**-52
    described = {name: script.describe(name, old, new) for name in [*files, "gone.json"]}
    assert described == {
        "rounded.json": "rounded.json (largest absolute difference 2.22e-16)",
        "rounded.csv": "rounded.csv (largest absolute difference 1e-07)",
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

    # A tree whose renormalized amplitudes move by one ulp after each step.
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    continuous = tree / "src" / "coopt" / "continuous.py"
    source = continuous.read_text()
    assert source.count("        amplitudes = stepped\n") == 1
    continuous.write_text(source.replace(
        "        amplitudes = stepped\n", "        amplitudes = np.nextafter(stepped, 2.0)\n"
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
