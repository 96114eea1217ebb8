"""scripts/compare_outputs.py, the output-identity check between two trees."""

import importlib.util
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
    # sweep CSV, two solves with their traces, nash and verify
    assert len(list((tmp_path / "new").iterdir())) == 7


def test_quantum_outputs_are_compared(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    jobs = script.quantum_jobs(inputs)
    assert [job[0] for job in jobs] == ["quantum", "quantum"]
    assert script.compare(ROOT, ROOT, jobs, tmp_path / "same") == []
    written = sorted(p.name for p in (tmp_path / "same" / "new").iterdir())
    assert written == ["oscillator.json", "oscillator.states3.json", "oscillator.trace.csv"]

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
    assert script.compare(ROOT, tree, jobs, tmp_path / "moved") == written


def test_differing_and_missing_files_are_listed(tmp_path):
    script = load_script()
    old, new = tmp_path / "old", tmp_path / "new"
    for directory, text in ((old, "1.0\n"), (new, "1.0000000000000002\n")):
        directory.mkdir()
        (directory / "same.csv").write_text("step\n")
        (directory / "moved.json").write_text(text)
    (old / "gone.json").write_text("{}\n")
    assert script.differences(old, new) == ["gone.json", "moved.json"]


def test_trajectory_digests_catch_a_last_bit_change(tmp_path):
    script = load_script()
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    trajectories = script.trajectory_jobs(inputs)
    assert script.compare(ROOT, ROOT, [], tmp_path / "same", trajectories) == []
    digests = sorted((tmp_path / "same" / "new").iterdir())
    assert [p.name for p in digests] == ["pairwise_chain.coupled.sha256", "ring1.coupled.sha256"]
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
    assert found == ["pairwise_chain.coupled.sha256", "ring1.coupled.sha256"]


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
