"""perfbench/tracing.py installs on names coopt's callers look up; every
one of them must exist and be put back afterwards."""

import importlib.util
from pathlib import Path

import coopt.cli

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_restore_puts_every_name_back():
    tracing = load_tracing()
    namespaces = [
        coopt.cli, coopt.continuous, coopt.discrete, coopt.equilibrium, coopt.fileio,
        coopt.model, coopt.numerics, coopt.discrete.IterationTrace,
        coopt.numerics.DenseSymmetric, coopt.numerics.Diagonal,
    ]
    before = [dict(vars(ns)) for ns in namespaces]

    saved = tracing.install(tracing.Tracer(), coopt)
    try:
        assert saved
        for ns, attr, original in saved:
            assert any(ns is known for known in namespaces), (ns, attr)
            assert vars(ns)[attr] is not original, attr
    finally:
        tracing.restore(saved)

    for ns, names in zip(namespaces, before):
        after = vars(ns)
        assert after.keys() == names.keys(), ns
        assert all(after[name] is value for name, value in names.items()), ns
