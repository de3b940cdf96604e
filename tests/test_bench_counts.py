"""The benchmark's exact-count self-checks, run on every test pass.

``bench/run.py`` checks, under ``--trace 1`` only, that a twin ``Slit``
amplitude evaluates 6 * 48**2 kernel points and that a gated 33 x 33 twin
grid makes 1089 ``gate`` calls.  Running the same checks here keeps a
change to the quadrature or the gate from passing the tests and then
failing the traced benchmark.
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_traced_count_checks_hold():
    tf = run.load_package()
    modules = [tf] + [getattr(tf, layer) for layer in run.LAYERS]
    before = run._bindings(modules)
    checks = run.count_checks(types.SimpleNamespace(tf=tf), tracer.Tracer(modules))
    assert run._bindings(modules) == before
    assert checks == {name: None for name in checks}
    assert set(checks) == {"slit_kernel_points", "gated_grid_gate_calls"}
