"""The benchmark's tracer still fits the library it wraps.

`perfbench/tracer.py` intercepts calls by rebinding names in the modules
that call them, so it depends on names that the engine itself may no
longer use.  Pruning one of them breaks `perfbench/run.py --trace 1`;
this test catches that without running the benchmark.
"""

import importlib
import importlib.util
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_binding():
    tracer_mod = _load_tracer()
    # the namespace perfbench/run.py::load_library builds
    lib = types.SimpleNamespace(
        **{m: importlib.import_module(f"toricperiod.{m}") for m in tracer_mod.MODULES}
    )
    tracer = tracer_mod.Tracer(lib)
    bound = [(owner, attr, owner.__dict__[attr])
             for owner, attr, *_ in tracer_mod.boundaries(lib)]

    with tracer.installed():
        report = lib.period.verify_image(lib.family.random_table(3, 2, seed=41))
        assert all(owner.__dict__[attr] is not original for owner, attr, original in bound)

    assert report.member
    assert all(owner.__dict__[attr] is original for owner, attr, original in bound)
    names = {span[2] for span in tracer.spans}
    assert {"period.verify_image", "groebner.MembershipSolver.membership"} <= names
    assert tracer.counters["memberships"] == 1
