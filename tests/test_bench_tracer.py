"""The benchmark's tracer rebinds cca functions by name; it must still find
every one of them."""

import importlib.util
from operator import attrgetter
from pathlib import Path

import cca

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_undoes_on_cca():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def traced():
        return [attrgetter(attr)(getattr(cca, module))
                for module, attr, _ in tracing.SPANS]

    before = traced()
    patches = tracing.Tracer().install(cca)
    assert all(a is not b for a, b in zip(traced(), before))
    patches.undo()
    assert all(a is b for a, b in zip(traced(), before))
