"""The benchmark's per-layer spans (`perfbench/spans.py`) wrap named
targets in hallalg.  A target that is renamed or removed is reported as
absent, and its span's keys drop out of a traced run, so every target must
resolve.  spans.py is only read here, never changed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("modname, path",
                         [(s[1], s[2]) for s in spans.SPANS],
                         ids=[s[0] for s in spans.SPANS])
def test_span_target_resolves(modname, path):
    target = importlib.import_module(modname)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target), f"{modname}.{path}"


def test_installing_the_spans_finds_every_target():
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == {}
