"""The benchmark's keep-list: every name ``bench/spans.py`` traces exists,
and every argument its counters read is a parameter of the function they
wrap.  A deleted or renamed name otherwise shows only as a traced
benchmark run that reads ``"correct": false``.  The file is read, never
written or imported as a package module; the tests skip without it."""

import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import fredholm  # noqa: F401  (loads every module the tracer patches)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    if not SPANS.is_file():
        pytest.skip("bench/spans.py is absent")
    module = types.ModuleType("bench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"),
         module.__dict__)
    return module


def test_tracer_installs_over_every_traced_name(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()  # a traced name that is gone raises AttributeError
    finally:
        tracer.uninstall()


def test_counters_read_parameters_of_the_traced_functions(spans):
    for span, targets in spans.TRACED.items():
        for module_name, attr, count in targets:
            if count is None:
                continue
            fn = getattr(importlib.import_module(module_name), attr)
            params = set(inspect.signature(fn).parameters)
            read = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(count)))
            assert read <= params, (
                f"{span}: {count.__name__} reads {sorted(read - params)}, "
                f"not parameters of {module_name}.{attr}{inspect.signature(fn)}")


# names bench/spans.py wraps that no run calls: each keeps its signature
# and only raises, until the benchmark drops its span
_STUBS = {
    ("fredholm.nonlinear", "linearized_source"):
        ("problem", "base", "prev_values"),
    ("fredholm.nonlinear", "solve_nonlinear"):
        ("problem", "base", "layers", "schedule", "keep_history"),
    ("fredholm.nonlinear", "evaluate_nonlinear"):
        ("problem", "base", "field", "points"),
    ("fredholm.operator", "estimate_derivative_bound"): ("op",),
}


@pytest.mark.parametrize("module_name, attr", sorted(_STUBS))
def test_each_stub_raises_while_the_bench_wraps_it(spans, module_name, attr):
    traced = {(m, a) for targets in spans.TRACED.values()
              for m, a, _ in targets}
    assert (module_name, attr) in traced, (
        f"bench/spans.py no longer wraps {module_name}.{attr}: delete the "
        f"stub and its _STUBS entry")
    fn = getattr(importlib.import_module(module_name), attr)
    params = inspect.signature(fn).parameters
    assert tuple(params) == _STUBS[module_name, attr]
    # a stub bound under a second name would be wrapped under both
    others = [f"{name}.{key}" for name, m in sys.modules.items()
              if name == "fredholm" or name.startswith("fredholm.")
              for key, value in vars(m).items()
              if value is fn and key != attr]
    assert not others, f"{attr} is also bound as {others}"
    args = [None for p in params.values() if p.default is p.empty]
    with pytest.raises(NotImplementedError, match="bench/spans.py"):
        fn(*args)
