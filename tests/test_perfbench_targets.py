"""The benchmark tracer wraps public functions by name.

``perfbench/spans.py`` lists ``(module, function)`` pairs in ``TARGETS``,
and ``Tracer.install`` looks each one up with ``getattr`` on
``henon_morse.<module>``.  A renamed or deleted function would make
``perfbench/run.py --trace 1`` crash, so every target must stay a callable
of its module.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_of_its_module():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for mod_name, func_name, _ in targets:
        module = importlib.import_module(f"henon_morse.{mod_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(f"{mod_name}.{func_name}")
    assert missing == []
