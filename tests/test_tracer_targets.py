"""The benchmark's tracer binds latrelay names by their dotted path; a
name it traces must stay where it looks for it, or the traced pass fails
before it measures anything."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("span, owner, attr",
                         [t[:3] for t in tracer.TARGETS],
                         ids=[f"{t[1]}.{t[2]}" for t in tracer.TARGETS])
def test_target_is_bound_on_its_owner(span, owner, attr):
    # The tracer wraps owner.__dict__[attr]: an inherited method or a
    # missing name would break its install, so the attribute must be the
    # owner's own.
    obj = tracer._resolve(owner)
    assert attr in vars(obj), f"{span}: {owner} has no own attribute {attr}"
