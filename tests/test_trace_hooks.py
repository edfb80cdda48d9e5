"""The traced benchmark wraps program functions by name; every one it
names must still exist where it looks for it."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner,attr", [(o, a) for o, a, _ in tracing.WRAPPED], ids=lambda x: getattr(x, "__name__", x)
)
def test_wrapped_attribute_is_defined_on_its_owner(owner, attr):
    assert attr in vars(owner), f"{owner.__name__}.{attr} is gone"
    assert callable(vars(owner)[attr])


def test_cross_modal_forward_takes_frame_and_token_rows_first():
    # the traced run counts cross-modal rows from the first two arguments
    from vidtext.encoder import HierarchicalEncoder

    params = list(inspect.signature(HierarchicalEncoder.cross_modal_forward).parameters)
    assert params[1:3] == ["v_emb", "w_emb"]
