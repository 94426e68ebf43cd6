"""The traced benchmark run wraps the public functions named in
``perfbench/spans.py``; each must exist where that file says."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("layer,owner,attr", _targets())
def test_trace_target_resolves(layer, owner, attr):
    mod_name, _, cls_name = owner.partition(":")
    holder = importlib.import_module(mod_name)
    if cls_name:
        # the recorder patches the class's own attribute, not an inherited one
        target = vars(getattr(holder, cls_name)).get(attr)
        target = getattr(target, "__func__", target)
    else:
        target = getattr(holder, attr, None)
    assert callable(target), f"{owner}.{attr} named by perfbench/spans.py is gone"
