"""Every name the benchmark's tracer patches is still defined where it looks.

``perfbench/spans.py`` traces a layer by replacing a function at each of its
import sites, looked up by name in the owner's ``__dict__``.  A rename or a
dropped import in the package would make ``run.py --trace 1`` fail, so the
site lists are checked here without running the benchmark.
"""

import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# executed from source, so no bytecode cache is written next to it
_spans = {"__name__": "perfbench_spans"}
exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), _spans)
SITES = [(m, c, a) for m, c, a, _ in _spans["SITES"] + _spans["COUNTERS"]]


@pytest.mark.parametrize("module,cls,attr", SITES, ids=[".".join(filter(None, s)) for s in SITES])
def test_site_is_bound_in_its_owner(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = owner.__dict__[cls]
    assert attr in owner.__dict__
