"""Every span and counter of the benchmark's tracer names a function that exists.

``perfbench/tracer.py`` patches ietkit functions by home module and attribute
path, and a traced benchmark run fails when one of them never fires.  This
checks the paths statically, so a rename or a deletion in ietkit shows up
here instead of as a failed traced run.  The tracer module is loaded from
its file and nothing in it is run.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()
ENTRIES = [("span", *entry) for entry in tracer.SPANS] + [("counter", *entry) for entry in tracer.COUNTERS]


@pytest.mark.parametrize(
    "kind, name, home, path, workloads", ENTRIES, ids=[f"{e[0]}-{e[1]}-{e[3]}" for e in ENTRIES]
)
def test_traced_path_exists_on_its_home_module(kind, name, home, path, workloads):
    module = importlib.import_module(home)
    head, _, method = path.partition(".")
    owner = vars(module).get(head)
    assert owner is not None, f"{kind} {name}: {home} has no {head!r}"
    if method:
        assert isinstance(owner, type), f"{kind} {name}: {home}.{head} is not a class"
        assert callable(vars(owner).get(method)), f"{kind} {name}: {home}.{head} defines no {method!r}"
    else:
        assert callable(owner) and not isinstance(owner, type), f"{kind} {name}: {home}.{head} is not a function"
