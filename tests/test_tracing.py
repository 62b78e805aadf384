"""The benchmark's tracer (``bench/tracing.py``) against this package.

The tracer wraps names of ``frontdoor`` that the package itself may no
longer call, some of them stubs kept only for it.  Deleting one breaks a
traced benchmark run and nothing else, so this test installs the tracer
on the imported modules and removes it again.
"""

import gc
import importlib.util
import types
from pathlib import Path

from frontdoor import cli, graph, listing, search, textformat

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_name():
    prog = types.SimpleNamespace(graph=graph, search=search, listing=listing,
                                 textformat=textformat, cli=cli)
    owners = [graph.ADMG, search.BlockingSearch, graph, search, listing, textformat, cli]
    before = [dict(vars(owner)) for owner in owners]
    tracer = _load_tracing().Tracer(prog)
    try:
        tracer.install()
        patched = list(tracer._patched)
        assert all(getattr(owner, attr) is not orig for owner, attr, orig in patched)
    finally:
        if tracer._on_gc in gc.callbacks:
            tracer.remove()
        else:  # install stopped part way: put back what it had wrapped
            for owner, attr, orig in reversed(tracer._patched):
                setattr(owner, attr, orig)
    assert patched
    assert all(any(owner is o for o in owners) for owner, _, _ in patched)
    assert [dict(vars(owner)) for owner in owners] == before
    assert tracer._on_gc not in gc.callbacks
