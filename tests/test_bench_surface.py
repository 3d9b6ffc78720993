"""The benchmark's view of the program stays resolvable.

``bench/`` times the layers from outside: its tracer shadows methods by
name on the objects the benchmark built (``bench/instrument.py``'s
``_CONTROLLER_SPANS`` for a controller, ``bench/wl_serve.py``'s
``instrument`` for the server, its admission controller and its
shards).  A method renamed or removed here ends every ``--trace 1`` run
with an ``AttributeError``; these tests find it first.
"""

from __future__ import annotations

import asyncio
import dataclasses
import sys
from pathlib import Path

import pytest

from repro.core.config import small_dtl_config
from repro.core.controller import DtlController
from repro.server.server import DtlServer, ServerConfig

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """``bench/``'s modules, imported the way ``bench/run.py`` does."""
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import instrument
        import spans
        import wl_serve
    finally:
        sys.path.remove(str(BENCH_DIR))
    return instrument, spans, wl_serve


@pytest.mark.parametrize("policies", [True, False], ids=["on", "off"])
def test_every_controller_span_resolves(bench, policies):
    instrument, spans, _ = bench
    config = small_dtl_config()
    if not policies:
        config = dataclasses.replace(config, enable_power_down=False,
                                     enable_self_refresh=False)
    controller = DtlController(config)
    for path, method, *_ in instrument._CONTROLLER_SPANS:
        target = instrument._resolve(controller, path)
        if target is None:  # a policy this controller runs without
            assert not policies, path
            continue
        assert callable(getattr(target, method, None)), (path, method)
    tracer = spans.Tracer()
    instrument.instrument_controller(tracer, controller)
    tracer.remove()


def test_what_the_serve_workloads_shadow_resolves(bench):
    _, spans, wl_serve = bench
    server = DtlServer(ServerConfig(num_shards=2, chaos=False, seed=0))
    loop = asyncio.new_event_loop()
    try:
        system = wl_serve.ServeSystem(server, loop, [], [])
        tracer = spans.Tracer()
        wl_serve.ServeClean(0).instrument(system, tracer)
        shadowed = {(type(obj).__name__, attr)
                    for obj, attr in tracer._installed}
        tracer.remove()
    finally:
        loop.close()
    admission = type(server.admission).__name__
    assert {("DtlServer", "handle_request"),
            (admission, "admit_request"), (admission, "admit_reservation"),
            (admission, "reserve"), (admission, "release"),
            ("ControllerShard", "apply_access_batch"),
            ("ControllerShard", "apply_allocate"),
            ("ControllerShard", "apply_free"),
            ("ControllerShard", "audit"),
            ("ControllerShard", "submit")} <= shadowed
    for shard in server.shards:
        assert shard.queue_depth == 0  # read by the shadowed ``submit``
