"""Tier-1 contract with the benchmark's tracer: every seam it wraps exists.

``benchmarks/e2e/trace.py`` replaces a fixed list of public methods by
name.  A refactor that renames, moves or re-parents one of them is only
caught by the separate ``benchmarks/e2e/test_smoke.py`` CI step unless
this (milliseconds, no fleet) check runs with the unit tests.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import trace  # noqa: E402  (read-only: nothing there is edited)


def test_every_traced_seam_exists_and_uninstall_leaves_no_wrapper():
    assert trace.installed_wrappers() == []
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        assert tracer.missing == []
        assert len(trace.installed_wrappers()) == len(trace.SEAMS)
    finally:
        trace.uninstall(tracer)
    assert trace.installed_wrappers() == []


def test_a_delivery_event_reaches_the_schedule_at_seam_as_a_net_callable():
    # The tracer wraps only schedule_at and files a scheduled callable
    # under the layer of its defining module: an inlined
    # Simulator.schedule would hide every delivery event from it, and a
    # functools.partial as the delivery callable (``__module__`` is
    # functools) would file all delivery time under ``harness``.
    import random

    from repro.net.latency import ConstantLatency
    from repro.net.simulator import Simulator
    from repro.net.topology import full_mesh
    from repro.net.transport import Network

    scheduled = []
    sim = Simulator()
    schedule_at = sim.schedule_at

    def recording_schedule_at(when, callback):
        scheduled.append(callback)
        return schedule_at(when, callback)

    sim.schedule_at = recording_schedule_at
    net = Network(sim, full_mesh(3), ConstantLatency(0.05), random.Random(1))
    net.send("peer-000", ["peer-001", "peer-002"], b"x")
    assert len(scheduled) == 1  # one event for two equal-delay copies
    assert trace.layer_of(scheduled[0]) == "net"


def test_both_executor_names_trace_one_submit_body():
    # SynchronousCryptoExecutor inherits submit; it is listed in SEAMS
    # *before* the class it inherits from, so install() wraps the plain
    # function on each name (no double span) and uninstall() restores it.
    from repro.exec.executor import (
        SimulatedCryptoExecutor,
        SynchronousCryptoExecutor,
    )

    names = [seam.cls for seam in trace.SEAMS if seam.layer == "exec"]
    assert names == ["SynchronousCryptoExecutor", "SimulatedCryptoExecutor"]
    original = SimulatedCryptoExecutor.submit
    tracer = trace.Tracer()
    trace.install(tracer)
    try:
        SynchronousCryptoExecutor().submit(lambda: None, lambda _: None)
        assert tracer.snapshot()["exec.submit"][1] == 1  # one span per submit
    finally:
        trace.uninstall(tracer)
    assert SynchronousCryptoExecutor.submit is original
    assert SimulatedCryptoExecutor.submit is original
