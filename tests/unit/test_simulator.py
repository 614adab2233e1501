"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import NetworkError
from repro.net.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.run_until_idle()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_insertion_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(1.0, lambda: fired.append(2))
        sim.run_until_idle()
        assert fired == [1, 2]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run_until_idle()
        assert seen == [5.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(NetworkError):
            Simulator().schedule(-1, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        with pytest.raises(NetworkError):
            sim.schedule_at(0.5, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(NetworkError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule(1.0, lambda: fired.append(sim.now)))
        sim.run_until_idle()
        assert fired == [2.0]


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run_until_idle()
        assert fired == []
        assert handle.cancelled

    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


    def test_pending_events_is_a_live_count(self):
        # Maintained by schedule / cancel / step, not a walk of the queue:
        # it must agree with the walk at every point of an event's life.
        sim = Simulator()
        seen = []
        first = sim.schedule(1.0, lambda: seen.append(sim.pending_events))
        second = sim.schedule(2.0, lambda: None)
        third = sim.schedule(3.0, lambda: None)
        assert sim.pending_events == 3
        second.cancel()
        second.cancel()  # cancelling twice counts once
        assert sim.pending_events == 2
        assert sim.step()
        assert seen == [1]  # the running event is no longer pending
        first.cancel()  # cancelling after the fact changes nothing ...
        assert first.cancelled  # ... but is still recorded on the handle
        assert sim.pending_events == 1
        sim.run_until_idle()
        assert sim.pending_events == 0
        assert sim.processed_events == 2
        assert third.time == 3.0 and not third.cancelled

    def test_handle_is_read_only(self):
        handle = Simulator().schedule(1.0, lambda: None)
        with pytest.raises(AttributeError):
            handle.cancelled = True
        with pytest.raises(AttributeError):
            handle.time = 0.0

    def test_ties_never_compare_the_events(self):
        # Queue entries are (time, sequence, handle) with a unique
        # sequence, so ordering is decided before the handle is reached —
        # which defines no ordering at all.
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(50)]
        with pytest.raises(TypeError):
            handles[0] < handles[1]
        handles[7].cancel()
        sim.run_until_idle()
        assert fired == [i for i in range(50) if i != 7]


class TestRun:
    def test_run_stops_at_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(NetworkError):
            sim.run(until=1.0)

    def test_run_until_idle_bounded_by_max_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(100.0, lambda: fired.append(1))
        sim.run_until_idle(max_time=50.0)
        assert fired == []

    def test_runaway_guard(self):
        sim = Simulator()

        def loop():
            sim.schedule(0.001, loop)

        sim.schedule(0.0, loop)
        with pytest.raises(NetworkError):
            sim.run_until_idle(max_events=100)


class TestTicker:
    def test_fires_repeatedly(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_function(self):
        sim = Simulator()
        fired = []
        stop = sim.every(1.0, lambda: fired.append(sim.now))
        sim.run(until=2.5)
        stop()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0]

    def test_start_delay(self):
        sim = Simulator()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), start_delay=0.25)
        sim.run(until=2.5)
        assert fired == [0.25, 1.25, 2.25]

    def test_invalid_interval(self):
        with pytest.raises(NetworkError):
            Simulator().every(0, lambda: None)

    def test_nan_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(NetworkError):
            sim.every(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until_idle()
        assert sim.processed_events == 1

    def test_an_event_whose_callback_raises_is_still_counted(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("handler failed")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.step()
        assert sim.processed_events == 1 and sim.pending_events == 1
        sim.run_until_idle()
        assert sim.processed_events == 2 and sim.now == 2.0
