"""Tests for the simulated clock and counters."""

import pytest

from repro import events
from repro.clock import SimClock, NS_PER_MS, NS_PER_US
from repro.machine import Machine


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(100)
        clock.advance(250)
        assert clock.now_ns == 350

    def test_advance_rounds_fractional_ns(self):
        clock = SimClock()
        clock.advance(0.6)
        assert clock.now_ns == 1

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1)

    def test_unit_conversions(self):
        clock = SimClock()
        clock.advance(2_500_000)
        assert clock.now_us == 2_500_000 / NS_PER_US
        assert clock.now_ms == 2_500_000 / NS_PER_MS
        assert clock.now_s == 0.0025

    def test_buckets_attribute_time(self):
        clock = SimClock()
        clock.advance(100, "fork")
        clock.advance(50, "fork")
        clock.advance(10, "io")
        assert clock.bucket_ns("fork") == 150
        assert clock.bucket_ns("io") == 10
        assert clock.bucket_ns("missing") == 0

    def test_advance_to_only_moves_forward(self):
        clock = SimClock()
        clock.advance_to(500)
        assert clock.now_ns == 500
        clock.advance_to(100)
        assert clock.now_ns == 500

    def test_measure_context_manager(self):
        clock = SimClock()
        with clock.measure() as watch:
            clock.advance(1234)
        assert watch.elapsed_ns == 1234
        clock.advance(100)
        assert watch.elapsed_ns == 1234  # stopped

    def test_stopwatch_nested_intervals(self):
        clock = SimClock()
        with clock.measure() as outer:
            clock.advance(10)
            with clock.measure() as inner:
                clock.advance(5)
        assert inner.elapsed_ns == 5
        assert outer.elapsed_ns == 15

    def test_stopwatch_reads_while_running(self):
        clock = SimClock()
        with clock.measure() as watch:
            clock.advance(7)
            assert watch.elapsed_ns == 7

    def test_stopwatch_unit_properties(self):
        clock = SimClock()
        with clock.measure() as watch:
            clock.advance(3_000_000)
        assert watch.elapsed_us == 3000.0
        assert watch.elapsed_ms == 3.0


class TestEventCounters:
    """``machine.counters`` is a read view of what ``Machine.emit``
    counted."""

    def test_add_and_get(self):
        machine = Machine()
        machine.emit(events.PAGE_FAULT["write"])
        machine.emit(events.PAGE_FAULT["write"], 2)
        assert machine.counters.get("fault_write") == 3

    def test_missing_is_zero(self):
        counters = Machine().counters
        assert counters.get("nothing") == 0
        assert counters.get("fork") == 0  # declared, never emitted

    def test_snapshot_is_a_copy(self):
        machine = Machine()
        machine.emit(events.FORK)
        snap = machine.counters.snapshot()
        machine.emit(events.FORK)
        assert snap == {"fork": 1}

    def test_reset(self):
        machine = Machine()
        machine.emit(events.FORK, amount=5)
        machine.counters.reset()
        assert machine.counters.get("fork") == 0
        assert machine.counters.snapshot() == {}
        machine.emit(events.FORK)
        assert machine.counters.snapshot() == {"fork": 1}

    def test_zero_amount_emit_creates_the_key(self):
        # kernel_state_digest, the farm fingerprints and Session.report()
        # hash the snapshot, so a counter emitted with 0 must appear
        machine = Machine()
        machine.obs.enable()
        machine.emit(events.ALLOCATOR_TOUCH_PAGES, 0)
        assert machine.counters.snapshot() == {"allocator_touch_pages": 0}
        assert machine.obs.registry.counters() == {
            "baselines.monolithic.allocator_touch_pages": 0}

    def test_snapshot_keeps_first_emit_order(self):
        machine = Machine()
        # declared last, emitted first; two events share "fork"
        for entry in (events.TLB_SHOOTDOWN_IPIS, events.VMCLONE_FORK,
                      events.FRAMES_ALLOCATED, events.FORK,
                      events.TLB_SHOOTDOWN_IPIS):
            machine.emit(entry)
        assert list(machine.counters.snapshot().items()) == [
            ("tlb_shootdown_ipis", 2), ("fork", 2),
            ("frames_allocated", 1)]
