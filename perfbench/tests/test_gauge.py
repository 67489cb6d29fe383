"""Tests for the host gauge that scales the benchmark's times.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import signal
import time

import pytest

import bench

REF = bench.HostGauge.REFERENCE_S


def fake_host(monkeypatch, readings):
    """A gauge whose readings are `readings` in turn, each taking 0.5 s of a
    fake clock."""
    clock = [0.0]
    host = bench.HostGauge()
    values = iter(readings)

    def read():
        if host.busy:
            return
        host.readings.append(next(values))
        host.spent += 0.5
        clock[0] += 0.5

    monkeypatch.setattr(bench, "CLOCK", lambda: clock[0])
    monkeypatch.setattr(host, "read", read)
    monkeypatch.setattr(bench, "HOST", host)
    return host, clock


def test_timed_scales_by_mean_speed_and_drops_reading_time(monkeypatch):
    host, clock = fake_host(monkeypatch, [2 * REF, 4 * REF, 2 * REF])
    sink = []
    with bench.timed(sink):
        clock[0] += 1.0
        host.read()                      # a timer reading inside the body
        clock[0] += 1.0
    # 2 s of work at speeds 1/2, 1/4 and 1/2 of the reference host
    assert sink == [pytest.approx(2.0 * (0.5 + 0.25 + 0.5) / 3)]


def test_unsampled_body_holds_the_timer_and_restores_it(monkeypatch):
    host, clock = fake_host(monkeypatch, [REF, REF, REF, REF])
    sink = []
    with bench.timed(sink):
        with bench.timed(sink, sampled=False):
            assert host.hold
            clock[0] += 0.25
        assert not host.hold
    assert not host.hold
    assert sink[0] == pytest.approx(0.25)
    assert sink[1] == pytest.approx(0.25)   # the inner readings' time is dropped


def test_sampling_reads_periodically_and_disarms():
    host = bench.HostGauge()
    before = signal.getsignal(signal.SIGALRM)
    with host.sampling():
        time.sleep(4 * host.PERIOD_S)
    assert len(host.readings) >= 2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert all(0 < r < 1 for r in host.readings)
