"""Self-test of the benchmark's core-speed probe: the rescaling arithmetic,
and that the probe leaves the SIGALRM handler and timer as it found them.

    python3 perfbench/test_perfbench_speed.py
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import pytest

import speed
from speed import REF_KERNEL_S, SpeedProbe


def synthetic_probe(kernel_times):
    """Probes at t = 1, 2, ... taking 0.1 s each, with the given kernel times."""
    probe = SpeedProbe()
    probe.starts = [float(i + 1) for i in range(len(kernel_times))]
    probe.durations = [0.1] * len(kernel_times)
    probe.kernel_times = list(kernel_times)
    return probe


def test_uniform_slowdown_halves_the_busy_time():
    probe = synthetic_probe([2 * REF_KERNEL_S] * 2)
    # 3 s of wall minus 0.2 s of probes, at half the reference speed
    assert probe.rescale(0.0, 3.0) == pytest.approx(1.4)


def test_each_stretch_takes_the_speed_of_the_probe_that_closes_it(monkeypatch):
    monkeypatch.setattr(speed, "SMOOTH", 0)
    probe = synthetic_probe([REF_KERNEL_S, 3 * REF_KERNEL_S])
    # [0, 1] at full speed; [1.1, 2] and the tail [2.1, 3] at a third
    assert probe.rescale(0.0, 3.0) == pytest.approx(1.0 + 0.9 / 3 + 0.9 / 3)
    # an interval with no probe inside takes the next probe's speed
    assert probe.rescale(0.2, 0.8) == pytest.approx(0.6)
    assert probe.rescale(2.5, 2.9) == pytest.approx(0.4 / 3)


def test_probe_samples_and_restores_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.starts) >= 5
    assert all(k < d for k, d in zip(probe.kernel_times, probe.durations))
    assert sum(probe.durations) < t1 - t0
    assert probe.rescale(t0, t1) > 0


def test_an_interval_shorter_than_the_timer_uses_the_entry_probe():
    with SpeedProbe(interval=10.0) as probe:
        t0 = time.perf_counter()
        t1 = time.perf_counter()
    assert len(probe.starts) == 1 and probe.starts[0] < t0
    assert probe.rescale(t0, t1) == pytest.approx((t1 - t0) * REF_KERNEL_S / probe.kernel_times[0])


def test_kernel_is_fixed_work():
    assert speed.kernel() == speed.kernel()


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
