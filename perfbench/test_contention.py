"""Tests of the load-corrected clock.

    python3 -m pytest -q perfbench/test_contention.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import contention  # noqa: E402


def test_corrected_scales_to_the_reference_time():
    assert contention.corrected(3.0, 2 * contention.REFERENCE_S) == 1.5
    assert contention.corrected(3.0, contention.REFERENCE_S / 2) == 6.0


def test_sampler_samples_and_takes_its_own_time_out():
    sampler = contention.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        wall, reference_s = sampler.window(mark)
    finally:
        sampler.stop()
    taken = len(sampler.durations)
    assert taken >= 10
    assert reference_s > 0
    # the busy loop ran 0.3 s in all; the handler's time is not in wall
    assert 0 < sampler.spent < 0.3
    assert abs(wall + sampler.spent - 0.3) < 0.05
