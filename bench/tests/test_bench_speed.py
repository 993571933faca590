"""The core-speed reference that the end-to-end times are scaled by."""

import pytest

import run


def _speed(bursts):
    speed = run.CoreSpeed()
    speed._bursts = [(float(at), cpu) for at, cpu in bursts]
    return speed


def test_a_sample_is_scaled_by_the_bursts_during_it():
    # The core runs at half speed from t=10 to t=20: the burst takes 4 ms.
    speed = _speed((t, 0.004 if 10 <= t <= 20 else run.REF_NOMINAL_S)
                   for t in range(40))

    assert speed.burst_s(10.0, 20.0) == pytest.approx(0.004)
    assert speed.normalize(8.0, 10.0, 20.0) == pytest.approx(4.0)
    assert speed.normalize(8.0, 25.0, 39.0) == pytest.approx(8.0)


def test_a_short_sample_borrows_the_bursts_nearest_to_it():
    speed = _speed((t, 0.001 * (1 + t)) for t in range(40))

    # No burst falls inside; the nine nearest to t=20.3 are t=16..24.
    assert speed.burst_s(20.2, 20.4) == pytest.approx(0.021)


def test_the_burst_thread_samples_until_stopped():
    with run.CoreSpeed() as speed:
        assert len(speed._bursts) >= run.REF_MIN_BURSTS
    assert not speed._thread.is_alive()
    assert speed.median_ms() > 0.0
