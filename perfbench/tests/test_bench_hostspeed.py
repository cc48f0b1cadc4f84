"""Operation times are scaled by the probes around them."""

from perfbench import hostspeed


def _clock(monkeypatch, probes, half_window):
    feed = iter(probes)
    monkeypatch.setattr(hostspeed, "probe", lambda: next(feed))
    return hostspeed.ScaledClock(every_ns=10**15, half_window=half_window)  # probe on flush


def test_operations_scale_by_the_probes_around_them(monkeypatch):
    clock = _clock(monkeypatch, [1_000_000, 3_000_000, 2_000_000], half_window=1)
    clock.add(100)
    clock.add(300)
    clock.flush()  # probes of 1 ms and 3 ms around them: the host ran at half speed
    clock.add(50)
    clock.flush()  # probes of 3 ms and 2 ms
    assert clock.raw == [100, 300, 50]
    assert clock.scaled == [50, 150, 20]
    assert clock.speed == 0.5


def test_one_jittery_probe_does_not_move_the_scale(monkeypatch):
    probes = [1_000_000] * 4 + [9_000_000] + [1_000_000] * 4
    clock = _clock(monkeypatch, probes, half_window=4)
    for _ in range(len(probes) - 1):
        clock.add(100)
        clock.flush()
    assert clock.scaled == [100] * (len(probes) - 1)


def test_probe_times_real_work():
    assert hostspeed.probe() > 0
