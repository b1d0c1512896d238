import os

from hcbench.cpu import REFERENCE_S, Pinner, at_reference_speed


def test_pin_fastest_pins_to_an_allowed_cpu_and_unpin_restores():
    pinner = Pinner()
    where, probe_s = pinner.pin_fastest()
    try:
        assert probe_s > 0
        if where is None:
            assert os.sched_getaffinity(0) == pinner.allowed
        else:
            assert where in pinner.allowed
            assert os.sched_getaffinity(0) == {where}
    finally:
        pinner.unpin()
    assert os.sched_getaffinity(0) == pinner.allowed


def test_at_reference_speed_scales_by_the_probe_ratio():
    assert at_reference_speed(2.0, REFERENCE_S) == 2.0
    assert at_reference_speed(2.0, 2 * REFERENCE_S) == 1.0
