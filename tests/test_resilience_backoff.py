"""Seeded-jitter exponential backoff of crashed service jobs.

A job that crashes waits ``2 * 2^(attempt-1)`` ticks, capped at 64,
scaled by a jitter factor in ``[0.75, 1.25]`` drawn from
``SeedSequence([0, job_id, attempt])`` — deterministic, so a replayed
journal waits the identical ticks.
"""

import pytest

from repro.service.manager import _crash_backoff

#: ``_crash_backoff(attempt, job_id)`` for attempts 1..7 of jobs 0..3,
#: recorded from the schedule the service has always used.
PINNED = {
    0: [1.9492388188116676, 4.24508588166057, 9.058018751186387,
        19.936864234971114, 39.371693580837075, 69.2016043405956,
        52.14773517098801],
    1: [2.3486500432887727, 4.763407076967465, 9.561784360671922,
        13.798373099778706, 30.128134905648967, 54.3484329311793,
        63.024305758648794],
    2: [2.018993270575913, 3.1035881131714564, 8.110860451349126,
        18.203776202115602, 36.717402828837486, 50.44298290869345,
        71.4073921516354],
    3: [1.5326659264785323, 4.862809922795306, 6.118060654690607,
        15.458488585085918, 29.736621883947066, 56.5427117579992,
        72.84200891098568],
}


class TestBackoffPolicy:
    def test_pinned_schedule(self):
        for job_id, delays in PINNED.items():
            assert [
                _crash_backoff(a, job_id) for a in range(1, 8)
            ] == delays

    def test_exponential_growth_and_cap(self):
        for attempt in range(1, 12):
            raw = min(64.0, 2.0 * 2.0 ** (attempt - 1))
            delay = _crash_backoff(attempt, 5)
            assert 0.75 * raw <= delay <= 1.25 * raw

    def test_jitter_is_deterministic_under_seed(self):
        delays = [_crash_backoff(a, 7) for a in (1, 2, 3)]
        assert delays == [_crash_backoff(a, 7) for a in (1, 2, 3)]

    def test_jitter_varies_with_seed_key_and_attempt(self):
        assert _crash_backoff(1, 1) != _crash_backoff(1, 2)
        # Same un-jittered delay (the cap), different draws.
        assert _crash_backoff(8, 1) != _crash_backoff(9, 1)

    def test_jitter_bounded(self):
        for job_id in range(20):
            delay = _crash_backoff(1, job_id)
            assert 1.5 <= delay <= 2.5

    def test_validation(self):
        with pytest.raises(ValueError):
            _crash_backoff(0, 1)
