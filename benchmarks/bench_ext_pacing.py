"""Extension (§2): sleep-based traffic shaping — the precision of
hr_sleep() projected onto a Carousel-style pacer.

Thin wrapper over the campaign registry: the sweep grid and rendering
live in ``repro.campaign.registry``, shared with ``repro campaign run``.
"""

from bench_util import emit

from repro.campaign import render_figure, run_figure


def _run():
    return run_figure("pacing")


def test_ext_pacing(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("pacing", render_figure("pacing", rows))
    by = {(s, k): (err, jit, comp) for s, k, err, jit, comp in rows}
    # both services hit the mean rate (absolute deadlines guarantee it)
    for service in ("hr_sleep", "nanosleep"):
        for kpps in (1, 10, 50, 100):
            assert by[(service, kpps)][0] < 0.05
    # but only hr_sleep actually *paces* at fine gaps
    for kpps in (50, 100):
        assert by[("hr_sleep", kpps)][2] > 0.9
        assert by[("nanosleep", kpps)][2] < 0.5
    # nanosleep shapes fine at coarse gaps (1ms ≫ its 58us floor)
    assert by[("nanosleep", 1)][2] > 0.9
    # jitter ordering everywhere
    for kpps in (10, 50, 100):
        assert by[("hr_sleep", kpps)][1] < by[("nanosleep", kpps)][1]
