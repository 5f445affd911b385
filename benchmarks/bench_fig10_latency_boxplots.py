"""Figure 10: latency boxplots for hr_sleep vs nanosleep at several
throughputs and two timeout grains (1 us and 10 us).

Thin wrapper over the campaign registry: the sweep grid and rendering
live in ``repro.campaign.registry``, shared with ``repro campaign run``.
"""

from bench_util import emit

from repro.campaign import render_figure, run_figure


def _run():
    return run_figure("fig10")


def test_fig10_latency_boxplots(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("fig10", render_figure("fig10", rows))
    by = {(svc, gbps, vbar): b for svc, gbps, vbar, b in rows}
    for gbps in (1.0, 5.0, 10.0):
        # at the 1us grain nanosleep's ~58us overhead dominates plainly
        hr = by[("hr_sleep", gbps, 1)]
        ns = by[("nanosleep", gbps, 1)]
        assert ns["median"] > hr["median"] + 10
        # at the 10us grain the ordering still holds (the gap narrows
        # where Metronome's own vacation already dominates)
        assert (by[("nanosleep", gbps, 10)]["median"]
                > by[("hr_sleep", gbps, 10)]["median"])
        # and nanosleep's spread (IQR) is consistently wider
        ns10 = by[("nanosleep", gbps, 10)]
        hr10 = by[("hr_sleep", gbps, 10)]
        assert ns10["q3"] - ns10["q1"] > hr10["q3"] - hr10["q1"]
    # hr_sleep resolves the two grains distinctly at high rate ...
    assert (by[("hr_sleep", 10.0, 10)]["median"]
            > by[("hr_sleep", 10.0, 1)]["median"])
    # ... while nanosleep cannot tell 1 us from 10 us apart (its
    # overhead swamps the target): medians within a few us
    diff = abs(by[("nanosleep", 10.0, 10)]["median"]
               - by[("nanosleep", 10.0, 1)]["median"])
    assert diff < 15
