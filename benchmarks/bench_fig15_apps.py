"""Figure 15: CPU usage of the IPsec security gateway and FloWatcher
under Metronome vs static DPDK across offered rates.

Thin wrapper over the campaign registry: the sweep grid and rendering
live in ``repro.campaign.registry``, shared with ``repro campaign run``.
"""

from bench_util import emit

from repro.campaign import render_figure, run_figure
from repro.harness import paper_data


def _run():
    return run_figure("fig15")


def test_fig15_apps(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("fig15", render_figure("fig15", rows))
    by = {(a, s, r): (cpu, thr) for a, s, r, cpu, thr in rows}
    # IPsec: Metronome matches the static gateway's max throughput
    met_max = by[("ipsec", "metronome", 5.61)][1]
    dpdk_max = by[("ipsec", "dpdk", 5.61)][1]
    assert abs(met_max - dpdk_max) / dpdk_max < 0.03
    assert abs(met_max - paper_data.IPSEC_MAX_MPPS) / paper_data.IPSEC_MAX_MPPS < 0.05
    # at the ceiling one thread polls continuously: CPU near/above 100%
    assert by[("ipsec", "metronome", 5.61)][0] > 0.9
    # at lower rates Metronome clearly beats static polling
    assert by[("ipsec", "metronome", 1.4)][0] < 0.6
    assert by[("ipsec", "dpdk", 1.4)][0] > 0.99
    # FloWatcher: line rate sustained with no loss and a large CPU gain
    met_line = by[("flowatcher", "metronome", 14.88)]
    assert met_line[1] > 14.7
    assert met_line[0] < 0.75  # paper: "50% gain even under line rate"
    assert by[("flowatcher", "metronome", 0.5)][0] < 0.3  # ~5x gain at 0.5Mpps
    for rate in (0.5, 5.0, 14.88):
        assert by[("flowatcher", "dpdk", rate)][0] > 0.99
