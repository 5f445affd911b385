"""The shipped figure registrations.

Each entry is the one definition of its table — scenario parameters,
title/headers/note and paper columns.  ``repro run <name>``,
``repro campaign run`` and the ``benchmarks/bench_*.py`` scripts all
go through :func:`repro.campaign.run_figure` /
:func:`~repro.campaign.render_figure`, so the three print the same
bytes.

Only scenarios whose grid shards into JSON-friendly row records are
registered.  fig2, fig5, fig11, fig14 and the rotation, bidirectional
and SMT extensions return dataclass series or summaries (time series,
PDFs, per-thread shares) that do not survive the JSON boundary every
task record crosses; they keep hand-written renderers in
:mod:`repro.cli` and their benches.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaign.spec import FigureSpec
from repro.harness import paper_data


def _table1_rows(record: List) -> List:
    return [
        (s, t, mean, paper_data.TABLE1[(s, t)][0],
         p99, paper_data.TABLE1[(s, t)][1])
        for s, t, mean, p99 in record
    ]


def _table2_rows(record: List) -> List:
    out = []
    for vbar, v, b, nv, loss in record:
        pv, pb, pnv, ploss = paper_data.TABLE2[vbar]
        out.append((vbar, v, pv, b, pb, nv, pnv, loss, ploss))
    return out


def _table3_rows(record: List) -> List:
    return [
        (ring, vbar, ns_loss, paper_data.TABLE3[(ring, vbar)], hr_loss)
        for ring, vbar, ns_loss, hr_loss in record
    ]


def _fig9_rows(record: List) -> List:
    return [
        (rate, m, b["median"], b["q1"], b["q3"], b["p99"], b["std"])
        for rate, m, b in record
    ]


def _fig10_rows(record: List) -> List:
    return [
        (svc, gbps, vbar, b["median"], b["q1"], b["q3"], b["whisk_hi"])
        for svc, gbps, vbar, b in record
    ]


def _fig12_rows(record: List) -> List:
    out = []
    for system, gbps, lat, p99, cpu, loss in record:
        idx = {"metronome": 0, "dpdk": 1, "xdp": 2}[system]
        out.append((system, gbps, lat, p99, cpu,
                    paper_data.FIG12B_CPU[gbps][idx], loss))
    return out


def _figures() -> Dict[str, FigureSpec]:
    figures = [
        FigureSpec(
            name="table1",
            scenario="table1_sleep_precision",
            title="Table 1 — measured sleep period (us)",
            headers=("service", "target us", "mean", "paper mean",
                     "99p", "paper 99p"),
            axes=("services", "targets_us"),
            grid=(("nanosleep", "hr_sleep"), (1, 5, 10, 50, 100, 200)),
            duration_param="samples",
            duration_base=20_000,
            duration_floor=500,
            row_fn=_table1_rows,
            note="20000 samples per point (paper: 1M)",
        ),
        FigureSpec(
            name="table2",
            scenario="table2_vbar_sweep",
            title="Table 2 — V̄ sweep at line rate",
            headers=("target V us", "V us", "paper", "B us", "paper",
                     "N_V", "paper", "loss permille", "paper"),
            axes=("vbars_us",),
            grid=((5, 10, 12, 15, 20),),
            duration_base=120,
            row_fn=_table2_rows,
        ),
        FigureSpec(
            name="table3",
            scenario="table3_nanosleep_loss",
            title="Table 3 — nanosleep-in-Metronome loss at 10 Gbps (%)",
            headers=("ring", "V̄ us", "nanosleep loss %", "paper %",
                     "hr_sleep loss %"),
            axes=("cases",),
            grid=(((1024, 10), (2048, 10), (4096, 10), (4096, 1)),),
            duration_base=120,
            row_fn=_table3_rows,
            note="paper reports hr_sleep achieves no loss in all scenarios",
        ),
        FigureSpec(
            name="fig6",
            scenario="fig6_latency_cpu",
            title="Figure 6 — latency and CPU vs target V̄",
            headers=("gbps", "V̄ us", "mean latency us", "p99 us", "cpu"),
            axes=("rates_gbps", "vbars_us"),
            grid=((1.0, 5.0, 10.0), (5, 10, 15, 20)),
            duration_base=80,
        ),
        FigureSpec(
            name="fig7",
            scenario="fig7_tl_sweep",
            title="Figure 7 — busy tries and CPU vs T_L (line rate, V̄=10us)",
            headers=("T_L us", "busy-try fraction", "cpu"),
            axes=("tls_us",),
            grid=((100, 200, 300, 400, 500, 600, 700),),
            duration_base=80,
        ),
        FigureSpec(
            name="fig8",
            scenario="fig8_m_sweep",
            title="Figure 8 — busy tries and CPU vs M (line rate)",
            headers=("M", "busy-try fraction", "cpu"),
            axes=("m_values",),
            grid=((2, 3, 4, 5, 6, 7, 8),),
            duration_base=80,
        ),
        FigureSpec(
            name="fig9",
            scenario="fig9_latency_vs_m",
            title="Figure 9 — latency (us) vs M",
            headers=("rate Mpps", "M", "median", "q1", "q3", "p99", "std"),
            axes=("rates_mpps", "m_values"),
            grid=((14.0, 1.0), (2, 3, 5, 7)),
            duration_base=80,
            row_fn=_fig9_rows,
        ),
        FigureSpec(
            name="fig10",
            scenario="fig10_latency_boxplots",
            title="Figure 10 — latency boxplots (us): hr_sleep vs nanosleep",
            headers=("service", "gbps", "V̄ us", "median", "q1", "q3",
                     "whisker hi"),
            axes=("services", "rates_gbps", "vbars_us"),
            grid=(("hr_sleep", "nanosleep"), (1.0, 5.0, 10.0), (1, 10)),
            duration_base=80,
            row_fn=_fig10_rows,
            note="nanosleep runs use the 4096 ring as in the paper's footnote",
        ),
        FigureSpec(
            name="fig12",
            scenario="fig12_compare",
            title="Figure 12 — L3 forwarder: Metronome vs DPDK vs XDP",
            headers=("system", "gbps", "mean lat us", "p99 us", "cpu",
                     "paper cpu", "loss %"),
            axes=("rates_gbps",),
            grid=((0.5, 1.0, 5.0, 10.0),),
            duration_base=80,
            row_fn=_fig12_rows,
        ),
        FigureSpec(
            name="trace_phases",
            scenario="trace_phase_tracking",
            title="Trace replay — per-phase tracking: Metronome vs DPDK vs XDP",
            headers=("system", "phase", "dur ms", "offered Mpps", "loss %",
                     "mean us", "p99 us", "ts us @end"),
            axes=("systems",),
            grid=(("metronome", "dpdk", "xdp"),),
            duration_base=100,
            duration_floor=25,
            note="benign phased trace: HTTP peak -> DNS burst -> SSH -> "
                 "light UDP; ts = adaptive T_S at phase end",
        ),
        FigureSpec(
            name="trace_adversary",
            scenario="trace_adversary",
            title="T_S-aware adversary vs rate-matched naive flood",
            headers=("mode", "offered Mpps", "overlay Mpps", "loss %",
                     "mean us", "p99 us", "strikes"),
            axes=("modes",),
            grid=(("aware", "naive"),),
            duration_base=100,
            duration_floor=25,
            note="same average attack budget; 'aware' concentrates it in "
                 "slugs sized to the published T_S",
        ),
        FigureSpec(
            name="scale_queue_count",
            scenario="scale_queue_count",
            title="Scale-out — loss/latency/CPU vs queue count (100G, 64B)",
            headers=("queues", "threads", "loss %", "mean us", "p99 us",
                     "cpu", "ts us", "V̄ err %"),
            axes=("num_queues_values",),
            grid=((2, 4, 8, 16, 32, 64),),
            duration_base=24,
            duration_floor=6,
            note="aggregate 100G split across queues; threads = queues/2 "
                 "(floor 3, cap 48) on 2 NUMA nodes; V̄ err = measured "
                 "vacation vs eq.-7 target (-1 = no cycles)",
        ),
        FigureSpec(
            name="scale_thread_ratio",
            scenario="scale_thread_ratio",
            title="Scale-out — thread:queue ratio at 100G (16 queues)",
            headers=("ratio", "threads", "loss %", "mean us", "p99 us",
                     "cpu", "busy-try frac", "V̄ err %"),
            axes=("ratios",),
            grid=((0.5, 1.0, 2.0, 3.0),),
            duration_base=24,
            duration_floor=6,
            note="16 queues, 2 NUMA nodes; busy-try fraction is the §3.2 "
                 "trylock-diversity metric",
        ),
        FigureSpec(
            name="fig13",
            scenario="fig13_power_governors",
            title="Figure 13 — power (W) vs rate under both governors",
            headers=("governor", "system", "gbps", "watts", "cpu"),
            axes=("governors", "rates_gbps"),
            grid=(("performance", "ondemand"), (0.0, 0.5, 1.0, 5.0, 10.0)),
            duration_base=100,
        ),
        FigureSpec(
            name="fig15",
            scenario="fig15_apps",
            title="Figure 15 — IPsec gateway and FloWatcher CPU usage",
            headers=("app", "system", "rate Mpps", "cpu", "throughput Mpps"),
            axes=("apps",),
            grid=(("ipsec", "flowatcher"),),
            duration_base=80,
        ),
        FigureSpec(
            name="pacing",
            scenario="pacing_comparison",
            title="Extension — sleep-based pacing",
            headers=("service", "target kpps", "rate error", "jitter us",
                     "gap compliance"),
            axes=("services", "rates_kpps"),
            grid=(("hr_sleep", "nanosleep"), (1, 10, 50, 100)),
            duration_param="count",
            duration_base=300,
            duration_floor=50,
            note="compliance = fraction of inter-departure gaps within "
                 "±50% of the ideal interval (bursting scores low)",
        ),
    ]
    return {f.name: f for f in figures}


#: the shipped figure sweeps, by name (insertion order = run order)
FIGURES: Dict[str, FigureSpec] = _figures()


def get_figure(name: str) -> FigureSpec:
    if name not in FIGURES:
        known = ", ".join(FIGURES)
        raise KeyError(f"unknown campaign figure {name!r} (known: {known})")
    return FIGURES[name]
