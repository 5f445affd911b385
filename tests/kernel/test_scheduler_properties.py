"""Property-based scheduler tests: fairness and conservation under
randomized thread mixes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.nice import weight_for_nice
from repro.kernel.thread import Compute, Exit
from repro.sim.units import MS

from tests.conftest import make_machine


def hog_body(kt):
    while True:
        yield Compute(1 * MS)


@settings(max_examples=15, deadline=None)
@given(nices=st.lists(st.integers(min_value=-10, max_value=10),
                      min_size=2, max_size=5))
def test_property_cfs_shares_follow_weights(nices):
    """Long-run CPU shares of competing hogs track their CFS weights."""
    m = make_machine(num_cores=1, os_noise=False)
    threads = [
        m.spawn(hog_body, name=f"hog{i}", core=0, nice=n)
        for i, n in enumerate(nices)
    ]
    m.run(until=200 * MS)
    total_cpu = sum(t.cputime_ns for t in threads)
    total_weight = sum(weight_for_nice(n) for n in nices)
    assert total_cpu > 150 * MS   # the core was saturated
    for t, n in zip(threads, nices):
        expected = weight_for_nice(n) / total_weight
        actual = t.cputime_ns / total_cpu
        # within 12 points of the ideal share (tick granularity noise)
        assert abs(actual - expected) < 0.12, (
            f"nice={n}: share {actual:.3f} vs expected {expected:.3f}"
        )


@settings(max_examples=15, deadline=None)
@given(
    chunks=st.lists(st.integers(min_value=1_000, max_value=2_000_000),
                    min_size=1, max_size=20),
    nice=st.integers(min_value=-5, max_value=5),
    freq_pct=st.one_of(st.just(100), st.integers(min_value=10, max_value=99)),
)
def test_property_work_conservation_single_thread(chunks, nice, freq_pct):
    """A lone thread's cputime equals exactly the wall time its submitted
    work takes at the core's speed (the work itself at base frequency)."""
    m = make_machine(num_cores=1, os_noise=False)
    core = m.cores[0]
    core.freq = core.base_freq * freq_pct // 100

    def body(kt):
        for c in chunks:
            yield Compute(c)
        yield Exit()

    t = m.spawn(body, name="w", core=0, nice=nice)
    m.run()
    assert t.cputime_ns == sum(core.work_to_wall(c) for c in chunks)
    if freq_pct == 100:
        assert t.cputime_ns == sum(chunks)


@settings(max_examples=10, deadline=None)
@given(
    n_threads=st.integers(min_value=1, max_value=4),
    work_ms=st.integers(min_value=1, max_value=10),
)
def test_property_total_throughput_invariant(n_threads, work_ms):
    """However many threads compete, a saturated core completes work at
    exactly its capacity (no work is created or destroyed by
    scheduling)."""
    m = make_machine(num_cores=1, os_noise=False)
    threads = []
    finished = []

    def body(kt):
        yield Compute(work_ms * MS)
        finished.append(m.now)
        yield Exit()

    for i in range(n_threads):
        threads.append(m.spawn(body, name=f"w{i}", core=0))
    m.run()
    total_cpu = sum(t.cputime_ns for t in threads)
    submitted = n_threads * work_ms * MS
    # cputime = submitted work + cold-cache penalties (bounded by one
    # penalty per dispatch: initial dispatches plus preemptions)
    from repro import config

    max_penalty = int(config.CACHE_WARMUP_NS
                      * (config.CACHE_WARMUP_FACTOR - 1.0))
    dispatches = n_threads + sum(t.preemptions for t in threads)
    assert submitted <= total_cpu <= submitted + dispatches * max_penalty
    # wall time (to the last thread's completion, not to any trailing
    # tick event) = total cpu + bounded scheduling overhead
    overhead = max(finished) - total_cpu
    assert 0 <= overhead < total_cpu * 0.05 + n_threads * 100_000
