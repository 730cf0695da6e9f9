"""Extension bench: non-conflicting time-skewed tiling (Section 6's
future work).

Shows the temporal reuse the paper's own transformations leave on the
table for simple (Figure 5 top) stencil codes: T plain sweeps re-read
the whole array T times, while a skewed tile keeps its footprint
resident across the block of time steps.
"""

from repro.cache import CacheHierarchy
from repro.experiments.report import format_table
from repro.timeskew import SkewedSchedule, select_skewed_tile
from repro.timeskew.schedule import skewed_trace, untiled_trace

from conftest import emit


def test_time_skewed_jacobi2d(benchmark, out_dir, cfg):
    n, m, tsteps = 64, 400, 6
    sel = select_skewed_tile(cfg.cs, n, m, tsteps)
    sched = SkewedSchedule(n, m, tsteps, sel.tj)

    def run():
        out = {}
        for label, tracer in (("plain sweeps", untiled_trace),
                              ("time-skewed", skewed_trace)):
            st = CacheHierarchy(cfg.levels).run(tracer(sched))
            out[label] = (100 * st.global_miss_rate(0),
                          100 * st.global_miss_rate(1))
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "extension_timeskew", format_table(
        ["schedule", "L1 miss %", "L2 miss %"],
        [[k, f"{v[0]:.2f}", f"{v[1]:.2f}"] for k, v in out.items()],
        title=f"2D Jacobi, {n}x{m}, T={tsteps}, skew tile tj={sel.tj} "
              f"(conflict-free={sel.conflict_free})"))
    assert out["time-skewed"][0] < 0.6 * out["plain sweeps"][0]
