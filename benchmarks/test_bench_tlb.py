"""Extension bench: tile shape vs TLB behaviour (Mitchell et al., §5).

The paper's cost model only counts cache lines; Mitchell et al. (cited
in related work) showed tile choices must also respect the TLB. Here
the UltraSparc2's 64-entry DTLB is simulated under JACOBI with the
paper's GcdPad tile and with a deliberately TJ-heavy tile of the same
area: the wide-in-J tile touches ~3x as many pages per tile and pays
for it, while both behave identically in the L1 — a dimension the
Section 2.3 cost function cannot see.
"""

from repro.cache.tlb import ULTRASPARC2_DTLB, build_tlb
from repro.experiments.report import format_table
from repro.kernels import Jacobi3D, Schedule
from repro.types import SelectionResult, TileSize

from conftest import emit


def test_tlb_tile_shape(benchmark, out_dir, cfg):
    n = 300
    kern = Jacobi3D(n, 8)
    shapes = {
        "GcdPad-like 30x14": TileSize(30, 14),
        "tall 140x3": TileSize(140, 3),
        "wide 3x140": TileSize(3, 140),
    }

    def run():
        rows = []
        for label, tilesize in shapes.items():
            sel = SelectionResult("x", tilesize, di_p=n, dj_p=n)
            tlb = build_tlb(ULTRASPARC2_DTLB)
            total = misses = 0
            for c in kern.trace(sel, Schedule.TILED):
                m = tlb.access(c.addresses)
                misses += int(m.sum())
                total += m.size
            rows.append([label, f"{100 * misses / total:.3f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(out_dir, "extension_tlb", format_table(
        ["tile", "DTLB miss %"], rows,
        title=f"JACOBI N={n}: 64-entry fully-assoc DTLB, 8K pages"))
    by = {r[0]: float(r[1]) for r in rows}
    assert by["wide 3x140"] > by["GcdPad-like 30x14"]
