"""Tests for the experiment harness, on a scaled-down configuration.

The tiny config (2KB L1 / 64KB L2) keeps every property of the paper's
setup — direct-mapped, write-around, two levels, C_s a power of two —
at 1/8 scale, so each simulated point takes milliseconds.
"""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import run_point, sweep
from repro.experiments.config import ExperimentConfig, default_sizes
from repro.experiments.report import format_series, format_table
from repro.experiments.runner import clear_cache
from repro.experiments.table1 import PAPER_ROWS, format_table1, table1
from repro.experiments.table3 import format_table3, summarize, table3
from repro.experiments.transforms_table import (
    PAPER_STRATEGIES,
    TRANSFORMS,
    format_table2,
)


SIZES = [40, 64, 90]  # includes a pathological size (64 | 256 = C_s)


class TestRunner:
    def test_point_fields(self, tiny_config):
        r = run_point("JACOBI", "GcdPad", 48, tiny_config)
        assert r.kernel == "JACOBI" and r.strategy == "GcdPad"
        assert r.tile is not None and r.padded
        assert 0 < r.l1_rate < 100
        assert r.l2_rate <= r.l1_rate
        assert r.mflops > 0 and r.seconds > 0
        assert r.refs == 7 * (48 - 2) ** 2 * (tiny_config.nk - 2)

    def test_orig_untiled(self, tiny_config):
        r = run_point("REDBLACK", "Orig", 40, tiny_config)
        assert r.tile is None and not r.padded

    def test_memoization(self, tiny_config):
        a = run_point("JACOBI", "Orig", 40, tiny_config)
        b = run_point("JACOBI", "Orig", 40, tiny_config)
        assert a is b
        clear_cache()
        c = run_point("JACOBI", "Orig", 40, tiny_config)
        assert c == a and c is not a

    def test_memoization_is_bounded(self, tiny_config):
        from repro.experiments.runner import cache_info

        clear_cache()
        run_point("JACOBI", "Orig", 40, tiny_config)
        info = cache_info()
        # Bounded (default REPRO_POINT_CACHE=4096), so week-long sweeps
        # cannot grow RSS without bound; and the memo is actually used.
        assert info.maxsize is not None and info.maxsize > 0
        assert info.currsize >= 1
        run_point("JACOBI", "Orig", 40, tiny_config)
        assert cache_info().hits > info.hits

    def test_unknown_kernel(self, tiny_config):
        with pytest.raises(ExperimentError):
            run_point("NOPE", "Orig", 40, tiny_config)

    def test_sweep_shape(self, tiny_config):
        res = sweep("JACOBI", ["Orig", "Tile"], SIZES, tiny_config)
        assert set(res) == {"Orig", "Tile"}
        assert [p.n for p in res["Orig"]] == SIZES

    @pytest.mark.parametrize("kernel", ["JACOBI", "REDBLACK", "RESID"])
    def test_all_kernels_all_strategies(self, kernel, tiny_config):
        for strategy in ("Orig", *PAPER_STRATEGIES):
            r = run_point(kernel, strategy, 40, tiny_config)
            assert r.refs > 0

    def test_wolf_lam_3loop_runs(self, tiny_config):
        r = run_point("JACOBI", "WolfLam3", 40, tiny_config)
        assert r.tile is not None


class TestPaperShapes:
    """The qualitative claims of Section 4, at 1/8 scale."""

    def test_pathological_orig_spike_tamed_by_padding(self, tiny_config):
        # N = 64 divides C_s = 256: Orig thrashes, GcdPad doesn't.
        orig = run_point("JACOBI", "Orig", 64, tiny_config)
        gcd = run_point("JACOBI", "GcdPad", 64, tiny_config)
        nt = run_point("JACOBI", "GcdPadNT", 64, tiny_config)
        assert orig.l1_rate > 2 * gcd.l1_rate
        assert nt.l1_rate < orig.l1_rate  # padding alone helps the spike

    def test_padded_tiling_beats_orig_on_average(self, tiny_config):
        for kernel in ("JACOBI", "REDBLACK", "RESID"):
            res = sweep(kernel, ["Orig", "GcdPad", "Pad"], SIZES,
                        tiny_config)
            s = summarize(kernel, res)
            for strat in ("GcdPad", "Pad"):
                perf, l1, _ = s.improvements[strat]
                assert perf > 0, f"{kernel}/{strat} perf {perf}"
                assert l1 > 0, f"{kernel}/{strat} L1 {l1}"

    def test_gcdpadnt_alone_is_smaller_win(self, tiny_config):
        res = sweep("JACOBI", ["Orig", "GcdPad", "GcdPadNT"], SIZES,
                    tiny_config)
        s = summarize("JACOBI", res)
        assert s.improvements["GcdPadNT"][0] < s.improvements["GcdPad"][0]

    @pytest.mark.slow
    def test_kernel_gain_ranking_at_paper_scale(self):
        """Table 3's ordering: REDBLACK gains most, RESID least.

        This is inherently a 16K-cache claim (RESID's in-plane reuse
        must fit), so it runs at full scale on a reduced size set.
        """
        cfg = ExperimentConfig()
        gains = {}
        for kernel in ("JACOBI", "REDBLACK", "RESID"):
            res = sweep(kernel, ["Orig", "GcdPad"], [200, 300], cfg)
            gains[kernel] = summarize(kernel, res).improvements["GcdPad"][0]
        assert gains["REDBLACK"] == max(gains.values())
        assert gains["RESID"] == min(gains.values())
        assert all(g > 0 for g in gains.values())


class TestTables:
    def test_table1_reproduces_paper_rows(self):
        res = table1()
        ours = {(t.tk, t.tj, t.ti) for t in res.tiles}
        for row in PAPER_ROWS:
            assert row in ours, f"paper row {row} missing"
        assert res.selected.tile.as_tuple() == (22, 13)

    def test_table1_formatting(self):
        out = format_table1(table1())
        assert "TK" in out and "(22, 13)" in out

    def test_table2_registry(self):
        assert set(PAPER_STRATEGIES) <= set(TRANSFORMS)
        assert not TRANSFORMS["Orig"].tiled
        assert TRANSFORMS["GcdPad"].padded and TRANSFORMS["GcdPad"].tiled
        assert "GcdPadNT" in format_table2()

    def test_table3_structure(self, tiny_config):
        res = table3(kernels=("JACOBI",), strategies=("Tile", "GcdPad"),
                     sizes=SIZES, cfg=tiny_config)
        assert len(res.summaries) == 1
        s = res.summaries[0]
        assert set(s.improvements) == {"Tile", "GcdPad"}
        txt = format_table3(res)
        assert "JACOBI" in txt and "% perf" in txt


class TestConfig:
    def test_default_sizes(self):
        assert default_sizes(200, 400, full=False) == [200, 250, 300, 350, 400]
        assert default_sizes(200, 400, full=True)[:3] == [200, 210, 220]

    def test_cs(self, tiny_config):
        assert tiny_config.cs == 256

    def test_explicit_nk_kept_without_full_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert ExperimentConfig(nk=30).nk == 30

    def test_replace_keeps_explicit_nk(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        cfg = ExperimentConfig()
        assert dataclasses.replace(cfg, nk=30).nk == 30
        assert dataclasses.replace(cfg, inter_pad=True).nk == cfg.nk

    @pytest.mark.parametrize("env,nk", [(None, 11), ("0", 11), ("1", 30)])
    def test_environment_chooses_only_the_default(self, monkeypatch,
                                                  env, nk):
        if env is None:
            monkeypatch.delenv("REPRO_FULL", raising=False)
        else:
            monkeypatch.setenv("REPRO_FULL", env)
        assert ExperimentConfig().nk == nk
        assert ExperimentConfig(nk=5).nk == 5


class TestReport:
    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2.345], [10, 0.5]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "2.35" in out and "0.50" in out

    def test_format_series(self):
        out = format_series("S", "N", [1, 2], {"x": [0.1, 0.2]})
        assert "S" in out and "N" in out
