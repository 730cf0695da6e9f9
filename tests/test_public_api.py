"""Integration tests of the package-level public API."""

import importlib
import pkgutil

import pytest

import repro


class TestExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_headline_workflow(self):
        """The README's quickstart, verbatim semantics."""
        r = repro.select("GcdPad", cs=2048, di=300, dj=300,
                         mi=2, mj=2, atd=3)
        assert r.tile.as_tuple() == (30, 14)
        assert (r.di_p, r.dj_p) == (352, 304)

        p = repro.simulate_kernel("JACOBI", "GcdPad", n=300)
        base = repro.simulate_kernel("JACOBI", "Orig", n=300)
        assert p.l1_rate < base.l1_rate
        assert p.mflops > base.mflops

    def test_error_hierarchy_catchable(self):
        with pytest.raises(repro.ReproError):
            repro.select("NotAStrategy", 2048, 10, 10)
        with pytest.raises(repro.ReproError):
            repro.CacheParams(size_bytes=1000)
        with pytest.raises(repro.ReproError):
            repro.Jacobi3D(1)


class TestModuleHygiene:
    def test_every_module_has_docstring(self):
        missing = []
        pkg = repro
        for info in pkgutil.walk_packages(pkg.__path__,
                                          prefix="repro."):
            if info.name.endswith("__main__"):
                continue  # importing it would execute the CLI
            mod = importlib.import_module(info.name)
            if not (mod.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_package_imports_clean(self):
        for name in ("repro.core", "repro.cache", "repro.ir",
                     "repro.trace", "repro.kernels", "repro.layout",
                     "repro.multigrid", "repro.perfmodel",
                     "repro.experiments", "repro.baselines",
                     "repro.timeskew"):
            importlib.import_module(name)

    def test_cli_import_does_not_load_scipy(self):
        """Import-cost tripwire: ``scipy.sparse`` alone used to be most
        of the CLI's start-up time."""
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import repro.cli, sys; print('scipy' in sys.modules)"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_no_source_file_imports_scipy(self):
        import ast
        import pathlib

        offenders = []
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n.split(".")[0] == "scipy" for n in names):
                    offenders.append(f"{path}:{node.lineno}")
        assert not offenders, offenders


class TestCrossModuleConsistency:
    def test_selection_feeds_kernels(self):
        """A SelectionResult from any strategy drives any kernel."""
        from repro.experiments.config import ExperimentConfig

        cfg = ExperimentConfig()
        for kernel_name, kernel_cls in repro.KERNELS.items():
            kern = kernel_cls(40, 8)
            sel = repro.select("Pad", 256, 40, 40, mi=kern.meta.mi,
                               mj=kern.meta.mj, atd=kern.meta.atd)
            total = 0
            for addrs, w in kern.trace(sel):
                total += addrs.size
            expected = (kern.meta.reads + kern.meta.writes) \
                * kern.interior_points()
            assert total == expected, kernel_name

    def test_capacity_consistent_with_cache_params(self):
        from repro.core.capacity import max_3d_plane_len

        cs_l1 = repro.ULTRASPARC2_L1.capacity_elements(8)
        cs_l2 = repro.ULTRASPARC2_L2.capacity_elements(8)
        assert max_3d_plane_len(cs_l1) == 32
        assert max_3d_plane_len(cs_l2) == 362

    def test_machine_presets_match_paper_platforms(self):
        assert repro.ULTRASPARC2_360.clock_hz == 360e6
        assert repro.ULTRASPARC2_450.clock_hz == 450e6
