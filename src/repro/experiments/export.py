"""CSV export of experiment results (for external plotting tools).

The benchmark harness renders ASCII tables; anyone regenerating the
paper's figures graphically wants machine-readable series instead.
These writers emit plain CSV with a stable column set, including the
``degraded`` provenance flag so exact simulations and analytic-model
fallbacks stay distinguishable downstream.

Writes are atomic (temp file + ``os.replace``): an interrupted run
never leaves a half-written artifact. Reads are defensive: a missing
file, missing columns, or malformed cells raise
:class:`~repro.errors.ExperimentError` naming the offending path and
row instead of leaking ``ValueError``/``KeyError`` tracebacks.
"""

from __future__ import annotations

import csv
import pathlib
from typing import Iterable

from repro.errors import ExperimentError
from repro.experiments.runner import PointResult
from repro.resilience.atomic import atomic_write_text

__all__ = ["points_to_csv", "write_points_csv", "read_points_csv"]

_COLUMNS = ("kernel", "strategy", "n", "nk", "l1_rate", "l2_rate",
            "l1_misses", "l2_misses", "refs", "mflops", "seconds",
            "ti", "tj", "di_p", "dj_p", "degraded")

#: Provenance flag: optional on read (older files predate it), and an
#: absent column means False for every row.
_FLAG_COLUMNS = ("degraded",)

_INT_COLUMNS = ("n", "nk", "l1_misses", "l2_misses", "refs", "di_p", "dj_p")
_FLOAT_COLUMNS = ("l1_rate", "l2_rate", "mflops", "seconds")
_TILE_COLUMNS = ("ti", "tj")


def _row(p: PointResult) -> list:
    ti, tj = p.tile if p.tile else ("", "")
    return [p.kernel, p.strategy, p.n, p.nk,
            f"{p.l1_rate:.6f}", f"{p.l2_rate:.6f}",
            p.l1_misses, p.l2_misses, p.refs,
            f"{p.mflops:.6f}", f"{p.seconds:.9f}",
            ti, tj, p.di_p, p.dj_p,
            int(p.degraded)]


def points_to_csv(points: Iterable[PointResult]) -> str:
    """Render results as a CSV string (header + one row per point)."""
    import io

    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_COLUMNS)
    for p in points:
        w.writerow(_row(p))
    return buf.getvalue()


def write_points_csv(points: Iterable[PointResult],
                     path: str | pathlib.Path) -> pathlib.Path:
    """Write results to ``path`` atomically; returns the resolved path."""
    return atomic_write_text(path, points_to_csv(points))


def _cell(row: dict, key: str, path: pathlib.Path, lineno: int) -> str:
    value = row.get(key)
    if value is None:
        raise ExperimentError(
            f"{path}: row {lineno} is missing column {key!r}")
    return value


def read_points_csv(path: str | pathlib.Path) -> list[dict]:
    """Read a CSV written by :func:`write_points_csv` back into dicts.

    Numeric columns are parsed; empty tile columns become ``None``;
    ``degraded`` becomes a bool (files from before the column existed
    read as ``False``); columns this writer no longer emits, such as
    the old ``extrapolated`` flag, pass through as strings. Malformed
    input raises :class:`~repro.errors.ExperimentError` with the path
    and row.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no such results file: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        required = set(_COLUMNS) - set(_FLAG_COLUMNS)
        missing = required - set(header)
        if missing:
            raise ExperimentError(
                f"{path}: not a points CSV — missing column(s) "
                f"{', '.join(sorted(missing))}")
        out: list[dict] = []
        for lineno, row in enumerate(reader, start=2):
            parsed: dict = dict(row)
            try:
                for k in _INT_COLUMNS:
                    parsed[k] = int(_cell(row, k, path, lineno))
                for k in _FLOAT_COLUMNS:
                    parsed[k] = float(_cell(row, k, path, lineno))
                for k in _TILE_COLUMNS:
                    raw = _cell(row, k, path, lineno)
                    parsed[k] = int(raw) if raw else None
                for k in _FLAG_COLUMNS:
                    raw = row.get(k, "")
                    parsed[k] = (raw or "0").strip().lower() in (
                        "1", "true", "yes")
            except ValueError as exc:
                raise ExperimentError(
                    f"{path}: row {lineno} has a malformed value: {exc}"
                ) from None
            out.append(parsed)
    return out
