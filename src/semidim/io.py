"""Artifact persistence: binary path dumps, sidecars and CSV emission.

Every output data file gets a JSON sidecar carrying the full configuration,
master seed, package version, numpy and scipy versions, CPU count and a
wall-clock stamp; reruns with identical sidecar inputs reproduce
byte-identical data files.  CSV uses '.' decimals and 17 significant digits
so floats round-trip exactly.
"""

from __future__ import annotations

import datetime
import json
import os
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvalidInputs
from .laws import BlockLaw
from .paths import LevyPath, grid_times
from .spectral import ExponentSpec


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def write_sidecar(path: Path, config: dict) -> None:
    import importlib.metadata  # here alone: loading it slows every CLI call

    payload = dict(config)
    payload["version"] = __version__
    payload["numpy"] = np.__version__
    payload["scipy"] = importlib.metadata.version("scipy")  # reads scipy's version without importing it
    payload["cpu_count"] = os.cpu_count()
    payload["created_utc"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def write_path_dump(out_prefix: Path, path: LevyPath, config: dict | None = None, csv: bool = False) -> Path:
    """Dump a path as little-endian float64 rows (t, x_1..x_d) plus sidecar.

    Only a path on the whole grid is dumped, since :func:`read_path_dump`
    reads no other."""
    if path.rows is not None:
        raise InvalidInputs(f"only a path on the whole grid is dumped; this one holds {path.rows.size} of its rows")
    out_prefix = Path(out_prefix)
    data = np.ascontiguousarray(path.graph_points(), dtype="<f8")
    bin_path = out_prefix.with_suffix(".bin")
    data.tofile(bin_path)
    sidecar = {
        "exponent": path.spec.as_dict(),
        "laws": [l.as_dict() for l in path.laws],
        "seed": path.seed,
        "n": path.n,
        "rows": int(data.shape[0]),
        "columns": int(data.shape[1]),
        "layout": "row-major (t, x_1..x_d), little-endian float64",
    }
    if config:
        sidecar["config"] = config
    write_sidecar(out_prefix.with_suffix(".json"), sidecar)
    if csv:
        write_csv(
            out_prefix.with_suffix(".csv"),
            ["t"] + [f"x{i + 1}" for i in range(path.d)],
            data,
        )
    return bin_path


def read_path_dump(out_prefix: Path) -> LevyPath:
    """A dumped path; its rows must be the grid k 2^-n, k = 0 .. 2^n, of the
    sidecar's depth n, since time-set masks and the resolution check rely on it,
    and its columns the time and the d coordinates of the sidecar's exponent."""
    out_prefix = Path(out_prefix)
    meta = json.loads(out_prefix.with_suffix(".json").read_text())
    rows, cols, n = (meta[key] for key in ("rows", "columns", "n"))
    if not all(type(v) is int for v in (rows, cols, n)):
        raise InvalidInputs("path dump sidecar: rows, columns and n must be integers")
    spec = ExponentSpec.from_dict(meta["exponent"])
    if cols != spec.d + 1:
        raise InvalidInputs(f"path dump has {cols} columns, not the {spec.d + 1} of a path in d={spec.d}")
    # rows - 1 must be the power of two 2^n, tested without forming 2^n
    if rows < 2 or (rows - 1) & (rows - 2) or (rows - 1).bit_length() != n + 1:
        raise InvalidInputs(f"path dump has {rows} rows, not the 2^n + 1 of depth n={n}")
    data = np.fromfile(out_prefix.with_suffix(".bin"), dtype="<f8").reshape(rows, cols)
    if not np.array_equal(data[:, 0], grid_times(n)):
        raise InvalidInputs(f"path dump times are not the grid k 2^-{n}")
    return LevyPath(
        values=data[:, 1:].copy(),
        seed=int(meta["seed"]),
        n=n,
        spec=spec,
        laws=tuple(BlockLaw.from_dict(l) for l in meta["laws"]),
    )


def write_csv(path: Path, header: list[str], rows) -> None:
    """Rows of numbers at 17 significant digits; string cells are written as they are."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(x if isinstance(x, str) else fmt_float(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_loglog_csv(path: Path, scales, statistics, stderrs=None) -> None:
    """Plot-ready CSV of (scale, statistic, stderr, log scale, log statistic)."""
    scales = np.asarray(scales, dtype=float)
    statistics = np.asarray(statistics, dtype=float)
    if stderrs is None:
        stderrs = np.zeros_like(statistics)
    rows = np.column_stack(
        [scales, statistics, stderrs, np.log(scales), np.log(statistics)]
    )
    write_csv(path, ["scale", "statistic", "stderr", "log_scale", "log_statistic"], rows)
