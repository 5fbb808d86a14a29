"""The artifact CSV format: '# key=value' metadata lines, then rows.

Kept apart from the model modules so that writing a table loads no scipy.
"""

from __future__ import annotations

import csv
import math

import numpy as np


def save_csv(path, rows, metadata: dict | None = None):
    """Write ``rows`` as comma-separated lines after '# key=value' lines,
    the format :func:`load_signal_csv` reads."""
    lines = [f"# {key}={val}" for key, val in (metadata or {}).items()]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def save_signal_csv(path, signal_map, metadata: dict | None = None):
    """Write a map as freq_hz,duration_s,signal rows with '#' metadata lines."""
    save_csv(path, signal_map.csv_rows(), metadata)


def load_signal_csv(path) -> tuple:
    """Read a freq_hz,duration_s,signal CSV into (metadata, SignalMap).

    Leading '#' lines carry optional key=value metadata (experiment
    kind, transition, calibrated pulse duration) written by the
    exporter.  The rows must cover a full rectangular grid; malformed
    content is reported with its line number.
    """
    meta = {}
    rows = []
    with open(path, newline="") as fh:
        raw = fh.read().splitlines()
    body_start = 0
    for line in raw:
        if not line.startswith("#"):
            break
        body_start += 1
        text = line.lstrip("#").strip()
        if "=" in text:
            key, _, val = text.partition("=")
            meta[key.strip()] = val.strip()
    reader = csv.reader(raw[body_start:])
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    if [h.strip() for h in header] != ["freq_hz", "duration_s", "signal"]:
        raise ValueError(
            f"{path}: line {body_start + 1}: expected header "
            f"'freq_hz,duration_s,signal', got {','.join(header)!r}"
        )
    freqs, times, vals = [], [], []
    for offset, row in enumerate(reader, start=body_start + 2):
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: line {offset}: expected 3 fields, got {len(row)}")
        try:
            f, t, s = (float(x) for x in row)
        except ValueError:
            raise ValueError(f"{path}: line {offset}: non-numeric value in {row!r}")
        if not (math.isfinite(f) and math.isfinite(t) and math.isfinite(s)):
            raise ValueError(f"{path}: line {offset}: non-finite value in {row!r}")
        freqs.append(f)
        times.append(t)
        vals.append(s)
    if not vals:
        raise ValueError(f"{path}: no data rows")
    freq_axis = np.unique(freqs)
    time_axis = np.unique(times)
    if len(vals) != freq_axis.size * time_axis.size:
        raise ValueError(
            f"{path}: {len(vals)} rows do not fill a "
            f"{freq_axis.size} x {time_axis.size} grid"
        )
    signal = np.full((freq_axis.size, time_axis.size), math.nan)
    fi = {v: i for i, v in enumerate(freq_axis)}
    ti = {v: i for i, v in enumerate(time_axis)}
    for f, t, s in zip(freqs, times, vals):
        i, j = fi[f], ti[t]
        if not math.isnan(signal[i, j]):
            raise ValueError(f"{path}: duplicate grid point ({f!r}, {t!r})")
        signal[i, j] = s
    from .dynamics import SignalMap

    return meta, SignalMap(freq_axis, time_axis, signal)
