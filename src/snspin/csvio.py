"""The artifact CSV format: '# key=value' metadata lines, a header, then rows.

``_cells`` is the one place a cell is formatted: a string as it is, a
number as the ``repr`` of the Python number, which reads back exactly.
Rows come from equal-length columns (``table_lines``) or from a grid over
axis0 x axis1, axis0 outer (``grid_lines``).  Kept apart from the model
modules so that the format has one home that loads none of them:
``load_signal_csv`` imports ``ExperimentSpec`` and ``SignalMap`` when it
runs, and reads the header back into the map's spec.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

SIGNAL_HEADER = ("freq_hz", "duration_s", "signal")


def _cells(column) -> list:
    """The CSV cells of a column of strings or numbers."""
    return [v if isinstance(v, str) else repr(v) for v in np.asarray(column).tolist()]


def table_lines(*columns):
    """One row per index of the equal-length ``columns``."""
    return map(",".join, zip(*map(_cells, columns)))


def grid_lines(axis0, axis1, values):
    """(a0, a1, value) rows over axis0 x axis1, axis0 outer; ``values`` holds
    one value per pair, axis0-major (an array of shape (len(axis0), len(axis1))
    or its ravel)."""
    inner, cells = _cells(axis1), iter(_cells(np.ravel(values)))
    return (f"{a},{b},{next(cells)}" for a in _cells(axis0) for b in inner)


def save_csv(path, header, lines, metadata: dict | None = None):
    """Write '# key=value' lines, the ``header`` names and the row ``lines``,
    the format :func:`load_signal_csv` reads."""
    meta = (f"# {key}={val}" for key, val in (metadata or {}).items())
    with open(path, "w") as fh:
        fh.write("\n".join(itertools.chain(meta, [",".join(header)], lines)) + "\n")


def save_signal_csv(path, signal_map, metadata: dict | None = None):
    """Write a map as freq_hz,duration_s,signal rows with '#' metadata lines."""
    save_csv(path, SIGNAL_HEADER,
             grid_lines(signal_map.freq_hz, signal_map.duration_s, signal_map.signal),
             metadata)


def load_signal_csv(path, **spec_keys) -> tuple:
    """Read a freq_hz,duration_s,signal CSV into (metadata, SignalMap).

    Leading '#' lines carry key=value metadata, returned as read.  The
    map's spec is ``ExperimentSpec.from_metadata`` of it, with the
    ``spec_keys`` (such as a fit dataset's ``kind`` or ``label``) over its
    keys.  The rows must cover a full rectangular grid; malformed content
    is reported with its line number.
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
    if tuple(h.strip() for h in header) != SIGNAL_HEADER:
        raise ValueError(
            f"{path}: line {body_start + 1}: expected header "
            f"'{','.join(SIGNAL_HEADER)}', got {','.join(header)!r}"
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
    from .dynamics import ExperimentSpec, SignalMap

    spec = ExperimentSpec.from_metadata({**meta, **spec_keys}, freq_axis, time_axis)
    return meta, SignalMap(spec, signal)
