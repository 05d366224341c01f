"""On-disk artifacts: binary checkpoints and every self-describing CSV table.

Checkpoint layout (little-endian throughout):

    bytes 0..3   magic  b"BQSF"
    bytes 4..7   format version (u32), currently 1
    bytes 8..11  grid size n (u32)
    bytes 12..19 alpha (f64)
    bytes 20..27 simulation time t (f64)
    then n*n complex128 vorticity coefficients, row-major,
    then n*n complex128 temperature coefficients, row-major.

Coefficients are stored exactly, so write/read round-trips are bitwise.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .diagnostics import RECORD_FIELDS, DiagnosticsRecord
from .dynamics import SimState
from .errors import CheckpointError, ConfigurationError, InvalidInputError
from .spectral import Grid, SpectralField, _wrap

MAGIC = b"BQSF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")


def write_checkpoint(path, state: SimState) -> None:
    """Serialize a simulation state; the round-trip is bit-exact."""
    n = state.grid.n
    omega = np.ascontiguousarray(state.omega_hat.coeffs, dtype="<c16")
    theta = np.ascontiguousarray(state.theta_hat.coeffs, dtype="<c16")
    payload = _HEADER.pack(MAGIC, FORMAT_VERSION, n, float(state.alpha), float(state.t))
    with open(path, "wb") as handle:
        handle.write(payload)
        handle.write(omega.tobytes())
        handle.write(theta.tobytes())


def read_checkpoint(path) -> SimState:
    """Load a checkpoint, validating magic, version, payload size, n, alpha, and that t
    and every coefficient are finite; `_read_checked` also checks conjugate symmetry."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n, alpha, t = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    expected = _HEADER.size + 2 * n * n * 16
    if len(blob) != expected:
        raise CheckpointError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {len(blob)}"
        )
    flat = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    if not (np.isfinite(t) and np.all(np.isfinite(flat))):
        raise CheckpointError(f"{path}: non-finite time or coefficients")
    omega, theta = flat.reshape(2, n, n).astype(complex)
    try:
        grid = Grid(int(n))
        return SimState(t, _wrap(grid, omega), _wrap(grid, theta), alpha)
    except ConfigurationError as err:
        raise CheckpointError(f"{path}: {err}") from None


def _read_checked(path) -> SimState:
    """`read_checkpoint` with both fields rebuilt by the checking `SpectralField` constructor."""
    s = read_checkpoint(path)
    try:
        return SimState(s.t, SpectralField(s.grid, s.omega_hat.coeffs),
                        SpectralField(s.grid, s.theta_hat.coeffs), s.alpha)
    except InvalidInputError as err:
        raise CheckpointError(f"{path}: {err}") from None


def _write_table(path, header_lines, columns, rows, footer_lines=()) -> None:
    """Write '#' header lines, the column row, the rows and '#' footer lines with LF
    endings.  Values use %.17g, which round-trips float64 and prints an integer as
    itself, so identical runs produce byte-identical files."""
    lines = [f"# {entry}" for entry in header_lines]
    lines.append(",".join(columns))
    lines += [",".join("%.17g" % value for value in row) for row in rows]
    lines += [f"# {entry}" for entry in footer_lines]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def write_diagnostics_csv(path, records, header_lines=()) -> None:
    """Write the diagnostic time series with a '#'-prefixed provenance header.

    `header_lines` should carry the config echo and seed so the artifact is
    interpretable on its own.
    """
    header = ["diagnostics time series", f"format_version = {FORMAT_VERSION}", *header_lines]
    rows = ([getattr(record, name) for name in RECORD_FIELDS] for record in records)
    _write_table(path, header, RECORD_FIELDS, rows)


def write_ratio_csv(path, report, header_lines=()) -> None:
    """Write a `verify.RatioReport`: `header_lines` (the ensemble), suite and
    params, one row per sample (ratio nan where excluded) and a '#' summary."""
    params = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    header = [*header_lines, f"suite: {report.suite}", f"params: {params}"]
    header.append("note: torus discretization; plane-only phenomena out of scope")
    rows = [(i, lhs, rhs, lhs / rhs if inc else np.nan)
            for i, (lhs, rhs, inc) in enumerate(zip(report.lhs, report.rhs, report.included))]
    summary = f"summary: max_ratio={report.max_ratio:.17g} median_ratio={report.median_ratio:.17g}"
    _write_table(path, header, ("sample_id", "lhs", "rhs", "ratio"), rows,
                 [f"{summary} excluded={report.excluded_count}"])


def records_from_csv(path) -> list[DiagnosticsRecord]:
    """Read back a diagnostics CSV written by write_diagnostics_csv; reject any other row."""
    records = []
    header = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            if header != list(RECORD_FIELDS):
                raise CheckpointError(f"{path}: unexpected diagnostics columns {header}")
            continue
        try:
            values = [float(part) for part in line.split(",")]
        except ValueError as err:
            raise CheckpointError(f"{path}, line {lineno}: {err}") from None
        if len(values) != len(header):
            raise CheckpointError(f"{path}, line {lineno}: {len(values)} values, not {len(header)}")
        records.append(DiagnosticsRecord(*values))
    if header is None:
        raise CheckpointError(f"{path}: no diagnostics header found")
    return records
