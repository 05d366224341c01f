"""On-disk artifacts: binary checkpoints and self-describing diagnostics CSV.

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
from .errors import CheckpointError, ConfigurationError
from .spectral import Grid, SpectralField

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
    """Load a checkpoint, validating magic, version, payload size, n, alpha,
    and that t and every coefficient are finite."""
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
    omega = flat[: n * n].reshape(n, n).astype(complex)
    theta = flat[n * n :].reshape(n, n).astype(complex)
    try:
        grid = Grid(int(n))
        return SimState(t, SpectralField(grid, omega), SpectralField(grid, theta), alpha)
    except ConfigurationError as err:
        raise CheckpointError(f"{path}: {err}") from None


def _format_float(x: float) -> str:
    return "%.17g" % x


def write_diagnostics_csv(path, records, header_lines=()) -> None:
    """Write the diagnostic time series with a '#'-prefixed provenance header.

    `header_lines` should carry the config echo and seed so the artifact is
    interpretable on its own.  Rows use %.17g, which round-trips float64, so
    identical runs produce byte-identical files.
    """
    lines = []
    lines.append("# diagnostics time series")
    lines.append(f"# format_version = {FORMAT_VERSION}")
    for entry in header_lines:
        lines.append(f"# {entry}")
    lines.append(",".join(RECORD_FIELDS))
    for record in records:
        lines.append(",".join(_format_float(getattr(record, name)) for name in RECORD_FIELDS))
    Path(path).write_text("\n".join(lines) + "\n")


def records_from_csv(path) -> list[DiagnosticsRecord]:
    """Read back a diagnostics CSV written by write_diagnostics_csv."""
    records = []
    header = None
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            if header != list(RECORD_FIELDS):
                raise CheckpointError(f"{path}: unexpected diagnostics columns {header}")
            continue
        values = [float(part) for part in line.split(",")]
        records.append(DiagnosticsRecord(**dict(zip(header, values))))
    if header is None:
        raise CheckpointError(f"{path}: no diagnostics header found")
    return records
