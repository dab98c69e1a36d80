"""Uniformly sampled trajectories: the universal I/O object.

CSV layout is ``t,q_0,...,q_{n-1}`` with one row per sample at full double
precision, so files round-trip bit-for-bit. ``write_csv`` writes this and
every other numeric table of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TrajectoryFormatError(ValueError):
    """Malformed trajectory CSV; message carries the offending line number."""


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and one row per sample, every value as %.17g.

    ``columns`` are equally long 1-D columns or 2-D blocks of columns (as
    ``np.column_stack`` takes them); integers and booleans are written as
    the floats they equal, which %.17g prints without a decimal point.
    """
    table = np.asarray(np.column_stack(columns), dtype=float)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in table.tolist():
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _step_tol(steps: np.ndarray) -> float:
    """Spread of the time steps a uniformly sampled trajectory may have:
    rounding noise only."""
    return 1e-9 * max(1.0, abs(steps[0]))


@dataclass
class Trajectory:
    t: np.ndarray                  # (N,)
    x: np.ndarray                  # (N, n)

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        if self.t.ndim != 1 or self.x.shape[0] != len(self.t):
            raise ValueError("t must be (N,) and x (N, n) with matching N")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def dt(self) -> float:
        steps = np.diff(self.t)
        if len(steps) == 0:
            raise ValueError("single-sample trajectory has no step size")
        lo, hi = steps.min(), steps.max()
        if not lo > 0:                        # written so that NaN fails
            raise ValueError(f"time step {lo:.17g} is not positive")
        if not hi - lo <= _step_tol(steps):   # written so that NaN fails
            raise ValueError("trajectory is not uniformly sampled")
        return float(steps[0])

    def velocities(self) -> np.ndarray:
        """Second-order finite-difference velocities at every sample.

        Central differences in the interior, one-sided 2nd-order formulas at
        the endpoints.
        """
        if len(self.t) < 3:
            raise ValueError("need at least 3 samples to differentiate")
        h = self.dt
        v = np.empty_like(self.x)
        v[1:-1] = (self.x[2:] - self.x[:-2]) / (2.0 * h)
        v[0] = (-3.0 * self.x[0] + 4.0 * self.x[1] - self.x[2]) / (2.0 * h)
        v[-1] = (3.0 * self.x[-1] - 4.0 * self.x[-2] + self.x[-3]) / (2.0 * h)
        return v

    def to_csv(self, path) -> None:
        header = "t," + ",".join(f"q_{i}" for i in range(self.dim))
        write_csv(path, header, [self.t, self.x])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path) as fh:
            lines = fh.read().splitlines()
        if not lines:
            raise TrajectoryFormatError(f"{path}: line 1: empty file")
        header = lines[0].split(",")
        if header[0] != "t" or any(not c.startswith("q_") for c in header[1:]):
            raise TrajectoryFormatError(
                f"{path}: line 1: expected header 't,q_0,...', got {lines[0]!r}")
        ncol = len(header)
        t, rows, linenos = [], [], []
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != ncol:
                raise TrajectoryFormatError(
                    f"{path}: line {lineno}: expected {ncol} fields, "
                    f"got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise TrajectoryFormatError(
                    f"{path}: line {lineno}: {exc}") from None
            if not np.all(np.isfinite(vals)):
                raise TrajectoryFormatError(
                    f"{path}: line {lineno}: non-finite field in {line!r}")
            t.append(vals[0])
            rows.append(vals[1:])
            linenos.append(lineno)
        if not rows:
            raise TrajectoryFormatError(f"{path}: line 2: no data rows")
        steps = np.diff(t)
        if np.count_nonzero(steps <= 0):
            k = int(np.argmax(steps <= 0))
            raise TrajectoryFormatError(
                f"{path}: line {linenos[k + 1]}: time step {steps[k]:.17g} "
                "is not positive")
        # the spread of the steps so far; its last entry is dt's np.ptp
        spread = np.maximum.accumulate(steps) - np.minimum.accumulate(steps)
        if len(steps) and spread[-1] > _step_tol(steps):
            k = int(np.argmax(spread > _step_tol(steps)))
            raise TrajectoryFormatError(
                f"{path}: line {linenos[k + 1]}: time step {steps[k]:.17g} "
                "breaks the uniform sampling of the rows above")
        return cls(t=np.array(t), x=np.array(rows))
