"""Grid-based cadlag paths and the elementary path operations.

A path lives on a uniform time grid covering [0, T].  Values are stored up to
and including the current time t; evaluation between grid points is
piecewise-constant and right-continuous (the value at time r is the value at
the greatest grid time <= r).  Paths are immutable after construction and all
operations below are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridAlignmentError

_REL_TOL = 1e-12


def make_grid(T: float, N: int) -> np.ndarray:
    """Uniform grid 0 = t_0 < ... < t_N = T."""
    if N < 1:
        raise ValueError(f"need at least one grid step, got N={N}")
    return np.linspace(0.0, float(T), N + 1)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Path:
    """A cadlag path on a uniform grid, stopped at its current time.

    grid_times covers the whole horizon [0, T]; values holds one vector per
    grid time up to the current time, so the current time index is
    len(values) - 1.
    """

    grid_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _as_readonly(np.atleast_1d(self.grid_times))
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim == 1:
            vals = vals[:, None]
        vals = _as_readonly(vals)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid_times must be 1-D with at least two points")
        if abs(grid[0]) > _REL_TOL:
            raise ValueError(f"grid must start at 0, got {grid[0]}")
        steps = np.diff(grid)
        dt = steps[0]
        if dt <= 0 or np.any(np.abs(steps - dt) > _REL_TOL * max(1.0, abs(dt))):
            raise ValueError("grid_times must be strictly increasing and uniform")
        if not (1 <= len(vals) <= len(grid)):
            raise ValueError(
                f"values length {len(vals)} incompatible with grid of {len(grid)} points"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        object.__setattr__(self, "grid_times", grid)
        object.__setattr__(self, "values", vals)

    # -- basic geometry -------------------------------------------------

    @property
    def dt(self) -> float:
        return float(self.grid_times[1] - self.grid_times[0])

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    @property
    def t_index(self) -> int:
        return len(self.values) - 1

    @property
    def current_time(self) -> float:
        return float(self.grid_times[self.t_index])

    @property
    def horizon(self) -> float:
        return float(self.grid_times[-1])

    @property
    def endpoint(self) -> np.ndarray:
        return self.values[-1]

    def time_to_index(self, r: float) -> int:
        """Index of the grid point equal to r, or GridAlignmentError."""
        idx = int(round(r / self.dt))
        if idx < 0 or idx >= len(self.grid_times) or abs(self.grid_times[idx] - r) > 1e-9 * max(1.0, self.dt):
            raise GridAlignmentError(f"time {r} is not on the grid (dt={self.dt})")
        return idx

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return (
            self.grid_times.shape == other.grid_times.shape
            and np.array_equal(self.grid_times, other.grid_times)
            and self.values.shape == other.values.shape
            and np.array_equal(self.values, other.values)
        )


def _derived(path: Path, values: np.ndarray) -> Path:
    """A Path on path's grid holding values derived from path's own: a
    read-only C-contiguous float64 (m, d) block, m <= len(grid), whose
    entries are finite.  The grid was validated when path was built, so
    nothing is checked again."""
    out = object.__new__(Path)
    object.__setattr__(out, "grid_times", path.grid_times)
    object.__setattr__(out, "values", values)
    return out


@dataclass(frozen=True)
class PathDistance:
    """Decomposition of the path distance into sup part and sqrt-time part."""

    sup_component: float
    time_component: float

    @property
    def total(self) -> float:
        return self.sup_component + self.time_component


def vertical_bump(path: Path, x) -> Path:
    """Shift the final value by x, leaving everything else unchanged."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if x.shape != (path.dimension,):
        raise ValueError(
            f"bump dimension {x.shape} does not match path dimension {path.dimension}"
        )
    vals = path.values.copy()
    vals[-1] = vals[-1] + x
    if not np.all(np.isfinite(vals[-1])):
        raise ValueError("path values must be finite")
    vals.flags.writeable = False
    return _derived(path, vals)


def horizontal_extend(path: Path, s: float) -> Path:
    """Extend the path flat at its final value up to time s."""
    if s < path.current_time - _REL_TOL:
        raise ValueError(f"cannot extend backwards: s={s} < t={path.current_time}")
    s_idx = path.time_to_index(s)
    if s_idx <= path.t_index:
        return path
    n_new = s_idx - path.t_index
    vals = np.vstack([path.values, np.tile(path.endpoint, (n_new, 1))])
    vals.flags.writeable = False
    return _derived(path, vals)


def sup_norm(path: Path) -> float:
    """sup over [0, t] of the Euclidean norm of the path value."""
    return float(np.max(np.linalg.norm(path.values, axis=1)))


def path_dist(a: Path, b: Path) -> PathDistance:
    """Distance combining stopped-path sup difference and sqrt time gap."""
    if abs(a.dt - b.dt) > _REL_TOL * max(1.0, a.dt) or a.dimension != b.dimension:
        raise ValueError("paths must share grid spacing and dimension")
    n = max(a.t_index, b.t_index) + 1
    ia = np.minimum(np.arange(n), a.t_index)
    ib = np.minimum(np.arange(n), b.t_index)
    diffs = np.linalg.norm(a.values[ia] - b.values[ib], axis=1)
    sup = float(np.max(diffs))
    time_part = float(np.sqrt(abs(a.current_time - b.current_time)))
    return PathDistance(sup, time_part)


def discretize_values(vals: np.ndarray, anchor_idx: int, stride: int) -> np.ndarray:
    """The node-freezing rule on a block of histories (n, m, d): indices
    from the anchor up to the second-to-last are held at the most recent
    node, every stride steps from the anchor; the final entry is kept.
    One gather, laid out like vals (the block itself when nothing is held),
    so a frozen coefficient reduces over time in the same order as the
    unfrozen one."""
    m = vals.shape[1]
    if m - 1 <= anchor_idx:
        return vals
    idx = np.arange(m)
    held = idx[anchor_idx : m - 1]  # a view: moves each held index to its node
    held -= (held - anchor_idx) % stride
    return vals[:, idx]


def restrict(path: Path, t: float) -> Path:
    """Truncate the path to [0, t]."""
    idx = path.time_to_index(t)
    if idx > path.t_index:
        raise ValueError(f"cannot restrict to {t} > current time {path.current_time}")
    return _derived(path, path.values[: idx + 1])
