"""Grid-based cadlag paths and the elementary path operations.

A path lives on a uniform time grid covering [0, T].  Values are stored up to
and including the current time t; evaluation between grid points is
piecewise-constant and right-continuous (the value at time r is the value at
the greatest grid time <= r).  Paths are immutable after construction and all
operations below are pure.
"""

from __future__ import annotations

import io
import json
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
    return Path(path.grid_times, vals)


def horizontal_extend(path: Path, s: float) -> Path:
    """Extend the path flat at its final value up to time s."""
    if s < path.current_time - _REL_TOL:
        raise ValueError(f"cannot extend backwards: s={s} < t={path.current_time}")
    s_idx = path.time_to_index(s)
    if s_idx <= path.t_index:
        return path
    n_new = s_idx - path.t_index
    vals = np.vstack([path.values, np.tile(path.endpoint, (n_new, 1))])
    return Path(path.grid_times, vals)


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
    node, every stride steps from the anchor; the final entry is kept."""
    m = vals.shape[1]
    if m - 1 <= anchor_idx:
        return vals
    out = vals.copy()
    idx = np.arange(anchor_idx, m - 1)
    node = anchor_idx + ((idx - anchor_idx) // stride) * stride
    out[:, idx] = vals[:, node]
    return out


def discretize(path: Path, n: int, anchor_t: float) -> Path:
    """Freeze the path at n equally spaced nodes between anchor_t and T.

    On [0, anchor_t) the path is unchanged; on each node interval it is held
    at the most recent node value; the endpoint at the current time is kept.
    """
    if n < 1:
        raise ValueError(f"need a positive number of nodes, got n={n}")
    anchor_idx = path.time_to_index(anchor_t)
    if anchor_idx > path.t_index:
        raise ValueError(
            f"anchor {anchor_t} after current time {path.current_time}"
        )
    total_steps = len(path.grid_times) - 1 - anchor_idx
    if total_steps == 0:
        return path
    if total_steps % n != 0:
        raise GridAlignmentError(
            f"{n} subdivision nodes do not land on the grid "
            f"({total_steps} grid steps from anchor to horizon)"
        )
    vals = discretize_values(path.values[None], anchor_idx, total_steps // n)
    return Path(path.grid_times, vals[0])


def restrict(path: Path, t: float) -> Path:
    """Truncate the path to [0, t]."""
    idx = path.time_to_index(t)
    if idx > path.t_index:
        raise ValueError(f"cannot restrict to {t} > current time {path.current_time}")
    return Path(path.grid_times, path.values[: idx + 1])


# -- serialization ------------------------------------------------------


def to_json(path: Path) -> str:
    return json.dumps(
        {
            "dt": path.dt,
            "t": path.current_time,
            "values": path.values.tolist(),
        }
    )


def from_json(text: str, horizon: float | None = None) -> Path:
    """Rebuild a path from its JSON form.

    The schema carries dt, t and the realized values only; pass horizon to
    place the path on a longer grid (defaults to the current time).
    """
    obj = json.loads(text)
    dt = float(obj["dt"])
    t = float(obj["t"])
    T = t if horizon is None else horizon
    N = int(round(T / dt))
    return Path(make_grid(T, N), np.asarray(obj["values"], dtype=np.float64))


def to_csv(path: Path) -> str:
    d = path.dimension
    buf = io.StringIO()
    buf.write("time," + ",".join(f"x_{i+1}" for i in range(d)) + "\n")
    for i in range(path.t_index + 1):
        row = [repr(float(path.grid_times[i]))]
        row += [repr(float(v)) for v in path.values[i]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def from_csv(text: str, horizon: float | None = None, dt: float | None = None) -> Path:
    lines = [ln for ln in text.strip().splitlines() if ln]
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    times = np.array([r[0] for r in rows])
    vals = np.array([r[1:] for r in rows])
    if dt is None:
        if len(times) == 1:
            raise ValueError("pass dt explicitly to load a single-row path")
        dt = times[1] - times[0]
    t = times[-1]
    T = t if horizon is None else horizon
    N = int(round(T / dt))
    return Path(make_grid(T, N), vals)
