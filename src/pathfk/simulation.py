"""Two independent Brownian drivers and the forward Euler scheme.

Randomness is counter-based (Philox keyed by seed and a driver tag) with
normals produced by inverse-CDF from fixed-consumption uniforms, so the
increments of scenario s are a pure function of (seed, s), bit-identical
regardless of batch size or worker scheduling.  The streams are read
scenario-major but stored time-major, (N, n, .), like the forward
histories; the second driver is drawn on its first read, so solves of
models without a backward integrand g never draw it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtri

from .paths import Path

_TAG_W = 1
_TAG_B = 2
# map [0,1) uniforms strictly inside (0,1) before ndtri
_U_SCALE = 1.0 - 2.0 ** -52
_U_SHIFT = 2.0 ** -53


def _keyed_normals(seed: int, tag: int, shape,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Normals of the (seed, tag) stream, one uniform each, into `out` (any
    array of `shape`) or over the uniforms."""
    bitgen = np.random.Philox(key=(int(seed) & ((1 << 64) - 1)) + (tag << 64))
    u = np.random.Generator(bitgen).random(shape)
    u *= _U_SCALE
    u += _U_SHIFT
    return ndtri(u, out=u if out is None else out)


def _increments(seed: int, tag: int, n: int, N: int, width: int,
                sdt: float) -> np.ndarray:
    """Read-only (n, N, width) view of the time-major increments of one
    driver: scenario-major normals written straight into (N, n, width)
    storage, then scaled by sqrt(dt) in place."""
    buf = np.empty((N, n, width))
    _keyed_normals(seed, tag, (n, N, width), out=buf.transpose(1, 0, 2))
    buf *= sdt
    buf.flags.writeable = False
    return buf.transpose(1, 0, 2)


def _history_view(buf: np.ndarray) -> np.ndarray:
    """Read-only (n, time, d) view of a time-major (time, n, d) buffer: the
    block that model coefficients read."""
    view = buf.transpose(1, 0, 2)
    view.flags.writeable = False
    return view


class BrownianPair:
    """Sampled increments of the two independent drivers on a shared grid.

    dW is (n_scenarios, N, d) and dB is (n_scenarios, N, l).  A pair built
    by sample_drivers holds both as read-only views of time-major storage
    and draws dB from the (seed, B) stream the first time it is read; a
    pair built with an explicit dB keeps that array.  l is known either way,
    so reading it never draws.
    """

    def __init__(self, grid_times: np.ndarray, dW: np.ndarray,
                 dB: Optional[np.ndarray], seed: int, l: Optional[int] = None):
        if dB is None and l is None:
            raise ValueError("a pair without dB needs its width l")
        self.grid_times = grid_times
        self.dW = dW
        self._dB = dB
        self.seed = seed
        self.l = dB.shape[2] if dB is not None else int(l)

    @property
    def dB(self) -> np.ndarray:
        if self._dB is None:
            n, N, _ = self.dW.shape
            self._dB = _increments(self.seed, _TAG_B, n, N, self.l, np.sqrt(self.dt))
        return self._dB

    @property
    def dt(self) -> float:
        return float(self.grid_times[1] - self.grid_times[0])

    @property
    def n_scenarios(self) -> int:
        return self.dW.shape[0]


def sample_drivers(grid_times: np.ndarray, n_scenarios: int, seed: int,
                   d: int = 1, l: int = 1) -> BrownianPair:
    if n_scenarios < 1:
        raise ValueError(f"need at least one scenario, got {n_scenarios}")
    grid_times = np.asarray(grid_times, dtype=np.float64)
    N = len(grid_times) - 1
    sdt = np.sqrt(grid_times[1] - grid_times[0])
    dW = _increments(seed, _TAG_W, n_scenarios, N, d, sdt)
    return BrownianPair(grid_times, dW, None, int(seed), l)


@dataclass
class ScenarioEnsemble:
    """Forward paths continuing a shared initial path, one per scenario."""

    initial: Path
    drivers: BrownianPair
    x_values: np.ndarray          # (n_scenarios, N+1, d)
    valid_mask: np.ndarray = None

    def __post_init__(self):
        if self.valid_mask is None:
            self.valid_mask = np.ones(self.x_values.shape[0], dtype=bool)

    @property
    def n_scenarios(self) -> int:
        return self.x_values.shape[0]

    @property
    def excluded_count(self) -> int:
        return int((~self.valid_mask).sum())


def simulate_forward(model, initial: Path, drivers: BrownianPair) -> ScenarioEnsemble:
    """Euler scheme continuing the initial path; coefficients see the whole
    history built so far, including the prefix.

    The paths are filled into a time-major (N+1, n, d) buffer, so each step
    writes one contiguous row (and reads one of sampled dW); x_values is its
    (n, N+1, d) view and the coefficients read read-only (n, i+1, d) views.
    """
    grid = initial.grid_times
    if len(grid) != len(drivers.grid_times) or not np.allclose(grid, drivers.grid_times):
        raise ValueError("initial path and drivers must share the grid")
    d, k, l = model.dims
    if drivers.dW.shape[2] != d or drivers.l != l:
        raise ValueError(
            f"driver dimensions {drivers.dW.shape[2]},{drivers.l} "
            f"do not match model dims {(d, l)}"
        )
    n = drivers.n_scenarios
    N = len(grid) - 1
    i_t = initial.t_index
    dt = initial.dt
    X = np.empty((N + 1, n, d))
    X[: i_t + 1] = initial.values[:, None, :]
    history = _history_view(X)
    for i in range(i_t, N):
        prefix = history[:, : i + 1]
        X[i + 1] = (X[i] + model.b(prefix) * dt
                    + np.einsum("nij,nj->ni", model.sigma(prefix), drivers.dW[:, i]))
    valid = np.all(np.isfinite(X), axis=(0, 2))
    if not valid.all():
        X = np.where(valid[None, :, None], X, 0.0)
    return ScenarioEnsemble(initial, drivers, X.transpose(1, 0, 2), valid)


def random_initial_path(grid_times: np.ndarray, t_index: int, dim: int,
                        rng: np.random.Generator, scale: float = 1.0) -> Path:
    """A random walk initial path used by probe-based checks."""
    dt = grid_times[1] - grid_times[0]
    steps = rng.normal(0.0, scale * np.sqrt(dt), size=(t_index, dim))
    start = rng.normal(0.0, scale, size=(1, dim))
    vals = np.vstack([start, start + np.cumsum(steps, axis=0)]) if t_index else start
    return Path(grid_times, vals)
