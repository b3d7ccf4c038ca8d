"""Two independent Brownian drivers and the forward Euler scheme.

Every stream is a PCG64 generator keyed by a seed and a tag through
numpy's SeedSequence, and stream_seed derives the seed of any sub-stream
(a check, a role, an index) by the same hashing, never by adding offsets.
Normals are numpy's ziggurat, drawn scenario-major in chunks and stored
time-major, (N, n, .), like the forward histories; the chunks continue one
sequential draw, so enlarging a batch keeps its earlier scenarios.  The
second driver is drawn on its first read, so solves of models without a
backward integrand g never draw it.  An ensemble keeps only its finite
scenarios and their driver rows.  `import pathfk` loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .paths import Path

_TAG_W = 1
_TAG_B = 2
_MASK64 = (1 << 64) - 1
# scenarios per chunk of a draw into strided storage
_CHUNK = 2048


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The one key derivation: the SeedSequence of `key` under `seed`."""
    return np.random.SeedSequence(int(seed) & _MASK64, spawn_key=key)


def stream_seed(seed: int, *key: int) -> int:
    """63-bit seed of the sub-stream `key` of `seed`, hashed through
    SeedSequence: distinct keys give independent streams."""
    return int(_seed_sequence(seed, *key).generate_state(1, np.uint64)[0] >> 1)


def _keyed_normals(seed: int, tag: int, shape,
                   out: Optional[np.ndarray] = None,
                   scale: float = 1.0) -> np.ndarray:
    """Standard normals of the (seed, tag) stream in the C order of `shape`,
    times `scale`, written into `out` (any array of `shape`; a new one when
    None).  They are drawn in chunks of _CHUNK along the first axis through
    one contiguous buffer; the chunks continue one draw, so the result
    equals the one-shot draw times `scale` bit for bit."""
    rng = np.random.Generator(np.random.PCG64(_seed_sequence(seed, tag)))
    out = np.empty(shape) if out is None else out
    buf = np.empty((min(shape[0], _CHUNK), *shape[1:]))
    for s in range(0, shape[0], _CHUNK):
        chunk = buf[: min(_CHUNK, shape[0] - s)]
        rng.standard_normal(out=chunk)
        np.multiply(chunk, scale, out=out[s: s + len(chunk)])
    return out


def _increments(seed: int, tag: int, n: int, N: int, width: int,
                sdt: float) -> np.ndarray:
    """Read-only (n, N, width) view of the time-major increments of one
    driver: scenario-major normals scaled by sqrt(dt) on their way into
    (N, n, width) storage."""
    buf = np.empty((N, n, width))
    _keyed_normals(seed, tag, (n, N, width), out=buf.transpose(1, 0, 2),
                   scale=sdt)
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
        # the draw holds no self: a pair is no reference cycle, so its
        # arrays go with its last reference, not at the next collection
        args = (seed, _TAG_B, *dW.shape[:2], self.l, np.sqrt(self.dt))
        self._draw_dB = lambda: _increments(*args)

    @property
    def dB(self) -> np.ndarray:
        if self._dB is None:
            self._dB = self._draw_dB()
        return self._dB

    def _kept(self, keep: np.ndarray) -> "BrownianPair":
        """The pair on the scenarios where `keep` holds, in new read-only
        time-major storage; dB is cut from this pair's on its first read."""
        cut = lambda a: _history_view(np.compress(keep, a.transpose(1, 0, 2), axis=1))
        pair = BrownianPair(self.grid_times, cut(self.dW), None, self.seed, self.l)
        dB, draw = self._dB, self._draw_dB
        pair._draw_dB = lambda: cut(draw() if dB is None else dB)
        return pair

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
    """Forward paths continuing a shared initial path, one per finite scenario."""

    initial: Path
    drivers: BrownianPair
    x_values: np.ndarray          # (n_scenarios - excluded_count, N+1, d)
    excluded_count: int = 0       # scenarios that overflowed and were dropped

    @property
    def n_scenarios(self) -> int:
        return self.x_values.shape[0] + self.excluded_count


def simulate_forward(model, initial: Path, drivers: BrownianPair) -> ScenarioEnsemble:
    """Euler scheme continuing the initial path; coefficients see the whole
    history built so far, including the prefix.

    The paths are filled into a time-major (N+1, n, d) buffer, so each step
    writes one contiguous row (and reads one of sampled dW); x_values is its
    (n, N+1, d) view and the coefficients read read-only (n, i+1, d) views.
    Scenarios not finite throughout leave the buffer and the drivers
    (BrownianPair._kept); only their count stays.
    """
    grid = initial.grid_times
    if grid is not drivers.grid_times and (
            len(grid) != len(drivers.grid_times)
            or not np.allclose(grid, drivers.grid_times)):
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
    keep = np.all(np.isfinite(X), axis=(0, 2))
    if not keep.all():
        X, drivers = np.compress(keep, X, axis=1), drivers._kept(keep)
    return ScenarioEnsemble(initial, drivers, X.transpose(1, 0, 2), n - drivers.n_scenarios)


def _simulate(model, initial: Path, n_scenarios: int, seed: int,
              dB: Optional[np.ndarray] = None) -> ScenarioEnsemble:
    """Forward paths continuing `initial` on a fresh driver pair of the
    model's widths (d, l), drawn from `seed`; a given (n_scenarios, N, l)
    dB replaces the second driver's draw."""
    d, _, l = model.dims
    drivers = sample_drivers(initial.grid_times, n_scenarios, seed, d=d, l=l)
    if dB is not None:
        drivers = BrownianPair(drivers.grid_times, drivers.dW, dB, drivers.seed)
    return simulate_forward(model, initial, drivers)


def random_initial_path(grid_times: np.ndarray, t_index: int, dim: int,
                        rng: np.random.Generator, scale: float = 1.0) -> Path:
    """A random walk initial path used by probe-based checks."""
    dt = grid_times[1] - grid_times[0]
    steps = rng.normal(0.0, scale * np.sqrt(dt), size=(t_index, dim))
    start = rng.normal(0.0, scale, size=(1, dim))
    vals = np.vstack([start, start + np.cumsum(steps, axis=0)]) if t_index else start
    return Path(grid_times, vals)
