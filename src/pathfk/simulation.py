"""Two independent Brownian drivers, the forward Euler scheme, and the
discrete forward / backward Ito integrals.

Randomness is counter-based (Philox keyed by seed and a driver tag) with
normals produced by inverse-CDF from fixed-consumption uniforms, so the
increments of scenario s are a pure function of (seed, s) and regeneration
is bit-identical regardless of batch size or worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .paths import Path
from .reports import CheckReport

_TAG_W = 1
_TAG_B = 2
# map [0,1) uniforms strictly inside (0,1) before ndtri
_U_SCALE = 1.0 - 2.0 ** -52
_U_SHIFT = 2.0 ** -53


def _keyed_normals(seed: int, tag: int, shape, skip: int = 0) -> np.ndarray:
    """Normals of the (seed, tag) stream, one uniform each, after passing
    over the first `skip` of them: Philox yields four uniforms per counter
    step, so the jump is skip // 4 counter steps plus skip % 4 draws."""
    bitgen = np.random.Philox(key=(int(seed) & ((1 << 64) - 1)) + (tag << 64))
    bitgen.advance(skip // 4)
    lead = skip % 4
    u = np.random.Generator(bitgen).random(lead + int(np.prod(shape)))[lead:]
    return ndtri(u.reshape(shape) * _U_SCALE + _U_SHIFT)


def _history_view(buf: np.ndarray) -> np.ndarray:
    """Read-only (n, time, d) view of a time-major (time, n, d) buffer: the
    block that model coefficients read."""
    view = buf.transpose(1, 0, 2)
    view.flags.writeable = False
    return view


@dataclass
class BrownianPair:
    """Sampled increments of the two independent drivers on a shared grid."""

    grid_times: np.ndarray
    dW: np.ndarray  # (n_scenarios, N, d)
    dB: np.ndarray  # (n_scenarios, N, l)
    seed: int

    @property
    def dt(self) -> float:
        return float(self.grid_times[1] - self.grid_times[0])

    @property
    def n_scenarios(self) -> int:
        return self.dW.shape[0]

    def regenerate_scenario(self, s: int):
        """Recompute (dW_s, dB_s) from scratch, jumping the streams straight
        to row s; bit-identical to the stored rows."""
        _, N, d = self.dW.shape
        l = self.dB.shape[2]
        sdt = np.sqrt(self.dt)
        w = _keyed_normals(self.seed, _TAG_W, (N, d), skip=s * N * d) * sdt
        b = _keyed_normals(self.seed, _TAG_B, (N, l), skip=s * N * l) * sdt
        return w, b


def sample_drivers(grid_times: np.ndarray, n_scenarios: int, seed: int,
                   d: int = 1, l: int = 1) -> BrownianPair:
    if n_scenarios < 1:
        raise ValueError(f"need at least one scenario, got {n_scenarios}")
    grid_times = np.asarray(grid_times, dtype=np.float64)
    N = len(grid_times) - 1
    dt = grid_times[1] - grid_times[0]
    sdt = np.sqrt(dt)
    dW = _keyed_normals(seed, _TAG_W, (n_scenarios, N, d)) * sdt
    dB = _keyed_normals(seed, _TAG_B, (n_scenarios, N, l)) * sdt
    return BrownianPair(grid_times, dW, dB, int(seed))


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
    writes one contiguous row; x_values is its (n, N+1, d) view and the
    coefficients read read-only (n, i+1, d) views of it.
    """
    grid = initial.grid_times
    if len(grid) != len(drivers.grid_times) or not np.allclose(grid, drivers.grid_times):
        raise ValueError("initial path and drivers must share the grid")
    d, k, l = model.dims
    if drivers.dW.shape[2] != d or drivers.dB.shape[2] != l:
        raise ValueError(
            f"driver dimensions {drivers.dW.shape[2]},{drivers.dB.shape[2]} "
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


def forward_integral(integrand: np.ndarray, dW: np.ndarray) -> np.ndarray:
    """Per-scenario sum of a(t_i) . dW_i (left-endpoint evaluation)."""
    integrand = np.asarray(integrand, dtype=np.float64)
    if integrand.shape != dW.shape:
        raise ValueError(f"integrand shape {integrand.shape} != increments {dW.shape}")
    return np.einsum("nid,nid->n", integrand, dW)


def backward_integral(integrand: np.ndarray, dB: np.ndarray) -> np.ndarray:
    """Per-scenario sum of a(t_{i+1}) . dB_i.

    The integrand array must already hold right-endpoint values, i.e.
    integrand[:, i] = a(t_{i+1}); this right-endpoint Riemann sum is the
    single backward-integral convention used everywhere in the package.
    """
    integrand = np.asarray(integrand, dtype=np.float64)
    if integrand.shape != dB.shape:
        raise ValueError(f"integrand shape {integrand.shape} != increments {dB.shape}")
    return np.einsum("nid,nid->n", integrand, dB)


def moment_check(ensemble: ScenarioEnsemble, p: float, C_p: float, q: float) -> CheckReport:
    """Empirical sup-moment of the forward path against C_p (1 + |gamma|^q)."""
    if p < 2:
        raise ValueError(f"moment order must be >= 2, got {p}")
    i_t = ensemble.initial.t_index
    X = ensemble.x_values[ensemble.valid_mask, i_t:]
    sup_abs = np.max(np.linalg.norm(X, axis=2), axis=1)
    moment = float(np.mean(sup_abs ** p))
    from .paths import sup_norm
    bound = C_p * (1.0 + sup_norm(ensemble.initial) ** q)
    ratio = moment / bound
    return CheckReport.make(
        f"moment_p{p}", ratio, 1.0, X.shape[0],
        details=[f"E[sup|X|^{p}]={moment:.6g}", f"bound={bound:.6g}"],
        samples=[("empirical_moment", moment), ("bound", bound)],
    )


def random_initial_path(grid_times: np.ndarray, t_index: int, dim: int,
                        rng: np.random.Generator, scale: float = 1.0) -> Path:
    """A random walk initial path used by probe-based checks."""
    dt = grid_times[1] - grid_times[0]
    steps = rng.normal(0.0, scale * np.sqrt(dt), size=(t_index, dim))
    start = rng.normal(0.0, scale, size=(1, dim))
    vals = np.vstack([start, start + np.cumsum(steps, axis=0)]) if t_index else start
    return Path(grid_times, vals)
