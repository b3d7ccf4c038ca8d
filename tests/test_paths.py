"""Path container, metric, and the elementary path operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathfk import (GridAlignmentError, Path, discretized_model, get_model,
                    horizontal_extend, make_grid, path_dist, restrict,
                    sup_norm, vertical_bump)
from pathfk.paths import discretize_values


def walk(grid, t_index, dim=1, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    vals = np.cumsum(rng.normal(0.0, scale, size=(t_index + 1, dim)), axis=0)
    return Path(grid, vals)


# -- construction --------------------------------------------------------


def test_grid_is_uniform_and_starts_at_zero():
    grid = make_grid(2.0, 8)
    assert grid[0] == 0.0 and grid[-1] == 2.0 and len(grid) == 9
    assert np.allclose(np.diff(grid), 0.25)


def test_rejects_bad_grids():
    with pytest.raises(ValueError):
        make_grid(1.0, 0)
    with pytest.raises(ValueError):
        Path(np.array([0.1, 0.2]), np.zeros((1, 1)))      # not from 0
    with pytest.raises(ValueError):
        Path(np.array([0.0, 0.1, 0.3]), np.zeros((1, 1)))  # non-uniform


def test_rejects_bad_values():
    grid = make_grid(1.0, 4)
    with pytest.raises(ValueError):
        Path(grid, np.zeros((6, 1)))          # longer than the grid
    with pytest.raises(ValueError):
        Path(grid, np.array([[np.nan]]))


def test_path_is_immutable():
    p = Path(make_grid(1.0, 4), np.zeros((3, 1)))
    with pytest.raises(ValueError):
        p.values[0] = 1.0


def test_basic_geometry():
    p = Path(make_grid(1.0, 4), np.array([[0.0], [1.0], [2.0]]))
    assert p.t_index == 2
    assert p.current_time == 0.5
    assert p.horizon == 1.0
    assert p.dt == 0.25
    assert p.endpoint[0] == 2.0


def test_time_to_index_alignment():
    p = Path(make_grid(1.0, 4), np.zeros((5, 1)))
    assert p.time_to_index(0.75) == 3
    with pytest.raises(GridAlignmentError):
        p.time_to_index(0.3)


# -- bump / extend -------------------------------------------------------


def test_vertical_bump_only_moves_the_endpoint():
    p = walk(make_grid(1.0, 8), 4, seed=1)
    q = vertical_bump(p, np.array([0.5]))
    assert np.array_equal(q.values[:-1], p.values[:-1])
    assert q.values[-1, 0] == p.values[-1, 0] + 0.5


def test_vertical_bump_inverse():
    p = walk(make_grid(1.0, 8), 4, seed=2)
    q = vertical_bump(vertical_bump(p, np.array([0.3])), np.array([-0.3]))
    assert np.allclose(q.values, p.values)


def test_horizontal_extend_is_flat():
    p = walk(make_grid(1.0, 8), 3, seed=3)
    q = horizontal_extend(p, 0.75)
    assert q.t_index == 6
    assert np.array_equal(q.values[: p.t_index + 1], p.values)
    assert np.all(q.values[p.t_index:] == p.endpoint)
    with pytest.raises(ValueError):
        horizontal_extend(p, 0.25)       # backwards


def test_restrict_then_extend_roundtrip_on_flat_tail():
    p = walk(make_grid(1.0, 8), 2, seed=4)
    q = horizontal_extend(p, 1.0)
    assert restrict(q, p.current_time) == p


# -- metric --------------------------------------------------------------


@st.composite
def path_pair(draw):
    N = draw(st.integers(2, 8))
    dim = draw(st.integers(1, 3))
    grid = make_grid(1.0, N)
    ta = draw(st.integers(0, N))
    tb = draw(st.integers(0, N))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    a = Path(grid, rng.normal(size=(ta + 1, dim)))
    b = Path(grid, rng.normal(size=(tb + 1, dim)))
    return a, b


@settings(max_examples=50, deadline=None)
@given(path_pair())
def test_distance_symmetry_and_identity(pair):
    a, b = pair
    dab, dba = path_dist(a, b), path_dist(b, a)
    assert dab.total == pytest.approx(dba.total)
    assert path_dist(a, a).total == 0.0
    if a.t_index == b.t_index and not np.array_equal(a.values, b.values):
        assert dab.total > 0.0


@settings(max_examples=50, deadline=None)
@given(path_pair(), path_pair())
def test_distance_triangle_inequality(p1, p2):
    a, b = p1
    c, _ = p2
    if a.dimension != c.dimension or abs(a.dt - c.dt) > 1e-12:
        return
    assert (path_dist(a, b).total
            <= path_dist(a, c).total + path_dist(c, b).total + 1e-12)


def test_distance_decomposition():
    grid = make_grid(1.0, 4)
    a = Path(grid, np.array([[0.0], [1.0]]))
    b = Path(grid, np.array([[0.0], [1.0], [1.0], [2.0]]))
    d = path_dist(a, b)
    # the shorter path is compared through its stopped extension
    assert d.sup_component == pytest.approx(1.0)
    assert d.time_component == pytest.approx(np.sqrt(0.5))


def test_sup_norm_uses_euclidean_norm_per_time():
    p = Path(make_grid(1.0, 2), np.array([[3.0, 4.0], [0.0, 1.0]]))
    assert sup_norm(p) == pytest.approx(5.0)


# -- discretizer ---------------------------------------------------------


def test_discretize_freezes_between_nodes():
    vals = np.array([[[0.0], [1.0], [2.0], [3.0], [4.0]]])
    q = discretize_values(vals, 0, 2)
    # nodes at steps 0 and 2; values held at the last node, endpoint kept
    assert q[0, :, 0].tolist() == [0.0, 0.0, 2.0, 2.0, 4.0]
    # from a later anchor, the prefix before it is untouched
    q = discretize_values(np.arange(6.0)[None, :, None], 1, 2)
    assert q[0, :, 0].tolist() == [0.0, 1.0, 1.0, 3.0, 3.0, 5.0]


def test_discretize_full_resolution_is_identity():
    vals = np.random.default_rng(5).normal(size=(3, 9, 2))
    assert np.array_equal(discretize_values(vals, 0, 1), vals)
    # at full resolution a frozen model is the model, bit for bit, also on
    # the time-major histories the engines pass and for a terminal that
    # sums over time (the freeze keeps the layout it is given)
    x = vals[:, :, :1].transpose(1, 0, 2).copy().transpose(1, 0, 2)
    y, z = np.ones((3, 1)), np.zeros((3, 1, 1))
    for name in ("path-f", "asian"):
        m = get_model(name)
        dm = discretized_model(m, 8, 0.0, make_grid(1.0, 8))
        assert np.array_equal(dm.Phi(x, 0.125), m.Phi(x, 0.125))
        if m.f is not None:
            assert np.array_equal(dm.f(x, y, z), m.f(x, y, z))


def test_discretize_idempotent():
    vals = np.random.default_rng(6).normal(size=(3, 9, 1))
    q = discretize_values(vals, 0, 4)
    assert np.array_equal(discretize_values(q, 0, 4), q)


def test_discretize_refinement_consistency():
    # histories frozen at 4 nodes, refrozen at 2 nodes, equal the direct
    # 2-node freeze (node sets are nested), from any anchor
    vals = np.random.default_rng(7).normal(size=(3, 9, 1))
    for anchor, stride in ((0, 2), (4, 1)):
        twice = discretize_values(discretize_values(vals, anchor, stride),
                                  anchor, 2 * stride)
        assert np.array_equal(twice, discretize_values(vals, anchor, 2 * stride))


def test_discretize_misaligned_counts_rejected():
    with pytest.raises(GridAlignmentError):
        discretized_model(get_model("heat"), 3, 0.0, make_grid(1.0, 8))
