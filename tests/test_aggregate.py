import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_difference, random_grid, separated_values
from qmil.aggregate import (
    InstanceGrid,
    QuantileHead,
    QuantileState,
    downscale_mask,
    max_agg_backward,
    max_agg_forward,
    mean_agg_backward,
    mean_agg_forward,
    quantile_agg_backward,
    quantile_agg_forward,
    quantile_heads,
    quantile_pool,
    quantile_ranks,
)
from qmil.layers import FcnModel


def _grid(probs, mask, shape=None):
    probs = np.asarray(probs, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    return InstanceGrid(probs, mask, shape or (probs.shape[0], 1))


class TestDownscaleMask:
    def test_all_foreground(self):
        model = FcnModel([2, 2])
        grid = downscale_mask(np.ones((64, 64), dtype=np.uint8), model)
        assert grid.shape == (14, 14)
        assert grid.all()

    def test_single_pixel_uses_fallback(self):
        model = FcnModel([2, 2])
        mask = np.zeros((32, 32), dtype=np.uint8)
        mask[20, 20] = 1
        grid = downscale_mask(mask, model)
        assert grid.sum() == 1

    def test_half_plane_matches_brute_force(self):
        model = FcnModel([2, 2])
        r, d = model.receptive_field, model.downsample
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[:, 17:] = 1
        grid = downscale_mask(mask, model)
        side = model.grid_side(40)
        for i in range(side):
            for j in range(side):
                count = mask[i * d : i * d + r, j * d : j * d + r].sum()
                assert grid[i, j] == (1 if 2 * count >= r * r else 0)

    @settings(max_examples=80, deadline=None)
    @given(
        side=st.sampled_from([16, 17, 33, 64, 65]),
        density=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_window_count(self, side, density, seed):
        # at 16, 33 and 65 px the last cell's window stops short of the edge;
        # sparse masks leave every cell below half and take the fallback
        model = FcnModel([2, 2])
        r, d, g = model.receptive_field, model.downsample, model.grid_side(side)
        mask = (np.random.default_rng(seed).uniform(size=(side, side)) < density)
        mask = mask.astype(np.uint8)
        counts = np.array([
            [mask[i * d : i * d + r, j * d : j * d + r].sum() for j in range(g)]
            for i in range(g)
        ])
        expected = (2 * counts >= r * r).astype(np.uint8)
        if not expected.any():
            expected[np.unravel_index(np.argmax(counts), counts.shape)] = 1
        grid = downscale_mask(mask, model)
        assert grid.dtype == np.uint8
        np.testing.assert_array_equal(grid, expected)

    def test_from_spatial_validates(self):
        with pytest.raises(ValueError, match="foreground"):
            InstanceGrid.from_spatial(np.full((2, 2, 2), 0.5), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sum to 1"):
            InstanceGrid.from_spatial(np.full((2, 2, 2), 0.9), np.ones((2, 2)))


class TestMeanAgg:
    def test_identical_instances(self):
        p = np.array([0.2, 0.8])
        grid = _grid(np.tile(p, (5, 1)), np.ones(5))
        np.testing.assert_allclose(mean_agg_forward(grid), p)

    def test_two_instance_symmetry(self):
        grid = _grid([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        np.testing.assert_allclose(mean_agg_forward(grid), [0.5, 0.5])

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, (4, 5), 3)
        fg = np.flatnonzero(grid.mask)
        expected = sum(grid.probs[i] for i in fg) / len(fg)
        np.testing.assert_allclose(mean_agg_forward(grid), expected, atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (3, 3), 2)
        assert not mean_agg_backward(grid, np.zeros(2)).any()

    def test_backward_single_instance_passthrough(self):
        grid = _grid([[0.3, 0.7]], [1])
        g = np.array([1.5, -0.5])
        np.testing.assert_allclose(mean_agg_backward(grid, g)[0], g)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (3, 4), 3)
        u = rng.normal(size=3)
        analytic = mean_agg_backward(grid, u)

        def loss_of(probs):
            g = InstanceGrid(probs, grid.mask, grid.grid_shape)
            return float(mean_agg_forward(g) @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (4, 4), 2)
        grad = mean_agg_backward(grid, rng.normal(size=2))
        assert not grad[~grid.mask].any()


class TestMaxAgg:
    def test_single_instance_identity(self):
        p = np.array([0.3, 0.7])
        state = max_agg_forward(_grid([p], [1]))
        np.testing.assert_allclose(state.bag_probs, p)

    def test_max_value(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.7, 0.3]])
        state = max_agg_forward(_grid(probs, [1, 1, 1]))
        np.testing.assert_allclose(state.class_maxima, [0.9, 0.9])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, (4, 4), 3)
        state = max_agg_forward(grid)
        fg = np.flatnonzero(grid.mask)
        for c in range(3):
            best_val, best_idx = -1.0, -1
            for i in fg:
                if grid.probs[i, c] > best_val:
                    best_val, best_idx = grid.probs[i, c], i
            assert state.class_maxima[c] == best_val
            assert state.argmax_instances[c] == best_idx

    def test_ties_break_to_smallest_index(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        state = max_agg_forward(_grid(probs, [1, 1]))
        assert list(state.argmax_instances) == [0, 0]

    def test_backward_zero(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (3, 3), 2)
        state = max_agg_forward(grid)
        assert not max_agg_backward(state, grid, np.zeros(2)).any()

    def test_single_instance_renormalization_jacobian(self):
        rng = np.random.default_rng(6)
        probs = np.array([[0.3, 0.7]])
        grid = _grid(probs, [1])
        u = rng.normal(size=2)
        state = max_agg_forward(grid)
        analytic = max_agg_backward(state, grid, u)

        def loss_of(p):
            g = InstanceGrid(p, grid.mask, grid.grid_shape)
            return float(max_agg_forward(g).bag_probs @ u)

        np.testing.assert_allclose(central_difference(loss_of, probs), analytic, atol=1e-6)

    def test_backward_finite_differences_tie_free(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, (3, 4), 3, separated=True)
        u = rng.normal(size=3)
        state = max_agg_forward(grid)
        analytic = max_agg_backward(state, grid, u)

        def loss_of(p):
            g = InstanceGrid(p, grid.mask, grid.grid_shape)
            return float(max_agg_forward(g).bag_probs @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        state = max_agg_forward(grid)
        grad = max_agg_backward(state, grid, rng.normal(size=2))
        assert not grad[~grid.mask].any()


def _oracle_pool(grid, num_quantiles):
    """Independent pure-python sort-then-index quantile oracle."""
    fg = [int(i) for i in np.flatnonzero(grid.mask)]
    n = len(fg)
    values = np.empty((num_quantiles, grid.num_classes))
    achievers = np.empty((num_quantiles, grid.num_classes), dtype=np.int64)
    for c in range(grid.num_classes):
        ordered = sorted(fg, key=lambda i: (grid.probs[i, c], i))
        for q in range(1, num_quantiles + 1):
            import math

            rank = math.ceil(n * (q - 0.5) / num_quantiles)
            idx = ordered[rank - 1]
            values[q - 1, c] = grid.probs[idx, c]
            achievers[q - 1, c] = idx
    return values, achievers


class TestQuantilePool:
    def test_rank_formula_ten_of_five(self):
        assert list(quantile_ranks(10, 5)) == [1, 3, 5, 7, 9]

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**6), q=st.integers(1, 2000))
    def test_ranks_nondecreasing_within_one_to_n(self, n, q):
        ranks = quantile_ranks(n, q)
        assert ranks.shape == (q,)
        assert (np.diff(ranks) >= 0).all()
        assert ranks.min() >= 1 and ranks.max() <= n

    def test_all_equal_values(self):
        grid = _grid(np.full((6, 2), 0.5), np.ones(6))
        values, achievers = quantile_pool(grid, 4)
        np.testing.assert_array_equal(values, 0.5)
        assert ((achievers >= 0) & (achievers < 6)).all()

    def test_single_instance(self):
        grid = _grid([[0.4, 0.6]], [1])
        values, achievers = quantile_pool(grid, 7)
        np.testing.assert_array_equal(values[:, 0], 0.4)
        np.testing.assert_array_equal(values[:, 1], 0.6)
        assert (achievers == 0).all()

    def test_matches_oracle_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            grid = random_grid(rng, (h, w), int(rng.integers(2, 4)))
            q = int(rng.integers(1, 9))
            values, achievers = quantile_pool(grid, q)
            exp_values, exp_achievers = _oracle_pool(grid, q)
            np.testing.assert_array_equal(values, exp_values)
            np.testing.assert_array_equal(achievers, exp_achievers)

    def test_columns_monotone_and_extremes(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, (4, 4), 3)
        values, _ = quantile_pool(grid, 15)
        fg = grid.mask
        for c in range(3):
            col = values[:, c]
            assert (np.diff(col) >= 0).all()
            assert col[0] >= grid.probs[fg, c].min()
            assert col[-1] <= grid.probs[fg, c].max()

    def test_single_quantile_is_formula_median(self):
        rng = np.random.default_rng(11)
        grid = random_grid(rng, (3, 3), 2)
        values, _ = quantile_pool(grid, 1)
        fg_vals = grid.probs[grid.mask]
        n = fg_vals.shape[0]
        rank = -(-n // 2)  # ceil(n/2)
        for c in range(2):
            assert values[0, c] == np.sort(fg_vals[:, c])[rank - 1]


class TestQuantileAgg:
    def test_zero_head_gives_uniform(self):
        rng = np.random.default_rng(12)
        grid = random_grid(rng, (3, 3), 3)
        values, achievers = quantile_pool(grid, 5)
        _, (head,) = quantile_heads([3], 5)
        state = QuantileState(5, values, achievers, head)
        bag, _ = quantile_agg_forward(state)
        np.testing.assert_allclose(bag, 1.0 / 3.0)

    def test_hand_computed_logits(self):
        # all pooled values 0.5; one weight of 2*ln3 makes logits [0, ln3]
        grid = _grid(np.full((4, 2), 0.5), np.ones(4))
        values, achievers = quantile_pool(grid, 3)
        _, (head,) = quantile_heads([2], 3)
        head.weights[1, 0] = 2.0 * np.log(3.0)
        state = QuantileState(3, values, achievers, head)
        bag, _ = quantile_agg_forward(state)
        np.testing.assert_allclose(bag, [0.25, 0.75], atol=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(13)
        grid = random_grid(rng, (3, 4), 2)
        values, achievers = quantile_pool(grid, 6)
        head = QuantileHead(rng.normal(size=(2, 12)), rng.normal(size=2))
        state = QuantileState(6, values, achievers, head)
        bag, _ = quantile_agg_forward(state)
        logits = head.weights @ values.T.reshape(-1) + head.bias
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(bag, e / e.sum(), atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(14)
        grid = random_grid(rng, (3, 3), 2)
        values, achievers = quantile_pool(grid, 4)
        head = QuantileHead(rng.normal(size=(2, 8)), rng.normal(size=2))
        state = QuantileState(4, values, achievers, head)
        _, cache = quantile_agg_forward(state)
        gp, gw, gb = quantile_agg_backward(state, grid, np.zeros(2), cache)
        assert not gp.any() and not gw.any() and not gb.any()

    def test_single_instance_receives_all_routed_gradient(self):
        rng = np.random.default_rng(15)
        grid = _grid([[0.3, 0.7]], [1])
        q = 5
        values, achievers = quantile_pool(grid, q)
        head = QuantileHead(rng.normal(size=(2, 2 * q)), rng.normal(size=2))
        state = QuantileState(q, values, achievers, head)
        bag, cache = quantile_agg_forward(state)
        u = rng.normal(size=2)
        gp, _, _ = quantile_agg_backward(state, grid, u, cache)
        assert gp.shape == (1, 2)
        # the routed gradient sums the per-quantile contributions per class
        grad_logits = bag * (u - float(u @ bag))
        grad_vec = head.weights.T @ grad_logits
        expected = grad_vec.reshape(2, q).sum(axis=1)
        np.testing.assert_allclose(gp[0], expected, atol=1e-12)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(16)
        grid = random_grid(rng, (4, 5), 3, separated=True)
        q = 5
        values, achievers = quantile_pool(grid, q)
        head = QuantileHead(rng.normal(size=(3, 3 * q)), rng.normal(size=3))
        u = rng.normal(size=3)

        def forward_loss(probs, weights, bias):
            g = InstanceGrid(probs, grid.mask, grid.grid_shape)
            v, a = quantile_pool(g, q)
            st = QuantileState(q, v, a, QuantileHead(weights, bias))
            bag, _ = quantile_agg_forward(st)
            return float(bag @ u)

        state = QuantileState(q, values, achievers, head)
        _, cache = quantile_agg_forward(state)
        gp, gw, gb = quantile_agg_backward(state, grid, u, cache)

        fd_p = central_difference(lambda p: forward_loss(p, head.weights, head.bias), grid.probs)
        np.testing.assert_allclose(gp, fd_p, atol=1e-6)
        fd_w = central_difference(lambda w: forward_loss(grid.probs, w, head.bias), head.weights)
        np.testing.assert_allclose(gw, fd_w, atol=1e-6)
        fd_b = central_difference(lambda b: forward_loss(grid.probs, head.weights, b), head.bias)
        np.testing.assert_allclose(gb, fd_b, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        values, achievers = quantile_pool(grid, 6)
        head = QuantileHead(rng.normal(size=(2, 12)), rng.normal(size=2))
        state = QuantileState(6, values, achievers, head)
        _, cache = quantile_agg_forward(state)
        gp, _, _ = quantile_agg_backward(state, grid, rng.normal(size=2), cache)
        assert not gp[~grid.mask].any()


class TestInvariance:
    @pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(18)
        grid = random_grid(rng, (4, 4), 3)
        perm = rng.permutation(16)
        shuffled = InstanceGrid(grid.probs[perm], grid.mask[perm], grid.grid_shape)
        head = QuantileHead(rng.normal(size=(3, 15)), rng.normal(size=3))

        def forward(g):
            if kind == "mean":
                return mean_agg_forward(g)
            if kind == "max":
                return max_agg_forward(g).bag_probs
            v, a = quantile_pool(g, 5)
            bag, _ = quantile_agg_forward(QuantileState(5, v, a, head))
            return bag

        np.testing.assert_allclose(forward(shuffled), forward(grid), atol=1e-6)

    @pytest.mark.parametrize("count", [1, 7, 196])
    def test_size_invariance(self, count):
        rng = np.random.default_rng(19)
        side = int(np.ceil(np.sqrt(count)))
        mask = np.zeros(side * side, dtype=bool)
        mask[:count] = True
        probs = np.stack([separated_values(rng, side * side) for _ in range(2)], axis=1)
        grid = InstanceGrid(probs, mask, (side, side))
        head = QuantileHead(rng.normal(size=(2, 30)), rng.normal(size=2))
        assert mean_agg_forward(grid).shape == (2,)
        values, achievers = quantile_pool(grid, 15)
        bag, _ = quantile_agg_forward(QuantileState(15, values, achievers, head))
        assert bag.shape == (2,)
        np.testing.assert_allclose(bag.sum(), 1.0, atol=1e-6)
        assert grid.mask[achievers].all()
