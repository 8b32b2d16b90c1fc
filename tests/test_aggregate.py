import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_difference, random_grid, separated_values
from qmil.aggregate import (
    KEYED_SORT_MIN_INSTANCES,
    InstanceGrid,
    Max,
    Mean,
    Quantile,
    QuantileHead,
    aggregate_backward,
    aggregate_forward,
    downscale_mask,
    make_aggregator,
    quantile_pool,
    quantile_ranks,
    task_grids,
    _rank_index,
)
from qmil.layers import FcnModel

MEAN, MAX = Mean(), Max()


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
        shape=st.sampled_from([(16, 16), (17, 17), (33, 33), (64, 64), (65, 65),
                               (129, 129), (256, 256), (33, 65)]),
        density=st.one_of(st.floats(0.0, 0.02), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_brute_force_window_count(self, shape, density, seed):
        # at 16, 33, 65 and 129 px the last cell's window stops short of the
        # edge; sparse masks leave every cell below half and take the
        # fallback; the band matrices are built per axis, so one mask is not
        # square
        model = FcnModel([2, 2])
        r, d = model.receptive_field, model.downsample
        gh, gw = model.grid_side(shape[0]), model.grid_side(shape[1])
        mask = (np.random.default_rng(seed).uniform(size=shape) < density)
        mask = mask.astype(np.uint8)
        counts = np.array([
            [mask[i * d : i * d + r, j * d : j * d + r].sum() for j in range(gw)]
            for i in range(gh)
        ])
        expected = (2 * counts >= r * r).astype(np.uint8)
        if not expected.any():
            expected[np.unravel_index(np.argmax(counts), counts.shape)] = 1
        grid = downscale_mask(mask, model)
        assert grid.dtype == np.uint8
        np.testing.assert_array_equal(grid, expected)

    def test_task_grids_validate_one_task(self):
        with pytest.raises(ValueError, match="foreground"):
            task_grids(np.full((2, 2, 2), 0.5), np.zeros((2, 2)), [2])
        with pytest.raises(ValueError, match="sum to 1"):
            task_grids(np.full((2, 2, 2), 0.9), np.ones((2, 2)), [2])
        # a nan row has a nan sum, which compares false against any bound
        for bad_row in ([np.nan, 0.5], [1.5, -0.5]):
            probs = np.full((2, 2, 2), 0.5)
            probs[1, 0] = bad_row
            with pytest.raises(ValueError, match="finite and not negative"):
                task_grids(probs, np.ones((2, 2)), [2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_grids_reject_every_bad_value_anywhere(self, dtype):
        # the extremes are read at argmin and argmax: a nan at any position
        # must be found by both checks' reads
        mask = np.ones((2, 2), dtype=np.uint8)
        for bad, message in ((np.nan, "finite and not negative"),
                             (-0.25, "finite and not negative"),
                             (np.inf, "finite and not negative"), (2.0, "sum to 1")):
            for cell in range(4):
                for channel in range(4):
                    probs = np.full((2, 2, 4), 0.5, dtype=dtype)
                    probs.reshape(4, 4)[cell, channel] = bad
                    with pytest.raises(ValueError, match=message):
                        task_grids(probs, mask, [2, 2])
        # a row off by just over the 1e-4 tolerance fails, one just under passes
        for error, fails in ((1.5e-4, True), (0.5e-4, False)):
            probs = np.full((2, 2, 4), 0.5, dtype=dtype)
            probs[1, 1, 0] += error
            if fails:
                with pytest.raises(ValueError, match="sum to 1"):
                    task_grids(probs, mask, [2, 2])
            else:
                task_grids(probs, mask, [2, 2])

    def test_task_grids_check_every_task(self):
        probs = np.full((2, 2, 5), 0.5)
        probs[..., :3] = 1.0 / 3.0
        mask = np.ones((2, 2), dtype=np.uint8)
        grids = task_grids(probs, mask, [3, 2])
        assert [g.num_classes for g in grids] == [3, 2]
        assert all(g.mask is grids[0].mask and g.fg_idx is grids[0].fg_idx for g in grids)
        probs[0, 1, 3:] = [0.9, 0.3]  # the second task's row sums to 1.2
        with pytest.raises(ValueError, match="sum to 1"):
            task_grids(probs, mask, [3, 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_grids_pool_every_task_at_once(self, dtype):
        rng = np.random.default_rng(20)
        counts = [3, 2]
        raw = rng.choice([0.1, 0.2, 0.7], size=(5, 6, sum(counts)))
        probs = np.concatenate(
            [raw[..., :3] / raw[..., :3].sum(-1, keepdims=True),
             raw[..., 3:] / raw[..., 3:].sum(-1, keepdims=True)], axis=-1
        ).astype(dtype)
        mask = (rng.uniform(size=(5, 6)) < 0.6).astype(np.uint8)
        grids = task_grids(probs, mask, counts, 7)
        for t, grid in enumerate(grids):
            alone = InstanceGrid(np.ascontiguousarray(grid.probs), grid.mask, grid.grid_shape)
            values, achievers = quantile_pool(alone, 7)
            np.testing.assert_array_equal(grid.pooled[0], values)
            np.testing.assert_array_equal(grid.pooled[1], achievers)
            head = QuantileHead(rng.normal(size=(counts[t], 7 * counts[t])), np.zeros(counts[t]))
            np.testing.assert_array_equal(
                aggregate_forward(grid, Quantile(7), head)[0],
                aggregate_forward(alone, Quantile(7), head)[0],
            )
            with pytest.raises(ValueError, match="pooled 7 quantiles, expected 5"):
                aggregate_forward(grid, Quantile(5), head)


class TestMeanAgg:
    def test_identical_instances(self):
        p = np.array([0.2, 0.8])
        grid = _grid(np.tile(p, (5, 1)), np.ones(5))
        np.testing.assert_allclose(MEAN.forward(grid, None)[0], p)

    def test_two_instance_symmetry(self):
        grid = _grid([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        np.testing.assert_allclose(MEAN.forward(grid, None)[0], [0.5, 0.5])

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, (4, 5), 3)
        fg = np.flatnonzero(grid.mask)
        expected = sum(grid.probs[i] for i in fg) / len(fg)
        np.testing.assert_allclose(MEAN.forward(grid, None)[0], expected, atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (3, 3), 2)
        assert not MEAN.backward(grid, None, np.zeros(2))[0].any()

    def test_backward_single_instance_passthrough(self):
        grid = _grid([[0.3, 0.7]], [1])
        g = np.array([1.5, -0.5])
        np.testing.assert_allclose(MEAN.backward(grid, None, g)[0][0], g)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (3, 4), 3)
        u = rng.normal(size=3)
        analytic = MEAN.backward(grid, None, u)[0]

        def loss_of(probs):
            g = InstanceGrid(probs, grid.mask, grid.grid_shape)
            return float(MEAN.forward(g, None)[0] @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (4, 4), 2)
        grad = MEAN.backward(grid, None, rng.normal(size=2))[0]
        assert not grad[~grid.mask].any()


class TestMaxAgg:
    def test_single_instance_identity(self):
        p = np.array([0.3, 0.7])
        bag, _ = MAX.forward(_grid([p], [1]), None)
        np.testing.assert_allclose(bag, p)

    def test_max_value(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.7, 0.3]])
        _, (_, maxima, _) = MAX.forward(_grid(probs, [1, 1, 1]), None)
        np.testing.assert_allclose(maxima, [0.9, 0.9])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, (4, 4), 3)
        _, (_, maxima, achievers) = MAX.forward(grid, None)
        fg = np.flatnonzero(grid.mask)
        for c in range(3):
            best_val, best_idx = -1.0, -1
            for i in fg:
                if grid.probs[i, c] > best_val:
                    best_val, best_idx = grid.probs[i, c], i
            assert maxima[c] == best_val
            assert achievers[c] == best_idx

    def test_ties_break_to_smallest_index(self):
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        _, (_, _, achievers) = MAX.forward(_grid(probs, [1, 1]), None)
        assert list(achievers) == [0, 0]

    def test_backward_zero(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (3, 3), 2)
        _, cache = MAX.forward(grid, None)
        assert not MAX.backward(grid, cache, np.zeros(2))[0].any()

    def test_single_instance_renormalization_jacobian(self):
        rng = np.random.default_rng(6)
        probs = np.array([[0.3, 0.7]])
        grid = _grid(probs, [1])
        u = rng.normal(size=2)
        _, cache = MAX.forward(grid, None)
        analytic, _ = MAX.backward(grid, cache, u)

        def loss_of(p):
            g = InstanceGrid(p, grid.mask, grid.grid_shape)
            return float(MAX.forward(g, None)[0] @ u)

        np.testing.assert_allclose(central_difference(loss_of, probs), analytic, atol=1e-6)

    def test_backward_finite_differences_tie_free(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, (3, 4), 3, separated=True)
        u = rng.normal(size=3)
        _, cache = MAX.forward(grid, None)
        analytic, _ = MAX.backward(grid, cache, u)

        def loss_of(p):
            g = InstanceGrid(p, grid.mask, grid.grid_shape)
            return float(MAX.forward(g, None)[0] @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        _, cache = MAX.forward(grid, None)
        grad, _ = MAX.backward(grid, cache, rng.normal(size=2))
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


def _stable_argsort_pool(grid, num_quantiles):
    """Reference: one stable argsort per class, the loop quantile_pool replaced."""
    fg_idx = np.flatnonzero(grid.mask)
    ranks = quantile_ranks(fg_idx.size, num_quantiles) - 1
    values = np.empty((num_quantiles, grid.num_classes), dtype=grid.probs.dtype)
    achievers = np.empty((num_quantiles, grid.num_classes), dtype=np.int64)
    for c in range(grid.num_classes):
        col = grid.probs[fg_idx, c]
        chosen = np.argsort(col, kind="stable")[ranks]
        values[:, c] = col[chosen]
        achievers[:, c] = fg_idx[chosen]
    return values, achievers


# few distinct values, so ties are common; -0.0 must tie with +0.0
_TIE_LEVELS = (0.0, -0.0, 1e-40, 0.125, 0.25, 1.0 / 3.0, 0.5, 1.0)


class TestQuantilePool:
    @settings(max_examples=150, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n=st.one_of(st.integers(1, 40), st.integers(1, 4000)),
        num_classes=st.integers(2, 9),
        q=st.integers(1, 20),
        levels=st.integers(1, len(_TIE_LEVELS)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_stable_argsort_loop(self, dtype, n, num_classes, q, levels,
                                         density, seed):
        rng = np.random.default_rng(seed)
        palette = np.array(_TIE_LEVELS[:levels], dtype=dtype)
        probs = rng.choice(palette, size=(n, num_classes))
        mask = rng.uniform(size=n) < density
        mask[rng.integers(n)] = True
        grid = InstanceGrid(probs, mask, (n, 1))
        values, achievers = quantile_pool(grid, q)
        ref_values, ref_achievers = _stable_argsort_pool(grid, q)
        assert values.dtype == ref_values.dtype
        assert np.array_equal(values, ref_values)
        assert np.array_equal(np.signbit(values), np.signbit(ref_values))
        assert np.array_equal(achievers, ref_achievers)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_both_sides_of_the_keyed_sort_threshold_match_the_loop(self, dtype):
        # below KEYED_SORT_MIN_INSTANCES one stable argsort orders the
        # classes, from it on the int64 keys do
        rng = np.random.default_rng(31)
        palette = np.array(_TIE_LEVELS, dtype=dtype)
        for n in (1, 4, KEYED_SORT_MIN_INSTANCES - 1, KEYED_SORT_MIN_INSTANCES,
                  KEYED_SORT_MIN_INSTANCES + 1):
            for q in (1, 7, 15, 40):
                probs = rng.choice(palette, size=(n + 3, 4))
                mask = np.ones(n + 3, dtype=bool)
                mask[rng.choice(n + 3, size=3, replace=False)] = False
                grid = InstanceGrid(probs, mask, (n + 3, 1))
                assert grid.fg_idx.size == n
                values, achievers = quantile_pool(grid, q)
                ref_values, ref_achievers = _stable_argsort_pool(grid, q)
                assert np.array_equal(values, ref_values)
                assert np.array_equal(np.signbit(values), np.signbit(ref_values))
                assert np.array_equal(achievers, ref_achievers)

    def test_cached_rank_index_is_read_only_ranks_minus_one(self):
        for n in (1, 2, 4, 15, 16, 100, 3844):
            for q in (1, 2, 15, 16):
                index = _rank_index(n, q)
                assert np.array_equal(index, quantile_ranks(n, q) - 1)
                assert index is _rank_index(n, q)  # served from the cache
                assert not index.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    index[0] = 0

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
        (head,), _ = Quantile(5).init_heads([3])
        bag, _ = Quantile(5).forward(grid, head)
        np.testing.assert_allclose(bag, 1.0 / 3.0)

    def test_hand_computed_logits(self):
        # all pooled values 0.5; one weight of 2*ln3 makes logits [0, ln3]
        grid = _grid(np.full((4, 2), 0.5), np.ones(4))
        (head,), _ = Quantile(3).init_heads([2])
        head.weights[1, 0] = 2.0 * np.log(3.0)
        bag, _ = Quantile(3).forward(grid, head)
        np.testing.assert_allclose(bag, [0.25, 0.75], atol=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(13)
        grid = random_grid(rng, (3, 4), 2)
        values, _ = quantile_pool(grid, 6)
        head = QuantileHead(rng.normal(size=(2, 12)), rng.normal(size=2))
        bag, _ = Quantile(6).forward(grid, head)
        logits = head.weights @ values.T.reshape(-1) + head.bias
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(bag, e / e.sum(), atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(14)
        grid = random_grid(rng, (3, 3), 2)
        head = QuantileHead(rng.normal(size=(2, 8)), rng.normal(size=2))
        _, cache = Quantile(4).forward(grid, head)
        gp, (gw, gb) = Quantile(4).backward(grid, cache, np.zeros(2))
        assert not gp.any() and not gw.any() and not gb.any()

    def test_single_instance_receives_all_routed_gradient(self):
        rng = np.random.default_rng(15)
        grid = _grid([[0.3, 0.7]], [1])
        q = 5
        head = QuantileHead(rng.normal(size=(2, 2 * q)), rng.normal(size=2))
        bag, cache = Quantile(q).forward(grid, head)
        u = rng.normal(size=2)
        gp, _ = Quantile(q).backward(grid, cache, u)
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
        head = QuantileHead(rng.normal(size=(3, 3 * q)), rng.normal(size=3))
        u = rng.normal(size=3)

        def forward_loss(probs, weights, bias):
            g = InstanceGrid(probs, grid.mask, grid.grid_shape)
            bag, _ = Quantile(q).forward(g, QuantileHead(weights, bias))
            return float(bag @ u)

        _, cache = Quantile(q).forward(grid, head)
        gp, (gw, gb) = Quantile(q).backward(grid, cache, u)

        fd_p = central_difference(lambda p: forward_loss(p, head.weights, head.bias), grid.probs)
        np.testing.assert_allclose(gp, fd_p, atol=1e-6)
        fd_w = central_difference(lambda w: forward_loss(grid.probs, w, head.bias), head.weights)
        np.testing.assert_allclose(gw, fd_w, atol=1e-6)
        fd_b = central_difference(lambda b: forward_loss(grid.probs, head.weights, b), head.bias)
        np.testing.assert_allclose(gb, fd_b, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        head = QuantileHead(rng.normal(size=(2, 12)), rng.normal(size=2))
        _, cache = Quantile(6).forward(grid, head)
        gp, _ = Quantile(6).backward(grid, cache, rng.normal(size=2))
        assert not gp[~grid.mask].any()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_per_class_loop_bit_for_bit(self, dtype):
        # more quantiles than instances: achievers repeat, so the order in
        # which an instance accumulates its gradients matters
        rng = np.random.default_rng(18)
        for shape, num_classes, q in (((2, 2), 2, 15), ((3, 3), 3, 7), ((1, 1), 2, 15)):
            grid = random_grid(rng, shape, num_classes)
            grid = InstanceGrid(grid.probs.astype(dtype), grid.mask, grid.grid_shape)
            _, achievers = quantile_pool(grid, q)
            head = QuantileHead(rng.normal(size=(num_classes, num_classes * q)).astype(dtype),
                                rng.normal(size=num_classes).astype(dtype))
            bag, cache = Quantile(q).forward(grid, head)
            u = rng.normal(size=num_classes).astype(dtype)
            gp, _ = Quantile(q).backward(grid, cache, u)

            grad_logits = bag * (u - (u * bag).sum())
            grad_values = (head.weights.T @ grad_logits).reshape(num_classes, q).T
            want = np.zeros_like(grid.probs)
            for c in range(num_classes):
                np.add.at(want[:, c], achievers[:, c], grad_values[:, c])
            assert np.array_equal(gp, want)


@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_backward_into_a_column_view_matches_a_fresh_array(kind):
    rng = np.random.default_rng(19)
    grid = random_grid(rng, (3, 4), 3)
    head = QuantileHead(rng.normal(size=(3, 15)), rng.normal(size=3))
    aggregator = make_aggregator(kind, 5)
    _, cache = aggregate_forward(grid, aggregator, head)
    u = rng.normal(size=3)
    fresh, fresh_head = aggregate_backward(grid, aggregator, cache, u)
    buffer = np.zeros((12, 7))
    got, got_head = aggregate_backward(grid, aggregator, cache, u, out=buffer[:, 2:5])
    assert np.shares_memory(got, buffer)
    assert np.array_equal(buffer[:, 2:5], fresh)
    assert not buffer[:, :2].any() and not buffer[:, 5:].any()
    for a, b in zip(got_head, fresh_head, strict=True):
        assert np.array_equal(a, b)


class TestInvariance:
    @pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(18)
        grid = random_grid(rng, (4, 4), 3)
        perm = rng.permutation(16)
        shuffled = InstanceGrid(grid.probs[perm], grid.mask[perm], grid.grid_shape)
        head = QuantileHead(rng.normal(size=(3, 15)), rng.normal(size=3))

        aggregator = make_aggregator(kind, 5)
        np.testing.assert_allclose(aggregator.forward(shuffled, head)[0],
                                   aggregator.forward(grid, head)[0], atol=1e-6)

    @pytest.mark.parametrize("count", [1, 7, 196])
    def test_size_invariance(self, count):
        rng = np.random.default_rng(19)
        side = int(np.ceil(np.sqrt(count)))
        mask = np.zeros(side * side, dtype=bool)
        mask[:count] = True
        probs = np.stack([separated_values(rng, side * side) for _ in range(2)], axis=1)
        grid = InstanceGrid(probs, mask, (side, side))
        head = QuantileHead(rng.normal(size=(2, 30)), rng.normal(size=2))
        assert MEAN.forward(grid, None)[0].shape == (2,)
        bag, (_, achievers, _, _) = Quantile(15).forward(grid, head)
        assert bag.shape == (2,)
        np.testing.assert_allclose(bag.sum(), 1.0, atol=1e-6)
        assert grid.mask[achievers].all()


@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_head_gradients_fill_the_parameter_groups(kind):
    # init_heads and backward agree: one gradient per head parameter array,
    # in the layout of the groups that train them, none without heads
    rng = np.random.default_rng(21)
    counts = [3, 2]
    aggregator = make_aggregator(kind, 4)
    heads, groups = aggregator.init_heads(counts, 0.5)
    assert len(heads) == len(counts)
    assert [group.lr_scale for group in groups] == ([0.5] if kind == "quantile" else [])
    head_grads = []
    for count, head in zip(counts, heads):
        grid = random_grid(rng, (3, 3), count)
        _, cache = aggregator.forward(grid, head)
        head_grads.extend(aggregator.backward(grid, cache, rng.normal(size=count))[1])
    assert len(head_grads) == sum(len(group.shapes) for group in groups)
    for group in groups:
        group.set_grad(head_grads)  # raises unless every shape matches

