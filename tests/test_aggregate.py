import dataclasses

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    batch_grid,
    central_difference,
    instance_grid,
    instances,
    random_grid,
    separated_values,
)
from qmil.aggregate import (
    Max,
    Mean,
    Quantile,
    QuantileHead,
    aggregate_backward,
    aggregate_forward,
    downscale_mask,
    make_aggregator,
    quantile_plans,
    quantile_pool,
    quantile_ranks,
    task_grids,
)
from qmil.augment import crops_per_step
from qmil.layers import FcnModel, instance_softmax_backward

MEAN, MAX = Mean(), Max()


def _head(weights, bias):
    """A quantile head over weights and bias, with fresh gradient arrays of their shapes."""
    return QuantileHead(weights, bias, np.empty_like(weights), np.empty_like(bias))


def _grid(probs, mask, shape=None):
    probs = np.asarray(probs, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    return instance_grid(probs, mask, shape or (probs.shape[0], 1))


def _backward(aggregator, grid, cache, grad_bag):
    """The probability gradient aggregator.backward writes, for a grid of one bag whose
    gradient grad_bag is (C,), into a fresh zeroed array; backward itself returns None."""
    out = np.zeros_like(grid.probs)
    assert aggregator.backward(grid, cache, grad_bag[None], out) is None
    return out


def _head_grads(heads):
    """Every quantile head's gradient arrays, weights then bias per head; none for None heads."""
    return [g for head in heads if head is not None for g in (head.grad_weights, head.grad_bias)]


def _bag(aggregator, grid, head):
    """The (C,) prediction of a one-task grid of one bag."""
    return aggregator.forward(grid, [head])[0][0]


def _pool(grid, num_quantiles):
    """quantile_pool's (B, C, Q) (values, achieving instances) of a grid, from its flat
    index."""
    values, index = quantile_pool(grid, num_quantiles)
    assert index.shape == (values.size,)
    index = index.reshape(values.shape)
    columns = np.broadcast_to(np.arange(grid.num_classes)[:, None], index.shape)
    assert np.array_equal(index % grid.num_classes, columns)
    return values, index // grid.num_classes


def _task_grid(rng, shape, counts, num_bags=1):
    """A grid of num_bags random bags of (h, w) instances over tasks of counts, every
    task's rows a distribution, with a random mask."""
    n = num_bags * shape[0] * shape[1]
    mask = rng.uniform(size=n) < 0.7
    mask[:: shape[0] * shape[1]] = True  # every bag has a foreground instance
    raw = [rng.uniform(0.05, 1.0, size=(n, c)) for c in counts]
    probs = np.concatenate([r / r.sum(axis=1, keepdims=True) for r in raw], axis=1)
    return batch_grid(probs, mask, (num_bags, *shape), counts)


class TestDownscaleMask:
    def test_all_foreground(self):
        model = FcnModel([2, 2])
        grid = downscale_mask(np.ones((1, 64, 64), dtype=np.uint8), model)
        assert grid.shape == (1, 14, 14)
        assert grid.all()

    def test_single_pixel_uses_fallback(self):
        model = FcnModel([2, 2])
        mask = np.zeros((32, 32), dtype=np.uint8)
        mask[20, 20] = 1
        grid = downscale_mask(mask[None], model)
        assert grid.sum() == 1

    def test_half_plane_matches_brute_force(self):
        model = FcnModel([2, 2])
        r, d = model.receptive_field, model.downsample
        mask = np.zeros((40, 40), dtype=np.uint8)
        mask[:, 17:] = 1
        (grid,) = downscale_mask(mask[None], model)
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
        mask = (np.random.default_rng(seed).uniform(size=shape) < density)
        mask = mask.astype(np.uint8)
        # every r x r window, then every d-th one per axis: cell (i, j)'s window
        counts = sliding_window_view(mask, (r, r))[::d, ::d].sum(axis=(2, 3))
        expected = (2 * counts >= r * r).astype(np.uint8)
        if not expected.any():
            expected[np.unravel_index(np.argmax(counts), counts.shape)] = 1
        grid = downscale_mask(mask[None], model)
        assert grid.dtype == np.uint8
        np.testing.assert_array_equal(grid, expected[None])

    def test_a_mask_narrower_than_the_receptive_field_is_refused(self):
        model = FcnModel([2, 2])
        r = model.receptive_field
        for shape in ((r - 1, r - 1), (r - 1, 64), (64, r - 1)):
            with pytest.raises(ValueError, match=f"too small for {r} px windows"):
                downscale_mask(np.ones((1, *shape), dtype=np.uint8), model)
        assert downscale_mask(np.ones((1, r, r), dtype=np.uint8), model).shape == (1, 1, 1)

    def test_task_grids_validate_one_task(self):
        with pytest.raises(ValueError, match="bag 0 has no foreground"):
            instances(np.zeros((1, 2, 2)))
        with pytest.raises(ValueError, match="bag 1 has no foreground"):
            instances(np.stack([np.ones((2, 2)), np.zeros((2, 2))]))
        with pytest.raises(ValueError, match="sum to 1"):
            task_grids(np.full((1, 2, 2, 2), 0.9), instances(np.ones((1, 2, 2))), [2])
        with pytest.raises(ValueError, match="mask shape"):
            task_grids(np.full((1, 2, 2, 2), 0.5), instances(np.ones((1, 2, 3))), [2])
        # a nan row has a nan sum, which compares false against any bound
        for bad_row in ([np.nan, 0.5], [1.5, -0.5]):
            probs = np.full((1, 2, 2, 2), 0.5)
            probs[0, 1, 0] = bad_row
            with pytest.raises(ValueError, match="finite and not negative"):
                task_grids(probs, instances(np.ones((1, 2, 2))), [2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_grids_reject_every_bad_value_anywhere(self, dtype):
        # the extremes are read at argmin and argmax: a nan at any position
        # must be found by both checks' reads
        mask = instances(np.ones((1, 2, 2)))
        for bad, message in ((np.nan, "finite and not negative"),
                             (-0.25, "finite and not negative"),
                             (np.inf, "finite and not negative"), (2.0, "sum to 1")):
            for cell in range(4):
                for channel in range(4):
                    probs = np.full((1, 2, 2, 4), 0.5, dtype=dtype)
                    probs.reshape(4, 4)[cell, channel] = bad
                    with pytest.raises(ValueError, match=message):
                        task_grids(probs, mask, [2, 2])
        # a row off by just over the 1e-4 tolerance fails, one just under passes
        for error, fails in ((1.5e-4, True), (0.5e-4, False)):
            probs = np.full((1, 2, 2, 4), 0.5, dtype=dtype)
            probs[0, 1, 1, 0] += error
            if fails:
                with pytest.raises(ValueError, match="sum to 1"):
                    task_grids(probs, mask, [2, 2])
            else:
                task_grids(probs, mask, [2, 2])

    def test_task_grids_check_every_task(self):
        probs = np.full((1, 2, 2, 5), 0.5)
        probs[..., :3] = 1.0 / 3.0
        mask = instances(np.ones((1, 2, 2)))
        grid = task_grids(probs, mask, [3, 2])
        assert grid.num_classes == 5 and grid.class_counts == (3, 2)
        tasks = grid.tasks()
        assert [g.num_classes for g in tasks] == [3, 2]
        assert [g.class_counts for g in tasks] == [(3,), (2,)]
        assert all(g.mask is grid.mask and g.fg_idx is grid.fg_idx for g in tasks)
        assert all(np.shares_memory(g.probs, grid.probs) for g in tasks)
        np.testing.assert_array_equal(np.concatenate([g.probs for g in tasks], axis=1),
                                      grid.probs)
        probs[0, 0, 1, 3:] = [0.9, 0.3]  # the second task's row sums to 1.2
        with pytest.raises(ValueError, match="sum to 1"):
            task_grids(probs, mask, [3, 2])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_grids_pool_every_task_at_once(self, dtype):
        rng = np.random.default_rng(20)
        counts = [3, 2]
        raw = rng.choice([0.1, 0.2, 0.7], size=(1, 5, 6, sum(counts)))
        probs = np.concatenate(
            [raw[..., :3] / raw[..., :3].sum(-1, keepdims=True),
             raw[..., 3:] / raw[..., 3:].sum(-1, keepdims=True)], axis=-1
        ).astype(dtype)
        mask = rng.uniform(size=(1, 5, 6)) < 0.6
        grid = task_grids(probs, instances(mask), counts)
        heads = [_head(rng.normal(size=(c, 7 * c)), np.zeros(c)) for c in counts]
        bag = aggregate_forward(grid, Quantile(7), heads)[0]
        values, achievers = _pool(grid, 7)
        for t, (task, sl) in enumerate(zip(grid.tasks(), (slice(0, 3), slice(3, 5)))):
            alone = batch_grid(np.ascontiguousarray(task.probs), task.mask, task.grid_shape)
            want_values, want_achievers = _pool(alone, 7)
            np.testing.assert_array_equal(values[:, sl], want_values)
            np.testing.assert_array_equal(achievers[:, sl], want_achievers)
            np.testing.assert_array_equal(bag[:, sl],
                                          aggregate_forward(alone, Quantile(7), [heads[t]])[0])


class TestMeanAgg:
    def test_identical_instances(self):
        p = np.array([0.2, 0.8])
        grid = _grid(np.tile(p, (5, 1)), np.ones(5))
        np.testing.assert_allclose(_bag(MEAN, grid, None), p)

    def test_two_instance_symmetry(self):
        grid = _grid([[1.0, 0.0], [0.0, 1.0]], [1, 1])
        np.testing.assert_allclose(_bag(MEAN, grid, None), [0.5, 0.5])

    def test_matches_direct_summation_oracle(self):
        rng = np.random.default_rng(0)
        grid = random_grid(rng, (4, 5), 3)
        fg = np.flatnonzero(grid.mask)
        expected = sum(grid.probs[i] for i in fg) / len(fg)
        np.testing.assert_allclose(_bag(MEAN, grid, None), expected, atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(1)
        grid = random_grid(rng, (3, 3), 2)
        _, cache = MEAN.forward(grid, None)
        assert not _backward(MEAN, grid, cache, np.zeros(2)).any()

    def test_backward_single_instance_passthrough(self):
        grid = _grid([[0.3, 0.7]], [1])
        g = np.array([1.5, -0.5])
        _, cache = MEAN.forward(grid, None)
        np.testing.assert_allclose(_backward(MEAN, grid, cache, g)[0], g)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(2)
        grid = random_grid(rng, (3, 4), 3)
        u = rng.normal(size=3)
        _, cache = MEAN.forward(grid, None)
        analytic = _backward(MEAN, grid, cache, u)

        def loss_of(probs):
            g = batch_grid(probs, grid.mask, grid.grid_shape)
            return float(_bag(MEAN, g, None) @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(3)
        grid = random_grid(rng, (4, 4), 2)
        _, cache = MEAN.forward(grid, None)
        grad = _backward(MEAN, grid, cache, rng.normal(size=2))
        assert not grad[~grid.mask].any()


class TestMaxAgg:
    def test_single_instance_identity(self):
        p = np.array([0.3, 0.7])
        np.testing.assert_allclose(_bag(MAX, _grid([p], [1]), None), p)

    def test_max_value(self):
        probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.7, 0.3]])
        _, (_, maxima, _) = MAX.forward(_grid(probs, [1, 1, 1]), None)
        np.testing.assert_allclose(maxima, [[0.9, 0.9]])

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(4)
        grid = random_grid(rng, (4, 4), 3)
        _, (_, (maxima,), (achievers,)) = MAX.forward(grid, None)
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
        assert achievers.tolist() == [[0, 0]]

    def test_backward_zero(self):
        rng = np.random.default_rng(5)
        grid = random_grid(rng, (3, 3), 2)
        _, cache = MAX.forward(grid, None)
        assert not _backward(MAX, grid, cache, np.zeros(2)).any()

    def test_single_instance_renormalization_jacobian(self):
        rng = np.random.default_rng(6)
        probs = np.array([[0.3, 0.7]])
        grid = _grid(probs, [1])
        u = rng.normal(size=2)
        _, cache = MAX.forward(grid, None)
        analytic = _backward(MAX, grid, cache, u)

        def loss_of(p):
            g = batch_grid(p, grid.mask, grid.grid_shape)
            return float(_bag(MAX, g, None) @ u)

        np.testing.assert_allclose(central_difference(loss_of, probs), analytic, atol=1e-6)

    def test_backward_finite_differences_tie_free(self):
        rng = np.random.default_rng(7)
        grid = random_grid(rng, (3, 4), 3, separated=True)
        u = rng.normal(size=3)
        _, cache = MAX.forward(grid, None)
        analytic = _backward(MAX, grid, cache, u)

        def loss_of(p):
            g = batch_grid(p, grid.mask, grid.grid_shape)
            return float(_bag(MAX, g, None) @ u)

        np.testing.assert_allclose(central_difference(loss_of, grid.probs), analytic, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(8)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        _, cache = MAX.forward(grid, None)
        grad = _backward(MAX, grid, cache, rng.normal(size=2))
        assert not grad[~grid.mask].any()


def _oracle_pool(grid, num_quantiles):
    """Independent pure-python sort-then-index quantile oracle: (C, Q) values and
    achievers."""
    fg = [int(i) for i in np.flatnonzero(grid.mask)]
    n = len(fg)
    values = np.empty((grid.num_classes, num_quantiles))
    achievers = np.empty((grid.num_classes, num_quantiles), dtype=np.int64)
    for c in range(grid.num_classes):
        ordered = sorted(fg, key=lambda i: (grid.probs[i, c], i))
        for q in range(1, num_quantiles + 1):
            import math

            rank = math.ceil(n * (q - 0.5) / num_quantiles)
            idx = ordered[rank - 1]
            values[c, q - 1] = grid.probs[idx, c]
            achievers[c, q - 1] = idx
    return values, achievers


def _stable_argsort_pool(grid, num_quantiles):
    """Reference: one stable argsort per class, the loop quantile_pool replaced; (C, Q)
    values and achievers."""
    fg_idx = np.flatnonzero(grid.mask)
    ranks = quantile_ranks(fg_idx.size, num_quantiles) - 1
    values = np.empty((grid.num_classes, num_quantiles), dtype=grid.probs.dtype)
    achievers = np.empty((grid.num_classes, num_quantiles), dtype=np.int64)
    for c in range(grid.num_classes):
        col = grid.probs[fg_idx, c]
        chosen = np.argsort(col, kind="stable")[ranks]
        values[c] = col[chosen]
        achievers[c] = fg_idx[chosen]
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
        grid = instance_grid(probs, mask, (n, 1))
        (values,), (achievers,) = _pool(grid, q)
        ref_values, ref_achievers = _stable_argsort_pool(grid, q)
        assert values.dtype == ref_values.dtype
        assert np.array_equal(values, ref_values)
        assert np.array_equal(np.signbit(values), np.signbit(ref_values))
        assert np.array_equal(achievers, ref_achievers)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_bags_of_few_and_many_instances_match_the_loop(self, dtype):
        # a batch of one sorts as any batch does, by keys (float32) or a
        # lexsort, on a few foreground instances and on many
        rng = np.random.default_rng(31)
        palette = np.array(_TIE_LEVELS, dtype=dtype)
        for n in (1, 4, 159, 160, 161):
            for q in (1, 7, 15, 40):
                probs = rng.choice(palette, size=(n + 3, 4))
                mask = np.ones(n + 3, dtype=bool)
                mask[rng.choice(n + 3, size=3, replace=False)] = False
                grid = instance_grid(probs, mask, (n + 3, 1))
                assert grid.fg_idx.size == n
                (values,), (achievers,) = _pool(grid, q)
                ref_values, ref_achievers = _stable_argsort_pool(grid, q)
                assert np.array_equal(values, ref_values)
                assert np.array_equal(np.signbit(values), np.signbit(ref_values))
                assert np.array_equal(achievers, ref_achievers)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_bag_of_a_batch_pools_as_it_would_alone(self, dtype):
        # the sort orders by bag first, so each bag's run sorts on its own; bags of
        # one instance and bags of many, with ties across bags
        rng = np.random.default_rng(31)
        palette = np.array(_TIE_LEVELS, dtype=dtype)
        for num_bags, side in ((1, 1), (3, 1), (16, 2), (5, 14), (33, 1), (2, 62)):
            for q in (1, 7, 15, 40):
                size = side * side
                probs = rng.choice(palette, size=(num_bags * size, 4))
                mask = rng.uniform(size=num_bags * size) < 0.7
                mask[::size] = True  # every bag has a foreground instance
                grid = batch_grid(probs, mask, (num_bags, side, side))
                values, achievers = _pool(grid, q)
                assert values.shape == achievers.shape == (num_bags, 4, q)
                for b in range(num_bags):
                    rows = slice(b * size, (b + 1) * size)
                    alone = instance_grid(probs[rows], mask[rows], (side, side))
                    ref_values, ref_achievers = _stable_argsort_pool(alone, q)
                    assert np.array_equal(values[b], ref_values)
                    assert np.array_equal(np.signbit(values[b]), np.signbit(ref_values))
                    assert np.array_equal(achievers[b], ref_achievers + b * size)

    def test_a_plan_whose_keys_would_not_fit_63_bits_is_refused(self):
        # crop 11 on 4096 px images: 138654 crops of one instance a step over 4
        # classes need 18 bag and 20 index bits; the check reads the sizes
        # alone, so a run of one bag of one instance stands for the step
        batch, cells = crops_per_step(11, 4096), FcnModel([2, 2]).grid_side(11) ** 2
        assert (batch, cells) == (138654, 1)
        one, bounds = np.zeros(1, np.int64), np.array([0, 1])
        with pytest.raises(ValueError, match=r"^a step of 138654 bags of 1 instances over 4 "
                                             r"classes needs 18 bag, 31 value and 20 index "
                                             r"bits, more than the 63 of a sort key$"):
            quantile_plans(one, bounds, batch, cells, 4, 15)
        # one bag of 2**30 instances over 4 classes fills the 63 bits; one more
        # instance does not
        (plan,) = quantile_plans(one, bounds, 1, 2**30, 4, 15)
        assert plan.index_bits == 32
        with pytest.raises(ValueError, match="needs 0 bag, 31 value and 33 index bits"):
            quantile_plans(one, bounds, 1, 2**30 + 1, 4, 15)

    def test_a_plan_of_another_q_or_class_count_is_refused(self):
        grid = _task_grid(np.random.default_rng(3), (3, 3), (2, 2), num_bags=2)
        cells = 9
        for q, classes in ((15, 4), (16, 3), (16, 5)):
            (plan,) = quantile_plans(grid.fg_idx, grid.fg_bounds, 2, cells, classes, q)
            planned = dataclasses.replace(grid, plan=plan)
            if (q, classes) == (15, 4):
                assert all(map(np.array_equal, quantile_pool(planned, 15),
                               quantile_pool(grid, 15)))
            else:
                with pytest.raises(ValueError, match=rf"^a plan of {q} quantiles over "
                                                     rf"{classes} classes pools 15 over 4$"):
                    quantile_pool(planned, 15)

    def test_ranks_of_many_counts_are_each_counts_ranks(self):
        counts = np.array([1, 2, 4, 15, 16, 100, 3844])
        for q in (1, 2, 15, 16):
            ranks = quantile_ranks(counts, q)
            assert ranks.shape == (counts.size, q)
            for row, n in zip(ranks, counts):
                assert np.array_equal(row, quantile_ranks(int(n), q))

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
        (values,), (achievers,) = _pool(grid, 4)
        np.testing.assert_array_equal(values, 0.5)
        assert ((achievers >= 0) & (achievers < 6)).all()

    def test_single_instance(self):
        grid = _grid([[0.4, 0.6]], [1])
        (values,), (achievers,) = _pool(grid, 7)
        np.testing.assert_array_equal(values[0], 0.4)
        np.testing.assert_array_equal(values[1], 0.6)
        assert (achievers == 0).all()

    def test_matches_oracle_random_cases(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            h = int(rng.integers(1, 5))
            w = int(rng.integers(1, 5))
            grid = random_grid(rng, (h, w), int(rng.integers(2, 4)))
            q = int(rng.integers(1, 9))
            (values,), (achievers,) = _pool(grid, q)
            exp_values, exp_achievers = _oracle_pool(grid, q)
            np.testing.assert_array_equal(values, exp_values)
            np.testing.assert_array_equal(achievers, exp_achievers)

    def test_columns_monotone_and_extremes(self):
        rng = np.random.default_rng(10)
        grid = random_grid(rng, (4, 4), 3)
        (values,), _ = _pool(grid, 15)
        fg = grid.mask
        for c in range(3):
            col = values[c]
            assert (np.diff(col) >= 0).all()
            assert col[0] >= grid.probs[fg, c].min()
            assert col[-1] <= grid.probs[fg, c].max()

    def test_single_quantile_is_formula_median(self):
        rng = np.random.default_rng(11)
        grid = random_grid(rng, (3, 3), 2)
        (values,), _ = _pool(grid, 1)
        fg_vals = grid.probs[grid.mask]
        n = fg_vals.shape[0]
        rank = -(-n // 2)  # ceil(n/2)
        for c in range(2):
            assert values[c, 0] == np.sort(fg_vals[:, c])[rank - 1]


class TestQuantileAgg:
    def test_zero_head_gives_uniform(self):
        rng = np.random.default_rng(12)
        grid = random_grid(rng, (3, 3), 3)
        (head,), _ = Quantile(5).init_heads([3])
        np.testing.assert_allclose(_bag(Quantile(5), grid, head), 1.0 / 3.0)

    def test_hand_computed_logits(self):
        # all pooled values 0.5; one weight of 2*ln3 makes logits [0, ln3]
        grid = _grid(np.full((4, 2), 0.5), np.ones(4))
        (head,), _ = Quantile(3).init_heads([2])
        head.weights[1, 0] = 2.0 * np.log(3.0)
        np.testing.assert_allclose(_bag(Quantile(3), grid, head), [0.25, 0.75], atol=1e-12)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(13)
        grid = random_grid(rng, (3, 4), 2)
        (values,), _ = _pool(grid, 6)
        head = _head(rng.normal(size=(2, 12)), rng.normal(size=2))
        bag = _bag(Quantile(6), grid, head)
        logits = head.weights @ values.reshape(-1) + head.bias
        e = np.exp(logits - logits.max())
        np.testing.assert_allclose(bag, e / e.sum(), atol=1e-6)

    def test_backward_zero(self):
        rng = np.random.default_rng(14)
        grid = random_grid(rng, (3, 3), 2)
        head = _head(rng.normal(size=(2, 8)), rng.normal(size=2))
        _, cache = Quantile(4).forward(grid, [head])
        gp = _backward(Quantile(4), grid, cache, np.zeros(2))
        gw, gb = head.grad_weights, head.grad_bias
        assert not gp.any() and not gw.any() and not gb.any()

    def test_single_instance_receives_all_routed_gradient(self):
        rng = np.random.default_rng(15)
        q = 5
        grid = _grid([[0.3, 0.7]], [1])
        head = _head(rng.normal(size=(2, 2 * q)), rng.normal(size=2))
        (bag,), cache = Quantile(q).forward(grid, [head])
        u = rng.normal(size=2)
        gp = _backward(Quantile(q), grid, cache, u)
        assert gp.shape == (1, 2)
        # the routed gradient sums the per-quantile contributions per class
        grad_logits = bag * (u - float(u @ bag))
        grad_vec = head.weights.T @ grad_logits
        expected = grad_vec.reshape(2, q).sum(axis=1)
        np.testing.assert_allclose(gp[0], expected, atol=1e-12)

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(16)
        q = 5
        grid = random_grid(rng, (4, 5), 3, separated=True)
        head = _head(rng.normal(size=(3, 3 * q)), rng.normal(size=3))
        u = rng.normal(size=3)

        def forward_loss(probs, weights, bias):
            g = batch_grid(probs, grid.mask, grid.grid_shape)
            return float(_bag(Quantile(q), g, _head(weights, bias)) @ u)

        _, cache = Quantile(q).forward(grid, [head])
        gp = _backward(Quantile(q), grid, cache, u)
        gw, gb = head.grad_weights, head.grad_bias

        fd_p = central_difference(lambda p: forward_loss(p, head.weights, head.bias), grid.probs)
        np.testing.assert_allclose(gp, fd_p, atol=1e-6)
        fd_w = central_difference(lambda w: forward_loss(grid.probs, w, head.bias), head.weights)
        np.testing.assert_allclose(gw, fd_w, atol=1e-6)
        fd_b = central_difference(lambda b: forward_loss(grid.probs, head.weights, b), head.bias)
        np.testing.assert_allclose(gb, fd_b, atol=1e-6)

    def test_background_receives_zero_gradient(self):
        rng = np.random.default_rng(17)
        grid = random_grid(rng, (4, 4), 2, separated=True)
        head = _head(rng.normal(size=(2, 12)), rng.normal(size=2))
        _, cache = Quantile(6).forward(grid, [head])
        gp = _backward(Quantile(6), grid, cache, rng.normal(size=2))
        assert not gp[~grid.mask].any()


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_scatter_matches_per_class_loop_bit_for_bit(self, dtype):
        # more quantiles than instances: achievers repeat, so the order in
        # which an instance accumulates its gradients matters
        rng = np.random.default_rng(18)
        for shape, num_classes, q in (((2, 2), 2, 15), ((3, 3), 3, 7), ((1, 1), 2, 15)):
            grid = random_grid(rng, shape, num_classes)
            grid = batch_grid(grid.probs.astype(dtype), grid.mask, grid.grid_shape)
            (achievers,) = _pool(grid, q)[1]
            head = _head(rng.normal(size=(num_classes, num_classes * q)).astype(dtype),
                         rng.normal(size=num_classes).astype(dtype))
            (bag,), cache = Quantile(q).forward(grid, [head])
            u = rng.normal(size=num_classes).astype(dtype)
            gp = _backward(Quantile(q), grid, cache, u)

            grad_logits = bag * (u - (u * bag).sum())
            grad_values = (head.weights.T @ grad_logits).reshape(num_classes, q)
            want = np.zeros_like(grid.probs)
            for c in range(num_classes):
                np.add.at(want[:, c], achievers[c], grad_values[c])
            assert np.array_equal(gp, want)
            # the flat index addresses a C-contiguous array, never a column view
            # of several rows (a view of one row is C-contiguous)
            buffer = np.zeros((want.shape[0], num_classes + 3), dtype)
            if want.shape[0] > 1:
                with pytest.raises(ValueError, match="C-contiguous"):
                    Quantile(q).backward(grid, cache, u[None], buffer[:, 1 : 1 + num_classes])
        # the shapes the flat gather and scatter serve: a crop-16 step of 16 crops
        # of 2x2 cells over tasks [2, 2] at Q = 15, with its epoch's plan, and the
        # default config's step of one crop
        counts, q = (2, 2), 15
        for num_bags in (16, 1):
            grid = _task_grid(rng, (2, 2), counts, num_bags)
            (plan,) = quantile_plans(grid.fg_idx, grid.fg_bounds, num_bags, 4, 4, q)
            grid = dataclasses.replace(grid, probs=grid.probs.astype(dtype), plan=plan)
            values, achievers = _pool(grid, q)
            for b in range(num_bags):
                # every bag's gather against the pure-python oracle of the bag alone
                want_values, want_achievers = _oracle_pool(grid.bag(b), q)
                assert np.array_equal(values[b], want_values.astype(dtype))
                assert np.array_equal(achievers[b], want_achievers + 4 * b)
            heads, _ = Quantile(q).init_heads(counts, dtype=dtype)
            for head in heads:
                head.weights[...] = rng.normal(size=head.weights.shape)
                head.bias[...] = rng.normal(size=head.bias.shape)
            bag, cache = Quantile(q).forward(grid, heads)
            u = rng.normal(size=bag.shape).astype(dtype)
            got = np.zeros_like(grid.probs)
            Quantile(q).backward(grid, cache, u, got)
            # the pooled values' gradients as backward forms them, each scattered by
            # its own (bag, class) loop, in quantile order
            grad_logits = instance_softmax_backward(bag, u, counts)
            grad_values = np.concatenate(
                [(grad_logits[:, sl] @ head.weights).reshape(num_bags, -1, q)
                 for sl, head in zip((slice(0, 2), slice(2, 4)), heads)], axis=1)
            want = np.zeros_like(grid.probs)
            for b in range(num_bags):
                for c in range(4):
                    np.add.at(want[:, c], achievers[b, c], grad_values[b, c])
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_bags", [1, 3])
@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_one_pass_over_every_task_matches_each_task_alone(kind, num_bags):
    # tasks of 3 and 2 classes in one grid pool, and send their gradients
    # back, bit for bit as each task's columns would alone
    rng = np.random.default_rng(19)
    counts = [3, 2]
    aggregator = make_aggregator(kind, 5)
    grid = _task_grid(rng, (3, 4), counts, num_bags)
    heads, _ = aggregator.init_heads(counts)
    for head in heads if kind == "quantile" else ():
        head.weights[...] = rng.normal(size=head.weights.shape)
        head.bias[...] = rng.normal(size=head.bias.shape)
    bag, cache = aggregate_forward(grid, aggregator, heads)
    u = rng.normal(size=(num_bags, 5))
    got, _ = aggregate_backward(grid, aggregator, cache, u, np.zeros_like(grid.probs))
    got_heads = [g.copy() for g in _head_grads(heads)]  # which the next call refills
    assert bag.shape == (num_bags, 5)
    for task, sl, head in zip(grid.tasks(), (slice(0, 3), slice(3, 5)), heads, strict=True):
        alone = batch_grid(np.ascontiguousarray(task.probs), task.mask, task.grid_shape)
        want, alone_cache = aggregate_forward(alone, aggregator, [head])
        assert bag[:, sl].tobytes() == want.tobytes()
        want_grad, _ = aggregate_backward(alone, aggregator, alone_cache, u[:, sl],
                                          np.zeros_like(alone.probs))
        want_heads = _head_grads([head])
        assert got[:, sl].tobytes() == want_grad.tobytes()
        for a, b in zip(got_heads[:2], want_heads, strict=True):
            assert a.tobytes() == b.tobytes()
        got_heads = got_heads[2:]
    assert got_heads == []


@pytest.mark.parametrize("counts", [[2, 2], [3, 2]], ids=["2-2", "3-2"])
@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_a_batch_predicts_each_bag_as_it_would_alone(kind, counts):
    # a batch's row for each bag is the bag's batch of one, bit for bit, in
    # float32 as the model computes: bags of few instances, which a single
    # bag orders by argsort, and of many, which it orders by keys
    rng = np.random.default_rng(23)
    aggregator = make_aggregator(kind, 15)
    heads, _ = aggregator.init_heads(counts)
    for head in heads if kind == "quantile" else ():
        head.weights[...] = rng.normal(size=head.weights.shape)
        head.bias[...] = rng.normal(size=head.bias.shape)
    for num_bags, shape in ((16, (5, 5)), (5, (14, 14))):
        grid = _task_grid(rng, shape, counts, num_bags)
        probs = grid.probs.astype(np.float32)
        bag, _ = aggregator.forward(batch_grid(probs, grid.mask, grid.grid_shape, counts),
                                    heads)
        size = shape[0] * shape[1]
        for b in range(num_bags):
            rows = slice(b * size, (b + 1) * size)
            alone = batch_grid(probs[rows], grid.mask[rows], (1, *shape), counts)
            want, _ = aggregator.forward(alone, heads)
            assert bag[b : b + 1].tobytes() == want.tobytes(), (num_bags, b)


class TestInvariance:
    @pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
    def test_permutation_invariance(self, kind):
        rng = np.random.default_rng(18)
        aggregator = make_aggregator(kind, 5)
        grid = random_grid(rng, (4, 4), 3)
        perm = rng.permutation(16)
        shuffled = batch_grid(grid.probs[perm], grid.mask[perm], grid.grid_shape)
        head = _head(rng.normal(size=(3, 15)), rng.normal(size=3))

        np.testing.assert_allclose(aggregator.forward(shuffled, [head])[0],
                                   aggregator.forward(grid, [head])[0], atol=1e-6)

    @pytest.mark.parametrize("count", [1, 7, 196])
    def test_size_invariance(self, count):
        rng = np.random.default_rng(19)
        side = int(np.ceil(np.sqrt(count)))
        mask = np.zeros(side * side, dtype=bool)
        mask[:count] = True
        probs = np.stack([separated_values(rng, side * side) for _ in range(2)], axis=1)
        grid = instance_grid(probs, mask, (side, side))
        head = _head(rng.normal(size=(2, 30)), rng.normal(size=2))
        assert MEAN.forward(grid, None)[0].shape == (1, 2)
        (bag,), _ = Quantile(15).forward(grid, [head])
        (achievers,) = _pool(grid, 15)[1]
        assert bag.shape == (2,)
        np.testing.assert_allclose(bag.sum(), 1.0, atol=1e-6)
        assert grid.mask[achievers].all()


@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_head_gradients_are_written_into_the_parameter_groups(kind):
    # backward writes every head's gradient into the grad of the group that
    # trains it, laid out by head_layout; there is no group without heads
    rng = np.random.default_rng(21)
    counts = [3, 2]
    aggregator = make_aggregator(kind, 4)
    heads, groups = aggregator.init_heads(counts, 0.5)
    assert len(heads) == len(counts)
    assert [group.lr_scale for group in groups] == ([0.5] if kind == "quantile" else [])
    assert [v.shape for group in groups for v in group.views] == aggregator.head_layout(counts)
    grid = _task_grid(rng, (3, 3), counts)
    _, cache = aggregator.forward(grid, heads)
    for group in groups:
        group.grad[...] = np.nan
    _backward(aggregator, grid, cache, rng.normal(size=sum(counts)))
    assert all(np.isfinite(group.grad).all() for group in groups)  # every element written
    assert all(group.grad.any() for group in groups)