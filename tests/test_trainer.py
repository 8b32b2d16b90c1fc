import dataclasses
import gc
import re
import threading
import tracemalloc

import numpy as np
import pytest

from conftest import FD_STEP
from qmil import trainer
from qmil.aggregate import Mean, make_aggregator
from qmil.layers import MISSING, FcnModel, init_params, masked_cross_entropy
from qmil.synthgen import BagRecipe, DEFAULT_TEXTURES, default_tasks, generate_dataset
from qmil.tensor import load_named_tensors, save_named_tensors
from qmil.trainer import (
    DivergenceError,
    TrainConfig,
    backward_bag,
    evaluate,
    forward_bag,
    init_state,
    load_checkpoint,
    load_config,
    parse_config,
    save_checkpoint,
    train_config_from,
    train_epoch,
)


def _tiny_dataset(seed=0, groups=12, group_size=1, image_size=32):
    recipe = BagRecipe(
        image_size=image_size,
        textures=DEFAULT_TEXTURES[:2],
        mixture=(0.5, 0.5),
        tasks=default_tasks(0.3),
        group_size=group_size,
    )
    pure0 = BagRecipe(image_size=image_size, textures=DEFAULT_TEXTURES[:2],
                      mixture=(1.0, 0.0), tasks=default_tasks(0.3), group_size=group_size)
    pure1 = BagRecipe(image_size=image_size, textures=DEFAULT_TEXTURES[:2],
                      mixture=(0.0, 1.0), tasks=default_tasks(0.3), group_size=group_size)
    return generate_dataset([(pure0, groups // 2), (pure1, groups // 2)], seed=seed)


def _cfg(**kwargs):
    base = dict(crop_size=16, epochs=2, lr=0.02, lr_decay=1.0, seed=0,
                aggregator="mean", mirror=True, rotate90=True)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainEpoch:
    def test_frozen_step_leaves_parameters_unchanged(self):
        train_bags, _, counts = _tiny_dataset()
        cfg = _cfg(lr=0.0)
        state = init_state(counts, cfg)
        before = [group.params.copy() for group in state.groups]
        loss = train_epoch(state, train_bags, cfg)
        assert np.isfinite(loss)
        assert state.loss_history == [loss]
        for group, b in zip(state.groups, before, strict=True):
            np.testing.assert_array_equal(group.params, b)

    def test_loss_decreases_on_separable_data(self):
        train_bags, _, counts = _tiny_dataset(groups=16)
        cfg = _cfg(epochs=8)
        state = init_state(counts, cfg)
        for _ in range(cfg.epochs):
            train_epoch(state, train_bags, cfg)
        assert state.loss_history[-1] < 0.5 * state.loss_history[0]

    def test_same_seed_identical_history(self):
        train_bags, _, counts = _tiny_dataset()
        histories = []
        for _ in range(2):
            cfg = _cfg(epochs=3)
            state = init_state(counts, cfg)
            for _ in range(cfg.epochs):
                train_epoch(state, train_bags, cfg)
            histories.append(tuple(state.loss_history))
        assert histories[0] == histories[1]

    def test_nan_input_raises_divergence_error(self):
        train_bags, _, counts = _tiny_dataset(groups=4)
        train_bags[0].image[...] = np.nan
        cfg = _cfg()
        state = init_state(counts, cfg)
        with pytest.raises(DivergenceError, match="epoch 0"):
            for _ in range(3):
                train_epoch(state, train_bags, cfg)

    def test_empty_training_set(self):
        _, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg()
        state = init_state(counts, cfg)
        with pytest.raises(ValueError, match="empty"):
            train_epoch(state, [], cfg)

    @pytest.mark.parametrize("run", [train_epoch, evaluate], ids=["train_epoch", "evaluate"])
    def test_config_naming_another_aggregator_is_rejected(self, run):
        train_bags, _, counts = _tiny_dataset(groups=2)
        state = init_state(counts, _cfg(aggregator="max"))
        with pytest.raises(ValueError, match="pools with the max aggregator.*aggregator mean"):
            run(state, train_bags, _cfg(aggregator="mean"))

    def test_whole_image_crop_size_disables_sampling(self):
        train_bags, _, counts = _tiny_dataset(image_size=32)
        cfg = _cfg(crop_size=32, epochs=1)
        state = init_state(counts, cfg)
        train_epoch(state, train_bags, cfg)  # no crop rejection on 78% disks
        assert len(state.loss_history) == 1


class TestEvaluate:
    def test_group_of_identical_images_matches_single(self):
        train_bags, _, counts = _tiny_dataset(groups=4)
        solo = train_bags[0]
        import copy

        twin = copy.deepcopy(solo)
        cfg = _cfg()
        state = init_state(counts, cfg)
        res_single = evaluate(state, [solo], cfg)
        res_group = evaluate(state, [solo, twin], cfg)
        for t in range(2):
            np.testing.assert_allclose(
                res_group.bag_probs[0][t], res_single.bag_probs[0][t]
            )
        np.testing.assert_array_equal(res_group.group_preds, res_single.group_preds)

    def test_untrained_zero_head_quantile_is_uniform(self):
        train_bags, _, counts = _tiny_dataset(groups=8)
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        res = evaluate(state, train_bags, cfg)
        for probs in res.bag_probs:
            for t, vec in enumerate(probs):
                np.testing.assert_allclose(vec, 1.0 / counts[t])
        # uniform scores argmax to class 0; accuracy is the class-0 share
        share0 = np.mean([b.labels[0] == 0 for b in train_bags])
        np.testing.assert_allclose(res.task_accuracies[0], share0)

    def test_accuracy_matches_hand_count(self):
        train_bags, test_bags, counts = _tiny_dataset(groups=8)
        cfg = _cfg(epochs=3)
        state = init_state(counts, cfg)
        for _ in range(cfg.epochs):
            train_epoch(state, train_bags, cfg)
        res = evaluate(state, test_bags, cfg)
        for t in range(2):
            pairs = [
                (p, l)
                for p, l in zip(res.group_preds[:, t], res.group_labels[:, t])
                if l != MISSING
            ]
            expected = sum(p == l for p, l in pairs) / len(pairs)
            np.testing.assert_allclose(res.task_accuracies[t], expected)

    def test_disagreeing_group_labels_rejected(self):
        train_bags, _, counts = _tiny_dataset(groups=2, group_size=2)
        flipped = train_bags[1]
        flipped.labels = tuple(1 - label for label in flipped.labels)
        cfg = _cfg()
        state = init_state(counts, cfg)
        with pytest.raises(ValueError, match=f"group {flipped.group_id} "):
            evaluate(state, train_bags, cfg)

    def test_missing_labels_skipped(self):
        train_bags, _, counts = _tiny_dataset(groups=6)
        labels = list(train_bags[0].labels)
        labels[1] = MISSING
        train_bags[0].labels = tuple(labels)
        cfg = _cfg()
        state = init_state(counts, cfg)
        res = evaluate(state, train_bags, cfg)
        assert (res.group_labels[:, 1] == MISSING).sum() == 1
        assert np.isfinite(res.task_accuracies[1])

    @pytest.fixture
    def pooled_bags(self, monkeypatch):
        """Bags at the pool threshold, a quantile state with random heads, a
        pool of two threads (tier-1 does not pin BLAS, so it would not
        otherwise engage) and the set of threads that ran forward_bag."""
        side = int(np.ceil(np.sqrt(trainer.PARALLEL_MIN_PIXELS)))
        train_bags, test_bags, counts = _tiny_dataset(groups=6, image_size=side)
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        # zero heads would make every bag uniform whatever its instances
        heads = state.groups[1].params
        heads[...] = np.random.default_rng(1).normal(size=heads.size)
        ran_on = set()

        def spy(*args):
            ran_on.add(threading.get_ident())
            return forward_bag(*args)

        monkeypatch.setattr(trainer, "forward_bag", spy)
        monkeypatch.setattr(trainer, "_eval_workers", lambda: 2)
        return state, train_bags + test_bags, cfg, ran_on

    def test_pool_matches_sequential_bit_for_bit(self, monkeypatch, pooled_bags):
        state, bags, cfg, ran_on = pooled_bags
        threads_before = set(threading.enumerate())
        pooled = evaluate(state, bags, cfg)
        assert ran_on and threading.get_ident() not in ran_on
        gc.collect()  # an unclosed resource would warn now, and warnings are errors
        assert set(threading.enumerate()) == threads_before
        monkeypatch.setattr(trainer, "_eval_workers", lambda: 1)
        sequential = evaluate(state, bags, cfg, keep_grids=True)
        assert pooled.grids is None
        assert [len(grids) for grids in sequential.grids] == [2] * len(bags)
        assert len(pooled.bag_probs) == len(bags)
        for got, want in zip(pooled.bag_probs, sequential.bag_probs):
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        np.testing.assert_array_equal(pooled.group_preds, sequential.group_preds)

    def test_pool_raises_the_first_error_in_bag_order(self, monkeypatch, pooled_bags):
        state, bags, cfg, ran_on = pooled_bags
        bags[2] = dataclasses.replace(bags[2], image=np.full_like(bags[2].image, np.nan))
        bags[4] = dataclasses.replace(bags[4], mask=np.pad(bags[4].mask, (0, 8)))
        threads_before = set(threading.enumerate())
        with pytest.raises(FloatingPointError) as pooled:
            evaluate(state, bags, cfg)
        assert ran_on and threading.get_ident() not in ran_on
        assert set(threading.enumerate()) == threads_before
        monkeypatch.setattr(trainer, "_eval_workers", lambda: 1)
        with pytest.raises(FloatingPointError) as sequential:
            evaluate(state, bags, cfg)
        assert str(pooled.value) == str(sequential.value)
        with pytest.raises(ValueError, match="mask shape"):
            evaluate(state, bags[3:], cfg)  # the later bad bag fails on its own

class TestDegenerateSingleInstance:
    def test_aggregators_collapse_to_instance_distribution(self):
        train_bags, _, counts = _tiny_dataset()
        bag = train_bags[0]
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        r = state.model.receptive_field
        crop = bag.image[:r, :r]
        crop_mask = np.ones((r, r), dtype=np.uint8)
        # mean aggregation over the single instance is the identity
        probs_mean, cache = forward_bag(state.model, Mean(), [None, None], crop, crop_mask)
        grids = cache[2]
        for t in range(2):
            assert grids[t].probs.shape[0] == 1
            np.testing.assert_allclose(probs_mean[t], grids[t].probs[0], atol=1e-6)
        # every quantile of a one-instance bag equals that instance's value
        _, cache_q = forward_bag(state.model, state.aggregator, state.heads, crop, crop_mask)
        for t in range(2):
            values, _ = cache_q[2][t].pooled
            for c in range(counts[t]):
                np.testing.assert_allclose(values[:, c], cache_q[2][t].probs[0, c])


@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_end_to_end_gradient_matches_central_differences(kind):
    """forward_bag -> masked_cross_entropy -> backward_bag against the loss itself.

    Float64 throughout, on a 24 px image (a 4x4 instance grid) whose mask
    has background, with three tasks of which the middle one is MISSING.
    Checks a sample of the trunk's parameters in every layer and every
    quantile head parameter.
    """
    counts = [2, 3, 2]
    labels = (1, MISSING, 0)
    q = 5
    rng = np.random.default_rng(23)
    model = init_params(FcnModel(counts, dtype=np.float64), 4)
    aggregator = make_aggregator(kind, q)
    heads, head_groups = aggregator.init_heads(counts, dtype=np.float64)
    for group in head_groups:
        group.params[...] = rng.normal(0.0, 0.5, size=group.params.size)
    image = rng.uniform(size=(24, 24, 3))
    mask = np.zeros((24, 24), dtype=np.uint8)
    mask[2:22, 4:24] = 1

    def loss():
        bag_probs, _ = forward_bag(model, aggregator, heads, image, mask)
        return masked_cross_entropy(bag_probs, labels)[0]

    bag_probs, cache = forward_bag(model, aggregator, heads, image, mask)
    _, loss_grads = masked_cross_entropy(bag_probs, labels)
    grads = backward_bag(model, aggregator, cache, loss_grads)
    assert len(grads[1]) == 2 * len(counts) * len(head_groups)

    def check(flat, analytic, index):
        for i in index:
            saved = flat[i]
            flat[i] = saved + FD_STEP
            up = loss()
            flat[i] = saved - FD_STEP
            down = loss()
            flat[i] = saved
            np.testing.assert_allclose(analytic[i], (up - down) / (2 * FD_STEP),
                                       rtol=1e-5, atol=1e-8, err_msg=f"entry {i}")

    trunk = np.concatenate(grads[0], axis=None)
    assert trunk.shape == model.flat.shape
    starts = np.cumsum([0] + [g.size for g in grads[0]])
    index = np.concatenate([
        rng.choice(np.arange(lo, hi), size=min(hi - lo, 12), replace=False)
        for lo, hi in zip(starts[:-1], starts[1:])
    ])
    check(model.flat, trunk, index)
    for group in head_groups:
        head_flat = group.params
        head_grad = np.concatenate(grads[1], axis=None)
        assert head_grad.shape == head_flat.shape
        check(head_flat, head_grad, range(head_flat.size))
        # the MISSING task's head receives exactly zero gradient
        assert not grads[1][2].any() and not grads[1][3].any()
        assert grads[1][0].any() and grads[1][4].any()


def _group_arrays(state):
    """The arrays the model and the heads read, in parameter-group layout."""
    trunk = [a for layer in state.model.layers for a in (layer.kernel, layer.bias)]
    heads = [a for head in state.heads for a in (head.weights, head.bias)]
    return [trunk, heads]


class TestParamGroups:
    def test_trained_values_are_read_through_the_views(self, tmp_path):
        train_bags, _, counts = _tiny_dataset(groups=6)
        cfg = _cfg(aggregator="quantile", epochs=1)
        state = init_state(counts, cfg)
        before = [group.params.copy() for group in state.groups]
        train_epoch(state, train_bags, cfg)
        assert [group.name for group in state.groups] == ["trunk", "heads"]
        for group, arrays, start in zip(state.groups, _group_arrays(state), before, strict=True):
            assert not np.array_equal(group.params, start)  # the step moved them
            assert all(np.shares_memory(a, group.params) for a in arrays)
            assert np.array_equal(np.concatenate(arrays, axis=None), group.params)
            assert group.velocity.shape == group.grad.shape == group.params.shape

        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.model.flat, state.model.flat)
        for a, b in zip(loaded.model.layers, state.model.layers, strict=True):
            assert np.array_equal(a.kernel, b.kernel) and np.array_equal(a.bias, b.bias)
        for a, b in zip(loaded.heads, state.heads, strict=True):
            assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    def test_set_grad_fills_the_buffer_in_parameter_order(self):
        state = init_state([2, 3], _cfg(aggregator="quantile"))
        rng = np.random.default_rng(4)
        for group, arrays in zip(state.groups, _group_arrays(state), strict=True):
            grads = [rng.normal(size=a.shape).astype(a.dtype) for a in arrays]
            group.set_grad(grads)
            assert np.array_equal(group.grad, np.concatenate(grads, axis=None))
            with pytest.raises(ValueError, match="gradients for"):
                group.set_grad(grads[:-1])
            # the same number of values in another shape is refused, not reshaped
            swapped = [grads[0].reshape(grads[0].shape[::-1]), *grads[1:]]
            with pytest.raises(ValueError, match="gradient of shape"):
                group.set_grad(swapped)
            with pytest.raises(ValueError, match="gradient of shape"):  # no broadcast
                group.set_grad([*grads[:-1], grads[-1][:1]])

    @pytest.mark.parametrize("g,name", [(0, "trunk"), (1, "heads")])
    def test_non_finite_group_after_step_raises(self, g, name):
        train_bags, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        state.groups[g].velocity[-1] = np.inf
        with pytest.raises(DivergenceError, match=rf"non-finite parameters \({name}\) at epoch 0"):
            train_epoch(state, train_bags, cfg)
        assert np.isinf(state.groups[g].params[-1])
        assert np.isfinite(state.groups[1 - g].params).all()


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
    def test_round_trip_restores_model_aggregator_and_heads(self, tmp_path, kind):
        train_bags, test_bags, counts = _tiny_dataset(groups=6)
        cfg = _cfg(aggregator=kind, num_quantiles=7, epochs=2)
        state = init_state(counts, cfg)
        for _ in range(cfg.epochs):
            train_epoch(state, train_bags, cfg)
        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, state)
        loaded = load_checkpoint(path)
        assert loaded.aggregator.kind == kind
        assert loaded.aggregator.meta == state.aggregator.meta
        assert loaded.aggregator.num_quantiles == (7 if kind == "quantile" else None)
        for a, b in zip(loaded.model.layers, state.model.layers, strict=True):
            np.testing.assert_array_equal(a.kernel, b.kernel)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert len(loaded.heads) == 2
        for a, b in zip(loaded.heads, state.heads, strict=True):
            if kind == "quantile":
                np.testing.assert_array_equal(a.weights, b.weights)
                np.testing.assert_array_equal(a.bias, b.bias)
            else:
                assert a is None and b is None
        for got, want in zip(evaluate(loaded, test_bags, cfg).bag_probs,
                             evaluate(state, test_bags, cfg).bag_probs, strict=True):
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    @pytest.mark.parametrize("name, value", [
        ("meta.aggregator", [2.0, 2.0**42]),
        ("meta.task_class_counts", [2.0**42, 2.0]),
    ])
    def test_huge_metadata_is_rejected_before_allocating(self, tmp_path, name, value):
        # a Q or class count read from the file would size the heads or the
        # 1x1 layer at terabytes; the tensor shapes are checked first
        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, init_state([2, 2], _cfg(aggregator="quantile")))
        named = load_named_tensors(path)
        named[name] = np.asarray(value, dtype=np.float32)
        save_named_tensors(path, named)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="has shape"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("name, value, message", [
        # a (1,) bias would broadcast over all 8 channels
        ("conv0.bias", [1.0], "tensor 'conv0.bias' has shape (1,), expected (8,)"),
        ("conv2.bias", [1.0], "tensor 'conv2.bias' has shape (1,), expected (4,)"),
        ("task0.head.bias", [1.0], "tensor 'task0.head.bias' has shape (1,), expected (2,)"),
        ("task1.head.weights", np.ones((2, 15)), "tensor 'task1.head.weights' has shape (2, 15)"),
        ("conv2.kernel", np.ones((1, 1, 16, 5)), "tensor 'conv2.kernel' has shape (1, 1, 16, 5)"),
        ("conv1.kernel", np.ones((3, 3, 4, 16)),
         "tensor 'conv1.kernel' has shape (3, 3, 4, 16), expected a square kernel over 8"),
        ("meta.aggregator", [2.0], "tensor 'meta.aggregator' has shape (1,), expected (2,)"),
        ("conv1.bias", None, "no tensor 'conv1.bias'"),
        ("conv0.kernel", None, "no tensor 'conv0.kernel'"),
        ("task1.head.weights", None, "no tensor 'task1.head.weights'"),
        ("meta.strides", None, "no tensor 'meta.strides'"),
        ("meta.aggregator", [2.0, 2.5], "tensor 'meta.aggregator' must hold integers"),
        ("meta.aggregator", [np.nan, 15.0], "tensor 'meta.aggregator' must hold integers"),
        ("meta.aggregator", [2.0, -1.0], "tensor 'meta.aggregator' must hold integers"),
        ("meta.task_class_counts", [2.0, 1.0], "tensor 'meta.task_class_counts' must hold"),
        ("meta.task_class_counts", [], "tensor 'meta.task_class_counts' must hold"),
        ("meta.strides", [2.0, 2.0, np.inf], "tensor 'meta.strides' must hold integers"),
        ("meta.strides", [2.0, 2.0, 2.0], "tensor 'meta.strides' must list"),
        ("task2.head.bias", [0.0, 0.0], "unexpected tensor 'task2.head.bias'"),
        ("meta.aggregator", [1.0, 0.0], "unexpected tensor 'task0.head.weights'"),  # mean
        ("meta.aggregator", None, "no tensor 'meta.aggregator'"),  # a checkpoint before it
        ("meta.aggregator", [3.0, 0.0], "'meta.aggregator' holds [3, 0], which records no"),
        ("meta.aggregator", [2.0, 0.0], "'meta.aggregator' holds [2, 0], which records no"),
        ("meta.aggregator", [1.0, 15.0], "'meta.aggregator' holds [1, 15], which records no"),
        ("meta.aggregator", [2.0, 7.0], "tensor 'task0.head.weights' has shape (2, 30), "
                                        "expected (2, 14)"),
    ])
    def test_bad_tensor_is_named(self, tmp_path, name, value, message):
        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, init_state([2, 2], _cfg(aggregator="quantile")))
        named = load_named_tensors(path)
        if value is None:
            del named[name]
        else:
            named[name] = np.asarray(value, dtype=np.float32)
        save_named_tensors(path, named)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)


class TestConfigFile:
    def test_parse_known_keys(self):
        text = """
        # training settings
        crop_size = 48
        lr = 0.015
        aggregator = quantile
        task_weights = 1.0, 2.0
        mirror = false
        crop_sizes = 11, 32, 64
        """
        values = parse_config(text)
        assert values["crop_size"] == 48
        assert values["lr"] == 0.015
        assert values["task_weights"] == (1.0, 2.0)
        assert values["mirror"] is False
        assert values["crop_sizes"] == (11, 32, 64)

    def test_unknown_key_is_an_error(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("learning_rate = 0.1")

    def test_duplicate_key_is_an_error(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("lr = 0.1\nlr = 0.2")

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("this is not a config line")

    def test_bad_boolean(self):
        with pytest.raises(ValueError, match="boolean"):
            parse_config("mirror = maybe")

    def test_train_config_from_values(self, tmp_path):
        path = tmp_path / "cfg"
        path.write_text("lr = 0.5\nepochs = 3\nseed = 9\nnum_groups = 10\n")
        values = load_config(path)
        cfg = train_config_from(values)
        assert (cfg.lr, cfg.epochs, cfg.seed) == (0.5, 3, 9)
        assert values["num_groups"] == 10  # non-train keys pass through

    @pytest.mark.parametrize("field,value", [
        ("crop_size", 0),
        ("epochs", -1),
        ("momentum", 1.5),
        ("lr_decay", -1.0),
        ("head_lr_scale", -1.0),
        ("lr", float("nan")),
        ("lr", float("inf")),
        ("lr_decay", float("nan")),
        ("head_lr_scale", float("inf")),
        ("max_resample_attempts", 0),
        pytest.param("task_weights", (float("nan"), 1.0), id="task_weights-nan"),
        pytest.param("task_weights", (1.0, float("inf")), id="task_weights-inf"),
        pytest.param("task_weights", (-1.0, 1.0), id="task_weights-negative"),
    ])
    def test_out_of_range_field_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_invalid_aggregator_rejected(self):
        with pytest.raises(ValueError, match="aggregator"):
            TrainConfig(aggregator="median")

    def test_task_weight_arity_checked(self):
        cfg = _cfg(task_weights=(1.0,))
        with pytest.raises(ValueError, match="task weights"):
            cfg.weights_for(2)

    def test_task_weight_count_checked_by_init_state(self):
        with pytest.raises(ValueError, match="3 task weights for 2 tasks"):
            init_state([2, 2], _cfg(task_weights=(1.0, 1.0, 1.0)))
