import numpy as np
import pytest

import qmil
from qmil.layers import MISSING
from qmil.synthgen import BagRecipe, DEFAULT_TEXTURES, default_tasks, generate_dataset
from qmil.trainer import (
    DivergenceError,
    TrainConfig,
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
        probs_mean, cache = forward_bag(state.model, None, crop, crop_mask, "mean", 15)
        grids = cache[2]
        for t in range(2):
            assert grids[t].probs.shape[0] == 1
            np.testing.assert_allclose(probs_mean[t], grids[t].probs[0], atol=1e-6)
        # every quantile of a one-instance bag equals that instance's value
        _, cache_q = forward_bag(state.model, state.heads, crop, crop_mask, "quantile", 15)
        for t in range(2):
            q_state, _ = cache_q[3][t]
            for c in range(counts[t]):
                np.testing.assert_allclose(q_state.values[:, c], cache_q[2][t].probs[0, c])


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
        model, heads = load_checkpoint(path)
        assert np.array_equal(model.flat, state.model.flat)
        for a, b in zip(model.layers, state.model.layers, strict=True):
            assert np.array_equal(a.kernel, b.kernel) and np.array_equal(a.bias, b.bias)
        for a, b in zip(heads, state.heads, strict=True):
            assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

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
    def test_round_trip_preserves_behavior(self, tmp_path):
        train_bags, test_bags, counts = _tiny_dataset(groups=6)
        cfg = _cfg(aggregator="quantile", epochs=2)
        state = init_state(counts, cfg)
        for _ in range(cfg.epochs):
            train_epoch(state, train_bags, cfg)
        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, state)
        model, heads = load_checkpoint(path)
        for a, b in zip(model.layers, state.model.layers):
            np.testing.assert_array_equal(a.kernel, b.kernel)
            np.testing.assert_array_equal(a.bias, b.bias)
        assert heads is not None and len(heads) == 2
        for a, b in zip(heads, state.heads):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)

    def test_mean_checkpoint_has_no_heads(self, tmp_path):
        train_bags, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg(aggregator="mean", epochs=1)
        state = init_state(counts, cfg)
        train_epoch(state, train_bags, cfg)
        path = tmp_path / "ckpt.mit"
        save_checkpoint(path, state)
        _, heads = load_checkpoint(path)
        assert heads is None


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
