import collections
import dataclasses
import gc
import io
import re
import struct
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import FD_STEP, bag_forward, random_image
from qmil import aggregate, augment, layers, pool, tensor, trainer
from qmil.aggregate import Mean, make_aggregator, quantile_pool
from qmil.layers import (MISSING, FcnModel, conv_layout, init_params, loss_tables,
                         masked_cross_entropy)
from qmil.synthgen import (
    BagRecipe,
    DEFAULT_TEXTURES,
    default_tasks,
    generate_dataset,
    heterogeneous_recipes,
)
from qmil.trainer import (
    DivergenceError,
    TrainConfig,
    backward_bag,
    downscaled_instances,
    evaluate,
    forward_bag,
    init_state,
    load_checkpoint,
    load_config,
    parse_config,
    pool_logits,
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

    def test_non_finite_forward_raises_divergence_error(self):
        # a uint8 image cannot hold a nan, so one enters through a weight
        train_bags, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg()
        state = init_state(counts, cfg)
        state.model.params.params[0] = np.nan
        # the first step's two 32 px bags, four 16 px crops in the shuffled order
        with pytest.raises(DivergenceError,
                           match=r"non-finite forward at epoch 0, step 0, bags \[[01], [01], [01], [01]\]"):
            train_epoch(state, train_bags, cfg)

    @pytest.mark.parametrize("injected, reported", [((0.5, 2e3, 5e3, 1.0), "5000.0"),
                                                    ((0.5, 2e3, np.nan, np.inf), "nan")])
    def test_the_worst_loss_of_a_step_raises_divergence_error(self, monkeypatch, injected,
                                                              reported):
        # the largest loss of the step's crops, or its first nan
        train_bags, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg()
        state = init_state(counts, cfg)
        real = trainer.masked_cross_entropy

        def spy(*args):
            _, grad = real(*args)
            return np.array(injected), grad

        monkeypatch.setattr(trainer, "masked_cross_entropy", spy)
        with pytest.raises(DivergenceError, match=rf"^loss {reported} at epoch 0, step 0, bags"):
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

    @pytest.mark.parametrize("crop_size", [16, 32])
    def test_bags_are_left_unchanged(self, crop_size):
        # the steps read their crops as views of the bags' arrays
        train_bags, _, counts = _tiny_dataset(image_size=32)
        before = [(bag.image.tobytes(), bag.mask.tobytes()) for bag in train_bags]
        cfg = _cfg(crop_size=crop_size, epochs=1)
        train_epoch(init_state(counts, cfg), train_bags, cfg)
        assert [(bag.image.tobytes(), bag.mask.tobytes()) for bag in train_bags] == before


class TestEvaluate:
    def test_empty_evaluation_set(self):
        # one group makes no test bags, whose accuracies would be nan
        train_bags, test_bags, counts = generate_dataset(
            heterogeneous_recipes(1, image_size=32), 0)
        assert len(train_bags) == 1 and test_bags == []
        cfg = _cfg()
        state = init_state(counts, cfg)
        with pytest.raises(ValueError, match="evaluation set is empty"):
            evaluate(state, test_bags, cfg)
        assert all(np.isfinite(evaluate(state, train_bags, cfg).task_accuracies))

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

    @pytest.mark.parametrize("kind", ["mean", "quantile"])
    def test_a_label_out_of_range_raises_naming_the_first_bag(self, monkeypatch, kind):
        train_bags, _, counts = _tiny_dataset(groups=12)
        for i, labels in ((4, (2, 0)), (2, (0, 2)), (1, (MISSING, MISSING))):
            train_bags[i] = dataclasses.replace(train_bags[i], labels=labels)
        cfg = _cfg(aggregator=kind)
        state = init_state(counts, cfg)
        monkeypatch.setattr(trainer, "pool_logits", lambda *args: pytest.fail("a bag pooled"))
        with pytest.raises(ValueError, match="^bag 2: label 2 of task 1 out of range for 2 classes$"):
            evaluate(state, train_bags, cfg)
        with pytest.raises(ValueError, match="^bag 1: label 2 of task 0 out of range for 2 classes$"):
            evaluate(state, train_bags[3:], cfg)

    @pytest.fixture
    def pooled_bags(self, monkeypatch):
        """Bags at the pool threshold, a quantile state with random heads, a
        pool of two threads (forced, so that it engages whatever the
        machine's core count) and the set of threads that pooled a chunk."""
        side = int(np.ceil(np.sqrt(pool.PARALLEL_MIN_PIXELS)))
        train_bags, test_bags, counts = _tiny_dataset(groups=6, image_size=side)
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        # zero heads would make every bag uniform whatever its instances
        heads = state.groups[1].params
        heads[...] = np.random.default_rng(1).normal(size=heads.size)
        ran_on = set()

        def spy(*args):
            ran_on.add(threading.get_ident())
            return pool_logits(*args)

        monkeypatch.setattr(trainer, "pool_logits", spy)
        monkeypatch.setattr(pool, "workers", lambda: 2)
        return state, train_bags + test_bags, cfg, ran_on

    def test_pool_matches_sequential_bit_for_bit(self, monkeypatch, pooled_bags):
        state, bags, cfg, ran_on = pooled_bags
        threads_before = set(threading.enumerate())
        pooled = evaluate(state, bags, cfg)
        assert ran_on and threading.get_ident() not in ran_on
        gc.collect()  # an unclosed resource would warn now, and warnings are errors
        assert set(threading.enumerate()) == threads_before
        monkeypatch.setattr(pool, "workers", lambda: 1)
        sequential = evaluate(state, bags, cfg, keep_grids=True)
        assert pooled.grids is None
        assert [len(grids) for grids in sequential.grids] == [2] * len(bags)
        assert len(pooled.bag_probs) == len(bags)
        for got, want in zip(pooled.bag_probs, sequential.bag_probs):
            assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        np.testing.assert_array_equal(pooled.group_preds, sequential.group_preds)

    def test_pool_raises_the_first_error_in_bag_order(self, monkeypatch, pooled_bags):
        state, bags, cfg, ran_on = pooled_bags
        bags[2] = dataclasses.replace(bags[2], image=bags[2].image / 255)
        bags[4] = dataclasses.replace(bags[4], mask=np.pad(bags[4].mask, (0, 8)))
        threads_before = set(threading.enumerate())
        with pytest.raises(ValueError, match="images must be uint8") as pooled:
            evaluate(state, bags, cfg)
        assert ran_on and threading.get_ident() not in ran_on
        assert set(threading.enumerate()) == threads_before
        monkeypatch.setattr(pool, "workers", lambda: 1)
        with pytest.raises(ValueError, match="images must be uint8") as sequential:
            evaluate(state, bags, cfg)
        assert str(pooled.value) == str(sequential.value)
        with pytest.raises(ValueError, match="mask shape"):
            evaluate(state, bags[3:], cfg)  # the later bad bag fails on its own


def _chunked_bags(no_known_task_1=False):
    """28 bags, labelled for tasks of [3, 2] classes, that evaluate splits into
    chunks of 16, 2, 5 and 5: 18 bags of 64 px, 5 of 32 px and 5 of 64 px, in groups
    of 1 to 3 members spread through the bag order, a third of their labels MISSING
    (all of task 1's with no_known_task_1)."""
    rng = np.random.default_rng(7)
    big = [b for split in _tiny_dataset(groups=24, image_size=64)[:2] for b in split]
    small = [b for split in _tiny_dataset(groups=6, image_size=32)[:2] for b in split]
    bags = big[:18] + small[:5] + big[18:23]
    group_of = rng.permutation(np.repeat(np.arange(14), [3, 1, 2] * 4 + [3, 1])[:len(bags)])
    labels = np.stack([rng.integers(0, 3, 14), rng.integers(0, 2, 14)], axis=1)
    labels[rng.uniform(size=labels.shape) < 1 / 3] = MISSING
    if no_known_task_1:
        labels[:, 1] = MISSING
    return [dataclasses.replace(b, group_id=int(g), labels=tuple(labels[g].tolist()))
            for b, g in zip(bags, group_of)]


def _bag_at_a_time(state, bags, cfg):
    """evaluate's result the way it was computed before chunks: every bag evaluated
    alone, and each group's mean by np.mean over its members in bag order."""
    alone = [evaluate(state, [bag], cfg, keep_grids=True) for bag in bags]
    probs = [result.bag_probs[0] for result in alone]
    group_ids = sorted({bag.group_id for bag in bags})
    num_tasks = len(state.model.task_class_counts)
    preds = np.full((len(group_ids), num_tasks), MISSING, dtype=np.int64)
    accuracies = []
    for t in range(num_tasks):
        correct = total = 0
        for g, gid in enumerate(group_ids):
            members = [i for i, bag in enumerate(bags) if bag.group_id == gid]
            preds[g, t] = np.argmax(np.mean([probs[i][t] for i in members], axis=0))
            label = bags[members[0]].labels[t]
            if label != MISSING:
                total += 1
                correct += preds[g, t] == label
        accuracies.append(correct / total if total else float("nan"))
    return probs, [result.grids[0] for result in alone], group_ids, preds, accuracies


class TestChunkedEvaluation:
    @pytest.mark.parametrize("no_known_task_1", [False, True], ids=["missing", "none-known"])
    @pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
    def test_chunks_match_bag_at_a_time_bit_for_bit(self, monkeypatch, kind, no_known_task_1):
        bags = _chunked_bags(no_known_task_1)
        cfg = _cfg(aggregator=kind)
        state = init_state([3, 2], cfg)
        for group in state.groups[1:]:
            group.params[...] = np.random.default_rng(1).normal(size=group.params.size)
        pooled = []

        def spy(*args):
            pooled.append(len(args[3]))
            return pool_logits(*args)

        monkeypatch.setattr(trainer, "pool_logits", spy)
        got = evaluate(state, bags, cfg, keep_grids=True)
        assert pooled == [16, 2, 5, 5]
        monkeypatch.setattr(trainer, "pool_logits", pool_logits)
        probs, grids, group_ids, preds, accuracies = _bag_at_a_time(state, bags, cfg)

        assert len(got.bag_probs) == len(bags)
        for mine, want in zip(got.bag_probs, probs, strict=True):
            assert [p.tobytes() for p in mine] == [p.tobytes() for p in want]
        assert got.group_ids == group_ids
        assert got.group_preds.dtype == preds.dtype
        assert got.group_preds.tobytes() == preds.tobytes()
        assert [float(a).hex() for a in got.task_accuracies] == [a.hex() for a in accuracies]
        assert np.isnan(got.task_accuracies[1]) == no_known_task_1
        labels = [bags[[b.group_id for b in bags].index(gid)].labels for gid in group_ids]
        np.testing.assert_array_equal(got.group_labels, labels)
        # every bag's grids equal its grids alone and share no memory with another's
        arrays = []
        for mine, want in zip(got.grids, grids, strict=True):
            for a, b in zip(mine, want, strict=True):
                assert a.grid_shape == b.grid_shape == (1, *a.grid_shape[1:])
                for x, y in zip(_grid_arrays(a), _grid_arrays(b), strict=True):
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            arrays.append([x for a in mine for x in _grid_arrays(a)])
        for i, mine in enumerate(arrays):
            for theirs in arrays[i + 1:]:
                assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    @pytest.mark.parametrize("bad, message", [
        ({3: "image", 6: "mask"}, "images must be uint8"),
        ({3: "mask", 6: "image"}, "mask shape"),
        ({3: "mask", 4: "mask image"}, "mask shape"),
    ])
    def test_a_bad_bag_in_a_chunk_raises_first_in_bag_order(self, bad, message):
        # an image that is not uint8, and a mask that does not match its image
        # (two of one shape can follow each other), among 64 px bags that
        # would otherwise share a chunk
        bags = _chunked_bags()[:16]
        for i, kinds in bad.items():
            if "image" in kinds:
                bags[i] = dataclasses.replace(bags[i], image=bags[i].image / 255)
            if "mask" in kinds:
                bags[i] = dataclasses.replace(bags[i], mask=np.pad(bags[i].mask, (0, 8)))
        cfg = _cfg(aggregator="quantile")
        state = init_state([3, 2], cfg)
        with pytest.raises(ValueError, match=message) as chunked:
            evaluate(state, bags, cfg)
        with pytest.raises(ValueError) as alone:
            evaluate(state, [bags[3]], cfg)
        assert str(chunked.value) == str(alone.value)

@pytest.fixture
def planned(monkeypatch):
    """Weak references to every Workspace that trainer plans, with its planning thread."""
    made = []

    class Recorded(layers.Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((weakref.ref(self), threading.get_ident()))

    monkeypatch.setattr(trainer, "Workspace", Recorded)
    return made


def _buffer_refs(workspace, keep=()):
    """Weak references to every array a workspace allocated, but none of keep."""
    arrays = [a for b in workspace.convs for a in vars(b).values()
              if isinstance(a, np.ndarray)] + workspace.relu_masks
    return [weakref.ref(a) for a in arrays
            if not any(np.shares_memory(a, k) for k in keep)]


def _grid_arrays(grid):
    return [grid.probs, grid.mask, grid.fg_idx, grid.fg_bounds]


class TestBufferLifetime:
    def test_pooled_bags_of_two_sides_match_each_bag_alone(self, monkeypatch, planned):
        # two sides at and above the pool threshold, so both threads plan a
        # workspace per side; group ids are kept apart
        side = int(np.ceil(np.sqrt(pool.PARALLEL_MIN_PIXELS)))
        bags = []
        for offset, image_size in ((0, side), (100, side + 8)):
            train_bags, _, counts = _tiny_dataset(groups=4, image_size=image_size)
            bags += [dataclasses.replace(b, group_id=b.group_id + offset) for b in train_bags]
        cfg = _cfg(aggregator="quantile")
        state = init_state(counts, cfg)
        state.groups[1].params[...] = np.random.default_rng(1).normal(
            size=state.groups[1].params.size)
        ran_in = {}
        # the pool starts a second thread only while the first is busy, so
        # each thread's first bag waits until both threads run one
        started, waited = threading.Barrier(2, timeout=30), set()

        def spy(model, images, workspace):
            if threading.get_ident() not in waited:
                waited.add(threading.get_ident())
                started.wait()
            ran_in.setdefault(id(workspace), set()).add(threading.get_ident())
            return model_forward(model, images, workspace)

        model_forward = FcnModel.forward
        monkeypatch.setattr(FcnModel, "forward", spy)
        monkeypatch.setattr(pool, "workers", lambda: 2)
        pooled = evaluate(state, bags, cfg, keep_grids=True)
        monkeypatch.setattr(FcnModel, "forward", model_forward)  # the bags alone run unpooled
        assert all(len(threads) == 1 for threads in ran_in.values())  # one thread each
        assert len({thread for _, thread in planned}) == 2
        gc.collect()
        assert planned and all(ref() is None for ref, _ in planned)  # none outlives the call

        for i, bag in enumerate(bags):
            alone = evaluate(state, [bag], cfg, keep_grids=True)
            assert [p.tobytes() for p in pooled.bag_probs[i]] == [
                p.tobytes() for p in alone.bag_probs[0]]
            for got, want in zip(pooled.grids[i], alone.grids[0], strict=True):
                for a, b in zip(_grid_arrays(got), _grid_arrays(want), strict=True):
                    assert a.tobytes() == b.tobytes()
        outputs = [[*probs, *(a for grid in grids for a in _grid_arrays(grid))]
                   for probs, grids in zip(pooled.bag_probs, pooled.grids)]
        for i, mine in enumerate(outputs):
            for theirs in outputs[i + 1:]:
                assert not any(np.shares_memory(a, b) for a in mine for b in theirs)

    def test_no_workspace_outlives_train_epoch(self, monkeypatch, planned):
        train_bags, _, counts = _tiny_dataset(groups=4)
        cfg = _cfg(aggregator="quantile", epochs=1)
        state = init_state(counts, cfg)
        before = dict(vars(state))
        refs, epoch_refs = [], []

        def spy(*args):
            out = forward_bag(*args)
            if not refs:
                refs.extend(_buffer_refs(args[5], keep=[state.groups[0].grad]))
            # the step's instance masks, foreground runs and pooling plan, and
            # the epoch's arrays they slice
            *runs, plan = args[4]
            for a in (*runs, *(v for v in plan if isinstance(v, np.ndarray))):
                while a is not None:
                    epoch_refs.append(weakref.ref(a))
                    a = a.base
            return out

        monkeypatch.setattr(trainer, "forward_bag", spy)
        train_epoch(state, train_bags, cfg)
        assert len(planned) == 1  # one crop shape, one workspace
        gc.collect()
        assert planned[0][0]() is None
        assert refs and all(ref() is None for ref in refs)
        assert epoch_refs and all(ref() is None for ref in epoch_refs)
        # nothing is kept on the state: only its epoch and history moved
        after = vars(state)
        assert after.keys() == before.keys()
        assert {k for k in after if after[k] is not before[k]} == {"epoch"}
        assert len(state.loss_history) == 1
        # the trunk gradients were written in place, into the trunk group
        assert state.groups[0].grad.any()


@pytest.fixture(scope="module")
def heterogeneous_32():
    return generate_dataset(heterogeneous_recipes(100, image_size=32), seed=1)


@pytest.mark.parametrize("seed", [0, 1])
def test_training_beats_the_majority_class_on_held_out_groups(heterogeneous_32, seed):
    # a trainer that learns nothing predicts at most the majority class
    # rates (0.80, 0.66) here; working ones reached (0.92, 0.84) at seed 0
    # and (0.88, 0.80) at seed 1. Crops are what learn at this size: whole
    # 32 px images stayed at the majority rates even after 30 epochs.
    train_bags, test_bags, counts = heterogeneous_32
    cfg = TrainConfig(crop_size=16, epochs=8, aggregator="quantile", seed=seed)
    state = init_state(counts, cfg)
    trainer.train(state, train_bags, cfg)
    result = evaluate(state, test_bags, cfg)
    for t, accuracy in enumerate(result.task_accuracies):
        labels = result.group_labels[:, t]
        labels = labels[labels != MISSING]
        majority = np.bincount(labels).max() / labels.size
        assert accuracy > majority, f"task {t}: accuracy {accuracy} against majority {majority}"


@pytest.fixture(scope="module")
def heterogeneous_64():
    return generate_dataset(heterogeneous_recipes(100, image_size=64), seed=0)


@pytest.mark.parametrize("seed", [0, 1])
def test_small_crops_of_whole_images_learn_every_task(heterogeneous_64, seed):
    # crop 16 on 64 px bags, the crop size whose one-crop SGD steps froze:
    # the instance probabilities saturated, the trunk stopped moving and a
    # task sat at its majority rate. With one crop per step seed 0 stayed
    # below it here (task 1 at 0.48 against a majority of 0.52); with 16
    # crops a step, seeds 0-3 reached task-1 accuracies of 0.70 to 0.80 on
    # this set and on two other data seeds.
    train_bags, test_bags, counts = heterogeneous_64
    cfg = TrainConfig(crop_size=16, epochs=8, aggregator="quantile", seed=seed)
    state = init_state(counts, cfg)
    trainer.train(state, train_bags, cfg)
    result = evaluate(state, test_bags, cfg)
    for t, accuracy in enumerate(result.task_accuracies):
        labels = result.group_labels[:, t]
        labels = labels[labels != MISSING]
        majority = np.bincount(labels).max() / labels.size
        assert accuracy > majority, f"task {t}: accuracy {accuracy} against majority {majority}"


def test_run_sweep_averages_the_seeds_of_each_value():
    train_bags, test_bags, counts = _tiny_dataset(groups=4)
    cfg = _cfg(epochs=1, seed=4)
    lines = []
    table = trainer.run_sweep(train_bags, test_bags, "aggregator", ["max", "mean"], cfg,
                              counts, 2, lines.append)
    assert list(table) == ["max", "mean"]
    assert [line.split(":")[0] for line in lines] == ["aggregator max", "aggregator mean"]
    for kind, (mean, stderr) in table.items():
        accs = []
        for seed in (4, 5):
            cell_cfg = dataclasses.replace(cfg, aggregator=kind, seed=seed)
            state = init_state(counts, cell_cfg)
            trainer.train(state, train_bags, cell_cfg)
            accs.append(evaluate(state, test_bags, cell_cfg).task_accuracies)
        assert np.array_equal(mean, np.mean(accs, axis=0))
        assert np.array_equal(stderr, np.std(accs, axis=0, ddof=1) / np.sqrt(2))


@pytest.mark.parametrize("field, values", [("aggregator", []), ("aggregator", ["mean", "mean"]),
                                           ("crop_size", [16, 32, 16])])
def test_run_sweep_rejects_no_value_or_a_repeated_one_before_training(monkeypatch, field,
                                                                      values):
    # a table of no cells, or of one cell trained twice, is refused up front
    train_bags, test_bags, counts = _tiny_dataset(groups=2)
    monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match=f"^a sweep of {field} needs at least one value "
                                         "and no value twice"):
        trainer.run_sweep(train_bags, test_bags, field, values, _cfg(), counts, 1, print)


@pytest.mark.parametrize("empty", ["train", "test"])
def test_run_sweep_rejects_an_empty_bag_list_before_training(monkeypatch, empty):
    train_bags, test_bags, counts = _tiny_dataset(groups=2)
    bags = {"train": train_bags, "test": test_bags, empty: []}
    monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match="a sweep needs bags to train and test on"):
        trainer.run_sweep(bags["train"], bags["test"], "aggregator", ["mean"], _cfg(),
                          counts, 1, print)


@pytest.mark.parametrize("num_seeds", [0, -1])
def test_run_sweep_rejects_fewer_than_one_seed_before_training(monkeypatch, num_seeds):
    # no seed left no accuracy to average: a warning, then a TypeError
    train_bags, test_bags, counts = _tiny_dataset(groups=2)
    monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match=f"^num_seeds must be at least 1, got {num_seeds}$"):
        trainer.run_sweep(train_bags, test_bags, "aggregator", ["mean"], _cfg(), counts,
                          num_seeds, print)


def test_run_sweep_checks_every_crop_size_before_training(monkeypatch):
    # at 32 px, crop 40 does not fit: nothing trains, not even the crop-16 cell
    train_bags, test_bags, counts = _tiny_dataset(groups=2)
    monkeypatch.setattr(trainer, "train", lambda *args: pytest.fail("a model trained"))
    with pytest.raises(ValueError, match=r"crop size 40 outside \(0, 32\]"):
        trainer.run_sweep(train_bags, test_bags, "crop_size", [16, 40], _cfg(), counts, 1, print)
    with pytest.raises(ValueError, match="crop_size must be at least 1"):
        trainer.run_sweep(train_bags, test_bags, "crop_size", [16, 0], _cfg(), counts, 1, print)


def test_train_epoch_rejects_bags_of_different_sides():
    small, _, counts = _tiny_dataset(groups=2, image_size=32)
    large, _, _ = _tiny_dataset(groups=2, image_size=40)
    cfg = _cfg()
    state = init_state(counts, cfg)
    with pytest.raises(ValueError, match=r"one square side, got sides \[\(32, 32\), \(40, 40\)\]"):
        train_epoch(state, small + large, cfg)
    assert state.epoch == 0 and not state.loss_history


Spec = collections.namedtuple("Spec", "row col fallback")


def _cross_entropy(bag_probs, labels, counts, weights):
    """masked_cross_entropy of a batch of one bag with the given labels."""
    positions, table = loss_tables([labels], counts, weights, 1)
    return masked_cross_entropy(bag_probs, positions, table, counts)


def _recording_epoch(monkeypatch, state, bags, cfg):
    """Run train_epoch, recording every sampled crop's (bag, Spec) and every
    crop's (mirror, turns), in draw order, and every sgd_step's gradient.

    Returns (crops, flips, gradients); crops is empty at the whole image.
    The flips are those the epoch cuts its crops and masks with.
    """
    crops, flips, grads = [], [], []
    sample, cut, step = trainer.sample_crops, trainer.crop_instance_masks, trainer.sgd_step

    def sample_spy(table, members, *args):
        rows, cols, fallback = sample(table, members, *args)
        crops.extend(zip(members, map(Spec, rows, cols, fallback.tolist())))
        return rows, cols, fallback

    def cut_spy(masks, members, rows, cols, epoch_flips, *args):
        flips.extend(map(tuple, epoch_flips.tolist()))
        return cut(masks, members, rows, cols, epoch_flips, *args)

    def step_spy(param, grad, *args):
        grads.append(grad.copy())
        return step(param, grad, *args)

    monkeypatch.setattr(trainer, "sample_crops", sample_spy)
    monkeypatch.setattr(trainer, "crop_instance_masks", cut_spy)
    monkeypatch.setattr(trainer, "sgd_step", step_spy)
    train_epoch(state, bags, cfg)
    return crops, flips, grads


def _sparse_bags(image_size=32):
    """Two bags of a tiny set; the second's mask keeps only a corner, so crops of it
    hold few foreground instances or fall back."""
    train_bags, _, counts = _tiny_dataset(groups=4, image_size=image_size)
    corner = np.zeros_like(train_bags[1].mask)
    corner[:12, :12] = 1
    return [train_bags[0], dataclasses.replace(train_bags[1], mask=corner)], counts


# a batch of several crops, a batch of one (crop above 32 / sqrt(2)), the whole image
@pytest.mark.parametrize("crop, batch", [(13, 6), (24, 1), (32, 1)])
def test_an_epoch_draws_its_shuffle_its_flips_then_every_crop_in_one_call(monkeypatch, crop,
                                                                         batch):
    bags, counts = _sparse_bags()
    cfg = _cfg(crop_size=crop, max_resample_attempts=2, aggregator="quantile", seed=7)
    assert augment.crops_per_step(crop, 32) == batch
    state = init_state(counts, cfg)
    rng = np.random.default_rng([cfg.seed, trainer._TRAIN_STREAM_TAG])  # the state's stream
    calls, sample = [], trainer.sample_crops

    def counting_sample(table, members, *args):
        calls.append(len(members))
        return sample(table, members, *args)

    monkeypatch.setattr(trainer, "sample_crops", counting_sample)
    crops, flips, _ = _recording_epoch(monkeypatch, state, bags, cfg)
    # the shuffle, every crop's flips in one draw, then below the whole
    # image one sample_crops over the whole schedule, before the first step
    schedule = np.repeat(np.arange(len(bags)), augment.crop_count(crop, 32))
    schedule = schedule[rng.permutation(schedule.size)]
    mirrors, turns = rng.integers(0, (2, 4), size=(schedule.size, 2)).T.tolist()
    expected = []
    if crop < 32:
        table = augment.window_counts([bag.mask for bag in bags], crop)
        rows, cols, fallback = augment.sample_crops(table, schedule, crop, 2, rng)
        expected = list(zip(schedule.tolist(), map(Spec, rows, cols, fallback.tolist())))
    assert calls == ([schedule.size] if crop < 32 else [])
    assert crops == expected
    assert flips == list(zip(mirrors, turns))
    if crop == 13:
        assert any(spec.fallback for _, spec in crops)
    assert state.rng.bit_generator.state == rng.bit_generator.state


# 64 px bags at crop 16 (16 crops a step), crop 48 (one crop a step), the
# whole image, and crop 11 (34 crops a bag, 33 a step: 3 bags end in a
# short step of 3)
@pytest.mark.parametrize("crop, steps", [(16, [16] * 3), (48, [1] * 6), (64, [1] * 3),
                                         (11, [33, 33, 33, 3])])
def test_each_step_pools_its_slice_of_the_epoch_plan_as_a_plan_of_its_own(monkeypatch, crop,
                                                                         steps):
    # a step's slice of its epoch's plan has the epoch's position bits, which
    # a plan of the step alone takes from its own size; both pool the same bits
    train_bags, _, counts = _tiny_dataset(groups=6, image_size=64)
    cfg = _cfg(crop_size=crop, aggregator="quantile", seed=4)
    pooled, real = [], aggregate.quantile_pool

    def spy(grid, num_quantiles):
        assert grid.plan is not None
        got = real(grid, num_quantiles)
        alone = real(dataclasses.replace(grid, plan=None), num_quantiles)
        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                   for a, b in zip(got, alone, strict=True))
        pooled.append(grid.grid_shape[0])
        return got

    monkeypatch.setattr(aggregate, "quantile_pool", spy)
    train_epoch(init_state(counts, cfg), train_bags[:3], cfg)
    assert pooled == steps


@pytest.mark.parametrize("kind", ["mean", "quantile"])
def test_the_pooling_plan_is_built_once_per_epoch_and_never_in_a_step(monkeypatch, kind):
    # quantile builds its epoch's plans before the first step; mean needs none
    train_bags, _, counts = _tiny_dataset(groups=8)
    cfg = _cfg(aggregator=kind, epochs=2)
    events, plans, forward = [], aggregate.quantile_plans, trainer.forward_bag

    def plan_spy(*args):
        events.append("plan")
        return plans(*args)

    def forward_spy(*args):
        events.append("step")
        return forward(*args)

    monkeypatch.setattr(aggregate, "quantile_plans", plan_spy)
    monkeypatch.setattr(trainer, "forward_bag", forward_spy)
    state = init_state(counts, cfg)
    trainer.train(state, train_bags, cfg)
    # 4 bags of 32 px, 4 crops of 16 px each, 4 crops a step
    epoch = ["plan"] * (kind == "quantile") + ["step"] * 4
    assert events == epoch * 2


@pytest.mark.parametrize("rotate90", [False, True])
@pytest.mark.parametrize("mirror", [False, True])
def test_whole_image_flips_are_those_of_one_crop_at_a_time(monkeypatch, mirror, rotate90):
    # with no crops to draw, the epoch's one flip draw gives the values the
    # scalar draws of one crop after another gave, and leaves the stream
    # where they left it
    train_bags, _, counts = _tiny_dataset()
    cfg = _cfg(crop_size=32, mirror=mirror, rotate90=rotate90, seed=9)
    state = init_state(counts, cfg)
    rng = np.random.default_rng([cfg.seed, trainer._TRAIN_STREAM_TAG])  # the state's stream
    crops, flips, _ = _recording_epoch(monkeypatch, state, train_bags, cfg)
    assert crops == []
    rng.permutation(len(train_bags))
    expected = []
    for _ in train_bags:
        flip = mirror and bool(rng.integers(0, 2))
        expected.append((flip, int(rng.integers(0, 4)) if rotate90 else 0))
    assert flips == expected
    assert state.rng.bit_generator.state == rng.bit_generator.state


def _float64_state(counts, cfg):
    """A TrainState that computes in float64, with random heads."""
    model = init_params(FcnModel(counts, dtype=np.float64), cfg.seed)
    aggregator = make_aggregator(cfg.aggregator, cfg.num_quantiles)
    heads, head_groups = aggregator.init_heads(counts, cfg.head_lr_scale, np.float64)
    for group in head_groups:
        group.params[...] = np.random.default_rng(3).normal(0.0, 0.5, group.params.size)
    return trainer.TrainState(model, aggregator, heads, [model.params, *head_groups],
                              rng=np.random.default_rng([cfg.seed, trainer._TRAIN_STREAM_TAG]))


@pytest.mark.parametrize("kind", ["mean", "max", "quantile"])
def test_a_batched_step_is_the_scaled_sum_of_its_crops_gradients(monkeypatch, kind):
    """Every step's gradient is the sum of its crops' single-crop gradients over sqrt(B).

    32 px bags at crop 13: B = 6 crops a step and 7 crops a bag, so the two
    bags' 14 crops run as steps of 6, 6 and a short last one of 2. At lr 0
    the parameters stay fixed, so each crop's gradient can be taken alone
    afterwards. One bag's mask is a corner: its crops hold from one to four
    foreground instances, and some fall back.
    """
    bags, counts = _sparse_bags()
    cfg = _cfg(crop_size=13, lr=0.0, max_resample_attempts=2, aggregator=kind, seed=11)
    state = _float64_state(counts, cfg)
    crops, flips, step_grads = _recording_epoch(monkeypatch, state, bags, cfg)
    drawn = [(b, spec, *flip) for (b, spec), flip in zip(crops, flips, strict=True)]
    groups, weights = state.groups, cfg.weights_for(len(counts))
    step_grads = [step_grads[i:i + len(groups)] for i in range(0, len(step_grads), len(groups))]
    assert [len(drawn[i:i + 6]) for i in range(0, len(drawn), 6)] == [6, 6, 2]
    assert len(step_grads) == 3
    assert any(spec.fallback for _, spec, *_ in drawn)
    foreground = set()

    def crop_gradient(b, spec, mirror, turns):
        mask = bags[b].mask[spec.row : spec.row + 13, spec.col : spec.col + 13]
        image = bags[b].image[spec.row : spec.row + 13, spec.col : spec.col + 13]
        image = augment.apply_dihedral(image, mirror, turns)
        mask = augment.apply_dihedral(mask, mirror, turns)
        workspace = layers.Workspace(state.model, (1, *image.shape))
        bag_probs, cache = forward_bag(state.model, state.aggregator, state.heads, image[None],
                                       downscaled_instances([mask], state.model), workspace)
        foreground.add(int(cache[2].fg_idx.size))
        _, grad_bag = _cross_entropy(bag_probs, bags[b].labels, counts, weights)
        backward_bag(state.model, state.aggregator, cache, grad_bag)
        return [group.grad.copy() for group in groups]

    for s, got in enumerate(step_grads):
        crops = drawn[6 * s:6 * (s + 1)]
        alone = [crop_gradient(*crop) for crop in crops]
        for g, grad in enumerate(got):
            want = sum(a[g] for a in alone) / np.sqrt(len(crops))
            assert np.abs(grad - want).max() <= 1e-10 * np.abs(want).max(), (s, groups[g].name)
    assert len(foreground) > 1


# crops of several to a step, with a shorter last step (crop 13 on 32 px:
# the 4 training bags' 28 crops run as four steps of 6 and one of 4), one
# crop a step below the whole image, and the whole image
@pytest.mark.parametrize("crop, image_size", [(16, 64), (13, 32), (24, 32), (32, 32)])
def test_layer_0_reads_each_flipped_crop_scaled_and_centered(monkeypatch, crop, image_size):
    """For every flip, layer 0's input is the per-image formula of the crop's window, bit for
    bit: np.multiply(flipped window, 1/255) - INPUT_SHIFT, in float32, the window cut by
    plain slicing and flipped with np.fliplr and np.rot90."""
    train_bags, _, counts = _tiny_dataset(groups=8, image_size=image_size)
    cfg = _cfg(crop_size=crop, aggregator="quantile", seed=3)
    state = init_state(counts, cfg)
    drawn, steps, checked = [], [], []
    cut, extract = trainer.crop_instance_masks, trainer.extract_crop

    def cut_spy(masks, members, rows, cols, flips, *args):
        # the epoch's crops: (bag, row, column, mirror, quarter turns) in schedule order
        drawn[:] = zip(np.asarray(members).tolist(), np.asarray(rows).tolist(),
                       np.asarray(cols).tolist(), *flips.T.tolist(), strict=True)
        return cut(masks, members, rows, cols, flips, *args)

    def extract_spy(crops, start, stop):
        out = extract(crops, start, stop)
        steps.append((start, start + len(out)))
        return out

    def forward_spy(*args):
        images, workspace = args[3], args[5]
        assert images.dtype == np.uint8 and images.flags.c_contiguous
        out = forward_bag(*args)
        start, stop = steps[-1]
        for x, (b, r, c, mirror, turns) in zip(workspace.convs[0].input, drawn[start:stop],
                                                strict=True):
            view = train_bags[b].image[r : r + crop, c : c + crop]
            view = np.rot90(np.fliplr(view) if mirror else view, turns)
            want = np.multiply(view, np.float32(1 / 255)) - np.float32(layers.INPUT_SHIFT)
            assert x.tobytes() == want.tobytes()
            checked.append((mirror, turns))
        return out

    monkeypatch.setattr(trainer, "crop_instance_masks", cut_spy)
    monkeypatch.setattr(trainer, "extract_crop", extract_spy)
    monkeypatch.setattr(trainer, "forward_bag", forward_spy)
    crops = 0
    for _ in range(8):  # epochs, until every flip has been checked
        train_epoch(state, train_bags, cfg)
        crops += len(drawn)
        if len(set(checked)) == 8:
            break
    assert {(bool(m), t) for m, t in checked} == {(m, t) for m in (False, True) for t in range(4)}
    assert len(checked) == crops
    # one extract_crop call a step, the last of an epoch perhaps shorter
    batch = augment.crops_per_step(crop, image_size)
    per_epoch = augment.crop_count(crop, image_size) * len(train_bags)
    assert {stop - start for start, stop in steps} == (
        {batch, per_epoch % batch} if per_epoch % batch else {batch})


@pytest.mark.parametrize("label", [2, -3])
def test_a_label_out_of_range_raises_before_the_first_step(monkeypatch, label):
    train_bags, _, counts = _tiny_dataset(groups=4)
    train_bags[1] = dataclasses.replace(train_bags[1], labels=(0, label))
    cfg = _cfg()
    state = init_state(counts, cfg)
    before = [group.params.copy() for group in state.groups]
    monkeypatch.setattr(trainer, "forward_bag", lambda *args: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=f"^label {label} of task 1 out of range for 2 classes$"):
        train_epoch(state, train_bags, cfg)
    assert state.epoch == 0 and not state.loss_history
    assert all(np.array_equal(g.params, b) for g, b in zip(state.groups, before))


def test_train_epoch_rejects_bags_whose_images_are_not_uint8():
    # a [0, 1] float image would otherwise be copied into the uint8 batch as bytes
    train_bags, _, counts = _tiny_dataset(groups=4)
    train_bags[1] = dataclasses.replace(train_bags[1], image=train_bags[1].image / 255)
    cfg = _cfg()
    with pytest.raises(ValueError, match="images must be uint8 with 3 channels, got float64"):
        train_epoch(init_state(counts, cfg), train_bags, cfg)


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
        probs_mean, cache = bag_forward(state.model, Mean(), [None, None], crop, crop_mask)
        grid = cache[2]
        assert grid.probs.shape == (1, sum(counts))
        np.testing.assert_allclose(probs_mean[0], grid.probs[0], atol=1e-6)
        # every quantile of a one-instance bag equals that instance's value
        _, cache_q = bag_forward(state.model, state.aggregator, state.heads, crop, crop_mask)
        (values,), _ = quantile_pool(cache_q[2], cfg.num_quantiles)
        for c in range(sum(counts)):
            np.testing.assert_allclose(values[c], cache_q[2].probs[0, c])


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
    weights = [1.0, 1.0, 1.0]
    q = 5
    rng = np.random.default_rng(23)
    model = init_params(FcnModel(counts, dtype=np.float64), 4)
    aggregator = make_aggregator(kind, q)
    heads, head_groups = aggregator.init_heads(counts, dtype=np.float64)
    for group in head_groups:
        group.params[...] = rng.normal(0.0, 0.5, size=group.params.size)
    image = random_image(rng, 24)
    mask = np.zeros((24, 24), dtype=np.uint8)
    mask[2:22, 4:24] = 1

    def loss():
        bag_probs, _ = bag_forward(model, aggregator, heads, image, mask)
        return _cross_entropy(bag_probs, labels, counts, weights)[0][0]

    bag_probs, cache = bag_forward(model, aggregator, heads, image, mask)
    backward_bag(model, aggregator, cache, _cross_entropy(bag_probs, labels, counts, weights)[1])
    # the loss evaluations below run forward passes only, which leave the
    # gradients alone
    grads = [group.grad for group in (model.params, *head_groups)]

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

    starts = np.cumsum([0] + [g.size for g in model.params.grad_views])
    index = np.concatenate([
        rng.choice(np.arange(lo, hi), size=min(hi - lo, 12), replace=False)
        for lo, hi in zip(starts[:-1], starts[1:])
    ])
    check(model.params.params, grads[0], index)
    for group, grad in zip(head_groups, grads[1:], strict=True):
        check(group.params, grad, range(group.params.size))
        # the MISSING task's head receives exactly zero gradient
        views = group.grad_views
        assert not views[2].any() and not views[3].any()
        assert views[0].any() and views[4].any()


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
        assert np.array_equal(loaded.model.params.params, state.model.params.params)
        for a, b in zip(loaded.model.layers, state.model.layers, strict=True):
            assert np.array_equal(a.kernel, b.kernel) and np.array_equal(a.bias, b.bias)
        for a, b in zip(loaded.heads, state.heads, strict=True):
            assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)

    def test_groups_own_every_trained_array_in_checkpoint_order(self):
        counts = [2, 3]
        state = init_state(counts, _cfg(aggregator="quantile", num_quantiles=4))
        layout = conv_layout(counts) + state.aggregator.head_layout(counts)
        assert [v.shape for group in state.groups for v in group.views] == layout
        for group, arrays in zip(state.groups, _group_arrays(state), strict=True):
            assert all(a is v for a, v in zip(arrays, group.views, strict=True))
            assert [v.shape for v in group.grad_views] == [v.shape for v in group.views]
        # the backward passes write into the groups' grad views
        workspace = layers.Workspace(state.model, (1, 16, 16, 3))
        written = [[a for c in workspace.convs for a in (c.grad_kernel, c.grad_bias)],
                   [a for h in state.heads for a in (h.grad_weights, h.grad_bias)]]
        for group, arrays in zip(state.groups, written, strict=True):
            assert all(a is v for a, v in zip(arrays, group.grad_views, strict=True))

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

    @pytest.mark.parametrize("field, message", [
        ("Q", "group 'heads' has shape (124,), expected (17179869188,)"),
        ("count0", "group 'trunk' has shape (1844,), expected (36507223826,)"),
        ("c_out1", "group 'trunk' has shape (1844,), expected (165356241508,)"),
        ("tasks", "truncated class counts at byte 24"),
    ])
    def test_huge_metadata_is_rejected_before_allocating(self, tmp_path, field, message):
        # a Q, class count or channel count read from the file would size the
        # heads or the trunk at terabytes; the records' sizes are checked first
        path = tmp_path / "ckpt.mit"
        _write_checkpoint(path, [(field, 2**31)])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(message)):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("fields, records, message", [
        ([("kind", 3), ("Q", 0)], None, "aggregator meta [3, 0] records no aggregator"),
        ([("Q", 0)], None, "aggregator meta [2, 0] records no aggregator"),
        ([("kind", 1)], None, "aggregator meta [1, 15] records no aggregator"),
        # a mean model has no heads, so their record is one too many
        ([("kind", 1), ("Q", 0)], None,
         "trailing bytes at byte 7460: the header declares 1 parameter groups"),
        ([("kind", 0), ("Q", 0)], None, "trailing bytes at byte 7460"),  # max
        ([("Q", 7)], None, "group 'heads' has shape (124,), expected (60,)"),
        ([("Q", 2**32 - 1)], None, "group 'heads' has shape (124,), expected (34359738364,)"),
        ([("tasks", 0)], None, "class counts [] must list at least one task"),
        ([("count1", 1)], None, "class counts [2, 1] must list at least one task, each of at "
                                "least 2 classes"),
        ([("count1", 3)], None, "group 'trunk' has shape (1844,), expected (1861,)"),
        ([("layers", 0)], None, "trunk layer count is 0"),
        ([("side1", 0)], None, "trunk layer 1 (kernel side, stride, c_in, c_out) (0, 2, 8, 16) "
                               "holds a 0"),
        ([("stride0", 0)], None, "trunk layer 0 (kernel side, stride, c_in, c_out) (5, 0, 3, 8) "
                                 "holds a 0"),
        ([("c_out1", 0)], None, "(3, 2, 8, 0) holds a 0"),
        ([("c_in1", 4)], None, "trunk layer 1 has c_in 4, not layer 0's c_out 8"),
        # weights trained on images centered otherwise
        ([("shift", 0.25)], None, "input shift is 0.25, but the model centers its input by 0.5"),
        ([("shift", 0.0)], None, "input shift is 0.0"),
        ([("shift", np.nan)], None, "input shift is nan"),
        # a record one value short would otherwise fail only at the copy
        ([], lambda trunk, heads: [trunk[:-1], heads], "group 'trunk' has shape (1843,), "
                                                       "expected (1844,)"),
        ([], lambda trunk, heads: [trunk.reshape(4, 461), heads], "group 'trunk' has shape "
                                                                  "(4, 461), expected (1844,)"),
        ([], lambda trunk, heads: [trunk, heads[:-1]], "group 'heads' has shape (123,), "
                                                       "expected (124,)"),
        ([], lambda trunk, heads: [trunk], "truncated tensor magic at byte 7460"),
        ([], lambda trunk, heads: [], "truncated tensor magic at byte 72"),
        ([], lambda trunk, heads: [trunk, heads, heads[:2]],
         "trailing bytes at byte 7968: the header declares 2 parameter groups"),
    ])
    def test_bad_header_field_or_record_is_named(self, tmp_path, fields, records, message):
        path = tmp_path / "ckpt.mit"
        _write_checkpoint(path, fields, records)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_checkpoint(path)

    def test_version_1_checkpoint_must_be_re_saved(self, tmp_path):
        # version 1 held named tensors after the magic and version
        buf = io.BytesIO()
        buf.write(b"QMILCKPT" + struct.pack("<IH", 1, 12) + b"conv0.kernel")
        tensor.write_tensor(buf, np.ones((5, 5, 3, 8)))
        path = tmp_path / "ckpt.mit"
        path.write_bytes(buf.getvalue())
        with pytest.raises(ValueError, match="checkpoint format version 1 is not the version 2 "
                                             "this reader reads; checkpoints saved before "
                                             "format version 2 must be re-saved"):
            load_checkpoint(path)


# the u32 header fields of a checkpoint of a quantile model of two 2-class
# tasks on the default trunk, by byte offset; the f32 input shift follows at
# byte 68 and the records at 72: the trunk's 1844 values, the heads' 124
LAYER_FIELDS = ("side", "stride", "c_in", "c_out")
HEADER = dict(zip(["kind", "Q", "tasks", "count0", "count1", "layers",
                   *(f"{field}{i}" for i in range(2) for field in LAYER_FIELDS)],
                  range(12, 68, 4)))


def _write_checkpoint(path, fields=(), records=None):
    """Save such a checkpoint with its header fields set by fields ((name, value) pairs of
    HEADER names or "shift"), and its records replaced by records(trunk, heads)."""
    state = init_state([2, 2], _cfg(aggregator="quantile"))
    save_checkpoint(path, state)
    data = bytearray(path.read_bytes())
    for name, value in fields:
        fmt, at = ("<f", 68) if name == "shift" else ("<I", HEADER[name])
        data[at:at + 4] = struct.pack(fmt, value)
    if records is not None:
        buf = io.BytesIO()
        for record in records(*(group.params for group in state.groups)):
            tensor.write_tensor(buf, record)
        data[72:] = buf.getvalue()
    path.write_bytes(bytes(data))


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

    @pytest.mark.parametrize("field", ["crop_size", "max_resample_attempts"])
    def test_crop_setting_rejected_with_its_value(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got -2$"):
            TrainConfig(**{field: -2})

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
