import numpy as np
import pytest

from conftest import central_difference
from qmil.layers import (
    MISSING,
    ConvLayer,
    FcnModel,
    conv2d_backward,
    conv2d_forward,
    init_params,
    instance_softmax,
    instance_softmax_backward,
    masked_cross_entropy,
    sgd_step,
)


def _layer(kernel, stride=1):
    kernel = np.asarray(kernel, dtype=np.float64)
    return ConvLayer(kernel, np.zeros(kernel.shape[3]), stride)


def _naive_conv(x, layer):
    kh, kw, c_in, c_out = layer.kernel.shape
    s = layer.stride
    oh = (x.shape[0] - kh) // s + 1
    ow = (x.shape[1] - kw) // s + 1
    out = np.zeros((oh, ow, c_out))
    for i in range(oh):
        for j in range(ow):
            for o in range(c_out):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        for c in range(c_in):
                            acc += x[i * s + di, j * s + dj, c] * layer.kernel[di, dj, c, o]
                out[i, j, o] = acc + layer.bias[o]
    return out


class TestConvForward:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 4, 1))
        layer = _layer(np.ones((1, 1, 1, 1)))
        np.testing.assert_allclose(conv2d_forward(x, layer), x)

    def test_constant_input_all_ones_kernel(self):
        x = np.ones((5, 5, 1))
        layer = _layer(np.ones((3, 3, 1, 1)))
        layer.bias[:] = 0.5
        out = conv2d_forward(x, layer)
        assert out.shape == (3, 3, 1)
        np.testing.assert_allclose(out, 9.5)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 6, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 3)), stride=2)
        layer.bias[:] = rng.normal(size=3)
        np.testing.assert_allclose(conv2d_forward(x, layer), _naive_conv(x, layer), atol=1e-5)

    def test_input_smaller_than_kernel(self):
        with pytest.raises(ValueError, match="smaller than kernel"):
            conv2d_forward(np.zeros((2, 2, 1)), _layer(np.zeros((3, 3, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv2d_forward(np.zeros((4, 4, 2)), _layer(np.zeros((3, 3, 1, 1))))


def _tensordot_conv(x, layer, grad_out):
    """The tensordot formulation of the conv products: the bit-exact reference.

    Returns (forward output, input gradient, kernel gradient).
    """
    kh, kw, _, _ = layer.kernel.shape
    s = layer.stride
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(0, 1))
    patches = windows[::s, ::s].transpose(0, 1, 3, 4, 2)  # (oh, ow, kh, kw, c_in)
    oh, ow = patches.shape[:2]
    out = np.tensordot(patches, layer.kernel, axes=3) + layer.bias
    grad_kernel = np.tensordot(patches, grad_out, axes=([0, 1], [0, 1]))
    grad_patches = np.tensordot(grad_out, layer.kernel, axes=([2], [3]))
    grad_input = np.zeros_like(x)
    for di in range(kh):
        for dj in range(kw):
            grad_input[di : di + s * oh : s, dj : dj + s * ow : s] += grad_patches[:, :, di, dj]
    return out, grad_input, grad_kernel


class TestConvMatchesTensordot:
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("side", [9, 13, 17])
    def test_bit_identical_to_tensordot(self, k, stride, side):
        rng = np.random.default_rng(100 * k + 10 * stride + side)
        x = rng.normal(size=(side, side, 3)).astype(np.float32)
        layer = ConvLayer(rng.normal(size=(k, k, 3, 8)).astype(np.float32),
                          rng.normal(size=8).astype(np.float32), stride)
        oh = (side - k) // stride + 1
        grad_out = rng.normal(size=(oh, oh, 8)).astype(np.float32)
        out, grad_input, grad_kernel = _tensordot_conv(x, layer, grad_out)

        assert np.array_equal(conv2d_forward(x, layer), out)
        gi, gk, gb = conv2d_backward(x, layer, grad_out)
        assert np.array_equal(gi, grad_input)
        assert np.array_equal(gk, grad_kernel)
        assert np.array_equal(gb, grad_out.sum(axis=(0, 1)))
        skipped, gk_only, gb_only = conv2d_backward(x, layer, grad_out, input_grad=False)
        assert skipped is None
        assert np.array_equal(gk_only, grad_kernel)
        assert np.array_equal(gb_only, gb)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 2)))
        gi, gk, gb = conv2d_backward(x, layer, np.zeros((3, 3, 2)))
        assert not gi.any() and not gk.any() and not gb.any()

    def test_identity_kernel_passthrough(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 1))
        layer = _layer(np.ones((1, 1, 1, 1)))
        grad_out = rng.normal(size=(4, 4, 1))
        gi, _, _ = conv2d_backward(x, layer, grad_out)
        np.testing.assert_allclose(gi, grad_out)

    def test_shape_mismatch(self):
        x = np.zeros((5, 5, 1))
        layer = _layer(np.zeros((3, 3, 1, 1)))
        with pytest.raises(ValueError, match="grad_out"):
            conv2d_backward(x, layer, np.zeros((2, 2, 1)))

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 6, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 2)), stride=2)
        layer.bias[:] = rng.normal(size=2)
        grad_out = rng.normal(size=(2, 2, 2))
        gi, gk, gb = conv2d_backward(x, layer, grad_out)

        np.testing.assert_allclose(
            central_difference(lambda v: float((conv2d_forward(v, layer) * grad_out).sum()), x),
            gi, atol=1e-6,
        )

        def loss_of_kernel(k):
            return float((conv2d_forward(x, ConvLayer(k, layer.bias, 2)) * grad_out).sum())

        np.testing.assert_allclose(central_difference(loss_of_kernel, layer.kernel), gk, atol=1e-6)

        def loss_of_bias(b):
            return float((conv2d_forward(x, ConvLayer(layer.kernel, b, 2)) * grad_out).sum())

        np.testing.assert_allclose(central_difference(loss_of_bias, layer.bias), gb, atol=1e-6)

        # skipping the input gradient leaves the parameter gradients bit-identical
        skipped, gk_only, gb_only = conv2d_backward(x, layer, grad_out, input_grad=False)
        assert skipped is None
        np.testing.assert_array_equal(gk_only, gk)
        np.testing.assert_array_equal(gb_only, gb)


class TestInstanceSoftmax:
    def test_equal_logits_give_uniform(self):
        out = instance_softmax(np.zeros((2, 2, 4)))
        np.testing.assert_allclose(out, 0.25)

    def test_closed_form_two_class(self):
        out = instance_softmax(np.array([0.0, np.log(3.0)]).reshape(1, 1, 2))
        np.testing.assert_allclose(out.reshape(-1), [0.25, 0.75], atol=1e-12)

    def test_large_logits_stable(self):
        out = instance_softmax(np.array([1000.0, 0.0]).reshape(1, 1, 2))
        np.testing.assert_allclose(out.reshape(-1), [1.0, 0.0])

    def test_locations_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = instance_softmax(rng.normal(size=(3, 4, 5)))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 3, 4))
        shifted = instance_softmax(logits + 7.5)
        np.testing.assert_allclose(shifted, instance_softmax(logits), atol=1e-6)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            instance_softmax(np.zeros((2, 2, 1)))

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(2, 2, 3))
        grad_probs = rng.normal(size=(2, 2, 3))
        probs = instance_softmax(logits)
        analytic = instance_softmax_backward(probs, grad_probs)
        fd = central_difference(
            lambda l: float((instance_softmax(l) * grad_probs).sum()), logits
        )
        np.testing.assert_allclose(analytic, fd, atol=1e-6)


class TestMaskedCrossEntropy:
    def test_all_missing_is_zero(self):
        probs = [np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5])]
        loss, grads = masked_cross_entropy(probs, (MISSING, MISSING))
        assert loss == 0.0
        assert all(not g.any() for g in grads)

    def test_closed_form_log_two(self):
        loss, grads = masked_cross_entropy([np.array([0.5, 0.5])], (0,), [1.0])
        np.testing.assert_allclose(loss, np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(grads[0], [-2.0, 0.0])

    def test_additive_across_tasks(self):
        p1, p2 = np.array([0.3, 0.7]), np.array([0.2, 0.8])
        both, _ = masked_cross_entropy([p1, p2], (1, 0), [1.0, 2.0])
        first, _ = masked_cross_entropy([p1], (1,), [1.0])
        second, _ = masked_cross_entropy([p2], (0,), [2.0])
        np.testing.assert_allclose(both, first + second, atol=1e-12)

    def test_missing_task_gets_zero_gradient(self):
        probs = [np.array([0.3, 0.7]), np.array([0.2, 0.8])]
        _, grads = masked_cross_entropy(probs, (1, MISSING))
        assert grads[0].any()
        assert not grads[1].any()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            masked_cross_entropy([np.array([0.5, 0.5])], (2,))

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ValueError, match="sum to"):
            masked_cross_entropy([np.array([0.5, 0.6])], (0,))

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(8)
        raw = [rng.uniform(0.1, 1.0, size=3), rng.uniform(0.1, 1.0, size=2)]
        probs = [r / r.sum() for r in raw]
        labels = (2, 0)
        weights = [1.0, 0.5]
        _, grads = masked_cross_entropy(probs, labels, weights)
        for t in range(2):
            def loss_of(p, t=t):
                vecs = [probs[0].copy(), probs[1].copy()]
                vecs[t] = p
                total = 0.0
                for pv, y, w in zip(vecs, labels, weights):
                    total -= w * np.log(max(pv[y], 1e-12))
                return total

            fd = central_difference(loss_of, probs[t])
            np.testing.assert_allclose(grads[t], fd, atol=1e-6)


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(FcnModel([2, 2]), 11)
        b = init_params(FcnModel([2, 2]), 11)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.kernel, lb.kernel)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_different_seeds_differ(self):
        a = init_params(FcnModel([2, 2]), 1)
        b = init_params(FcnModel([2, 2]), 2)
        assert any((la.kernel != lb.kernel).any() for la, lb in zip(a.layers, b.layers))

    def test_uniform_bound_and_mean(self):
        model = init_params(FcnModel([2, 2], trunk=((5, 2, 3, 40),)), 3)
        kernel = model.layers[0].kernel
        fan_in, fan_out = 5 * 5 * 3, 5 * 5 * 40
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(kernel).max() <= bound
        draws = kernel.reshape(-1)
        assert draws.size >= 10_000 // 4  # 3000 draws here; scale the SE below
        se = bound / np.sqrt(3.0) / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se

    def test_biases_zero(self):
        model = init_params(FcnModel([2, 2]), 4)
        assert all(not l.bias.any() for l in model.layers)


class TestSgdStep:
    def test_plain_gradient_step(self):
        p = np.array([0.0])
        v = np.zeros(1)
        sgd_step(p, np.array([2.0]), lr=1.0, momentum=0.0, velocity=v)
        np.testing.assert_allclose(p, [-2.0])

    def test_zero_grads_decay_velocity(self):
        p = np.array([1.0])
        v = np.array([2.0])
        sgd_step(p, np.zeros(1), lr=0.0, momentum=0.5, velocity=v)
        np.testing.assert_allclose(v, [1.0])
        np.testing.assert_allclose(p, [1.0])

    def test_two_steps_match_hand_unrolled_recurrence(self):
        p = np.array([1.0])
        v = np.zeros(1)
        g1, g2, lr, mom = 0.3, -0.2, 0.1, 0.9
        sgd_step(p, np.array([g1]), lr, mom, v)
        sgd_step(p, np.array([g2]), lr, mom, v)
        v1 = mom * 0.0 + g1
        p1 = 1.0 - lr * v1
        v2 = mom * v1 + g2
        p2 = p1 - lr * v2
        np.testing.assert_allclose(v, [v2], atol=1e-12)
        np.testing.assert_allclose(p, [p2], atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            sgd_step(np.zeros(2), np.zeros(3), 0.1, 0.9, np.zeros(2))

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            sgd_step(np.zeros(1), np.zeros(1), -0.1, 0.9, np.zeros(1))


class TestModelGeometry:
    def test_default_model_grid_for_64(self):
        model = FcnModel([3, 2])
        assert model.grid_side(64) == 14
        assert model.downsample == 4

    def test_grid_formula_matches_layer_arithmetic(self):
        model = FcnModel([2, 2])
        r, d = model.receptive_field, model.downsample
        for side in range(r, 81):
            assert model.grid_side(side) == (side - r) // d + 1

    def test_minimum_input_is_receptive_field(self):
        model = FcnModel([2, 2])
        assert model.grid_side(model.receptive_field) == 1
        with pytest.raises(ValueError, match="too small"):
            model.grid_side(model.receptive_field - 5)

    def test_final_channels_cover_all_tasks(self):
        model = FcnModel([3, 2, 4])
        assert model.num_classes == 9
        assert [s.stop - s.start for s in model.task_slices()] == [3, 2, 4]

    def test_forward_output_shape(self):
        rng = np.random.default_rng(9)
        model = init_params(FcnModel([3, 2]), 0)
        logits, _ = model.forward(rng.uniform(size=(32, 32, 3)).astype(np.float32))
        assert logits.shape == (model.grid_side(32), model.grid_side(32), 5)

    def test_model_backward_finite_differences(self):
        rng = np.random.default_rng(10)
        model = init_params(FcnModel([2, 2], dtype=np.float64), 1)
        x = rng.uniform(size=(12, 12, 3))
        grad_out = rng.normal(size=(*2 * (model.grid_side(12),), 4))
        logits, cache = model.forward(x)
        param_grads = model.backward(cache, grad_out)

        params = [a for layer in model.layers for a in (layer.kernel, layer.bias)]
        for p, g in zip(params, param_grads, strict=True):
            def loss_of(v, p=p):
                saved = p.copy()
                p[...] = v
                out = float((model.forward(x)[0] * grad_out).sum())
                p[...] = saved
                return out

            np.testing.assert_allclose(central_difference(loss_of, p), g, atol=1e-6)
