import numpy as np
import pytest

from conftest import central_difference
from qmil.tensor import check_finite
from qmil.layers import (
    MISSING,
    ConvLayer,
    FcnModel,
    _patch_view,
    _scatter_index,
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


class TestPatchView:
    @pytest.mark.parametrize("k, stride", [(1, 1), (3, 2), (5, 2), (4, 3)])
    def test_bit_equal_to_sliding_window_view(self, k, stride):
        rng = np.random.default_rng(10 * k + stride)
        base = rng.normal(size=(23, 31, 6)).astype(np.float32)
        strided = [base[1::2, ::3], base[:, :, 1:4], base.transpose(1, 0, 2), base[::-1]]
        for x in [base, *strided]:
            windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(0, 1))
            want = windows[::stride, ::stride].transpose(0, 1, 3, 4, 2)
            got = _patch_view(x, k, k, stride)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert np.shares_memory(_patch_view(base, k, k, stride), base)  # no copy

    def test_strided_input_convolves_like_its_copy(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 26, 3)).astype(np.float32)[::2, 1::2]
        layer = ConvLayer(rng.normal(size=(3, 3, 3, 4)).astype(np.float32),
                          rng.normal(size=4).astype(np.float32), 2)
        grad_out = rng.normal(size=(4, 6, 4)).astype(np.float32)
        dense = np.ascontiguousarray(x)
        assert np.array_equal(conv2d_forward(x, layer), conv2d_forward(dense, layer))
        for got, want in zip(conv2d_backward(x, layer, grad_out),
                             conv2d_backward(dense, layer, grad_out)):
            assert np.array_equal(got, want)


def _patch_path_conv(x, layer, grad_out):
    """Reference: the patch-view path every kernel size took before 1x1 had its own.

    im2col through _patch_view, the kernel gradient from the transposed patch
    matrix, and the input gradient scattered onto zeros by np.add.at.
    Returns (forward output, input gradient, kernel gradient).
    """
    kh, kw, c_in, c_out = layer.kernel.shape
    s = layer.stride
    patches = _patch_view(x, kh, kw, s)
    oh, ow = patches.shape[:2]
    K, P = kh * kw * c_in, oh * ow
    out = np.dot(patches.reshape(P, K), layer.kernel.reshape(K, c_out)).reshape(oh, ow, c_out)
    out += layer.bias
    grad_rows = grad_out.reshape(P, c_out)
    cols_t = patches.transpose(2, 3, 4, 0, 1).reshape(K, P)
    grad_kernel = np.dot(cols_t, grad_rows).reshape(layer.kernel.shape)
    kernel_t = layer.kernel.transpose(3, 0, 1, 2).reshape(c_out, K)
    grad_patches = np.dot(grad_rows, kernel_t).reshape(oh, ow, kh, kw, c_in)
    grad_input = np.zeros(x.shape, dtype=x.dtype)
    np.add.at(grad_input.reshape(-1), _scatter_index(x.shape, kh, kw, s),
              grad_patches.transpose(2, 3, 0, 1, 4).reshape(-1))
    return out, grad_input, grad_kernel


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 stays apart from +0.0


class TestOneByOneConv:
    # grids from 8x8 up are where a C-contiguous copy of the patch matrix
    # changed the kernel gradient's last bits
    @pytest.mark.parametrize("side", [1, 2, 3, 8, 14, 17, 33])
    @pytest.mark.parametrize("c_in, c_out", [(16, 4), (16, 5), (3, 8), (1, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_patch_path_bit_for_bit(self, side, c_in, c_out, dtype):
        rng = np.random.default_rng(1000 * side + 10 * c_in + c_out)
        x = rng.normal(size=(side, side, c_in)).astype(dtype)
        layer = ConvLayer(rng.normal(size=(1, 1, c_in, c_out)).astype(dtype),
                          rng.normal(size=c_out).astype(dtype), 1)
        grad_out = (rng.normal(size=(side, side, c_out))
                    * 10.0 ** rng.integers(-30, 3, (side, side, c_out))).astype(dtype)
        out, grad_input, grad_kernel = _patch_path_conv(x, layer, grad_out)
        _assert_same_bits(conv2d_forward(x, layer), out)
        gi, gk, gb = conv2d_backward(x, layer, grad_out)
        _assert_same_bits(gi, grad_input)
        _assert_same_bits(gk, grad_kernel)
        _assert_same_bits(gb, grad_out.sum(axis=(0, 1)))
        skipped, gk_only, _ = conv2d_backward(x, layer, grad_out, input_grad=False)
        assert skipped is None
        _assert_same_bits(gk_only, grad_kernel)

    @pytest.mark.parametrize("side, c_in, c_out", [(1, 1, 1), (1, 4, 1), (2, 1, 1), (9, 4, 3)])
    def test_signed_zeros_match_the_scatter(self, side, c_in, c_out):
        # zero products of both signs: the scatter's 0.0 + v makes every -0.0
        # +0.0; a single-term product (one pixel, one channel) is -0.0 for a
        # -0.0 gradient, so dropping the + 0.0 shows there
        rng = np.random.default_rng(7)
        x = rng.choice([-0.0, 0.0, -1.0, 2.0], size=(side, side, c_in)).astype(np.float32)
        # a positive kernel makes every product with a -0.0 gradient -0.0
        layer = ConvLayer(rng.uniform(0.5, 2.0, size=(1, 1, c_in, c_out)).astype(np.float32),
                          np.zeros(c_out, dtype=np.float32), 1)
        for grad_out in (np.full((side, side, c_out), -0.0, dtype=np.float32),
                         rng.choice([-0.0, 0.0, -3.0], size=(side, side, c_out))
                         .astype(np.float32)):
            out, grad_input, grad_kernel = _patch_path_conv(x, layer, grad_out)
            gi, gk, _ = conv2d_backward(x, layer, grad_out)
            assert not np.signbit(grad_input[grad_input == 0]).any()
            _assert_same_bits(conv2d_forward(x, layer), out)
            _assert_same_bits(gi, grad_input)
            _assert_same_bits(gk, grad_kernel)

    def test_non_contiguous_input_matches_its_copy(self):
        rng = np.random.default_rng(8)
        base = rng.normal(size=(20, 20, 12)).astype(np.float32)
        layer = ConvLayer(rng.normal(size=(1, 1, 6, 4)).astype(np.float32),
                          rng.normal(size=4).astype(np.float32), 1)
        for x in (base[::2, ::2, :6], base[:10, :10, ::2], base[:10, :10, 6:].transpose(1, 0, 2)):
            dense = np.ascontiguousarray(x)
            grad_out = rng.normal(size=(10, 10, 4)).astype(np.float32)
            out, grad_input, grad_kernel = _patch_path_conv(dense, layer, grad_out)
            _assert_same_bits(conv2d_forward(x, layer), out)
            gi, gk, _ = conv2d_backward(x, layer, grad_out)
            _assert_same_bits(gi, grad_input)
            _assert_same_bits(gk, grad_kernel)


class TestConvBackward:
    def test_transposed_input_gets_its_gradient(self):
        # the scatter target is C-ordered whatever the input's layout; a
        # zeros_like of a transposed input made reshape(-1) a copy and the
        # input gradient all zeros
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 9, 3)).astype(np.float32)
        x_t = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)  # same values
        layer = ConvLayer(rng.normal(size=(3, 3, 3, 4)).astype(np.float32),
                          rng.normal(size=4).astype(np.float32), 2)
        grad_out = rng.normal(size=(4, 4, 4)).astype(np.float32)
        for got, want in zip(conv2d_backward(x_t, layer, grad_out),
                             conv2d_backward(x, layer, grad_out)):
            _assert_same_bits(got, want)
        assert conv2d_backward(x_t, layer, grad_out)[0].any()

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


def _per_task_softmax(logits, counts):
    """Reference: e = exp(x - x.max(-1)); e / e.sum(-1), one task's channels at a time."""
    out, start = [], 0
    for count in counts:
        x = logits[..., start : start + count]
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        out.append(e / e.sum(axis=-1, keepdims=True))
        start += count
    return np.concatenate(out, axis=-1)


class TestInstanceSoftmax:
    # from 8 channels numpy sums a last axis pairwise, not term after term
    @pytest.mark.parametrize("counts", [[2, 2], [3, 2], [7], [8], [9, 2]], ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_task_layouts_match_per_task_formula_bit_for_bit(self, counts, dtype):
        rng = np.random.default_rng(sum(counts))
        for scale in (1.0, 30.0, 1e3):
            logits = (rng.normal(size=(61, 67, sum(counts))) * scale).astype(dtype)
            got = instance_softmax(logits, counts)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, _per_task_softmax(logits, counts))
        # tied maxima, with -0.0 next to +0.0
        ties = rng.choice([-0.0, 0.0, -1.0, 2.0], size=(5, 7, sum(counts))).astype(dtype)
        np.testing.assert_array_equal(
            instance_softmax(ties, counts), _per_task_softmax(ties, counts)
        )

    @pytest.mark.parametrize("num_classes", range(2, 10))
    def test_head_logits_match_formula_bit_for_bit(self, num_classes):
        rng = np.random.default_rng(num_classes)
        for dtype in (np.float32, np.float64):
            for scale in (1.0, 30.0, 1e3):
                for _ in range(50):
                    logits = (rng.normal(size=num_classes) * scale).astype(dtype)
                    np.testing.assert_array_equal(
                        instance_softmax(logits), _per_task_softmax(logits, [num_classes])
                    )

    @pytest.mark.parametrize("num_classes", range(2, 8))
    def test_head_logits_match_plane_path_bit_for_bit(self, num_classes):
        # a (1, C) input takes the channel-plane path, a (C,) input the direct one
        rng = np.random.default_rng(20 + num_classes)
        for dtype in (np.float32, np.float64):
            for scale in (1.0, 30.0, 1e3):
                logits = (rng.normal(size=(50, num_classes)) * scale).astype(dtype)
                for row in logits:
                    assert np.array_equal(instance_softmax(row),
                                          instance_softmax(row[None])[0])

    # groups of 8 or more channels take numpy's pairwise sum
    @pytest.mark.parametrize("counts", [[2, 2], [3, 2], [2, 5, 3], [8, 2], [9, 3]], ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_grouped_backward_matches_per_task_bit_for_bit(self, counts, dtype):
        rng = np.random.default_rng(len(counts) + sum(counts))
        for shape in ((2, 2), (5, 7), (14, 14)):
            probs = instance_softmax(rng.normal(size=(*shape, sum(counts))).astype(dtype), counts)
            grad = (rng.normal(size=probs.shape) * 10.0 ** rng.integers(-3, 3, probs.shape))
            grad = grad.astype(dtype)
            per_task, start = [], 0
            for count in counts:
                sl = slice(start, start + count)
                per_task.append(instance_softmax_backward(
                    probs[..., sl], np.ascontiguousarray(grad[..., sl])))
                start += count
            got = instance_softmax_backward(probs, grad, counts)
            assert got.flags.c_contiguous
            assert np.array_equal(got, np.concatenate(per_task, axis=-1))

    @pytest.mark.parametrize("counts", [[2, 2], [3, 2], [2, 5, 3], [2, 2, 3, 3], [8, 2], [9]],
                             ids=str)
    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (1, 5), (4, 4)], ids=str)
    def test_small_grids_match_per_task_formula_bit_for_bit(self, counts, shape):
        # crop-sized grids, down to crop 11's single instance
        rng = np.random.default_rng(sum(counts) + 7 * shape[1])
        for dtype in (np.float32, np.float64):
            for scale in (1.0, 30.0, 1e3):
                logits = (rng.normal(size=(*shape, sum(counts))) * scale).astype(dtype)
                got = instance_softmax(logits, counts)
                assert got.flags.c_contiguous
                np.testing.assert_array_equal(got, _per_task_softmax(logits, counts))
                grad = rng.normal(size=got.shape).astype(dtype)
                per_task, start = [], 0
                for count in counts:
                    sl = slice(start, start + count)
                    per_task.append(instance_softmax_backward(
                        got[..., sl], np.ascontiguousarray(grad[..., sl])))
                    start += count
                assert np.array_equal(instance_softmax_backward(got, grad, counts),
                                      np.concatenate(per_task, axis=-1))

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 8, 11])
    def test_head_path_matches_reduction_formula_bit_for_bit(self, num_classes):
        # the previous 1-D path, kept as the reference: max and sum as reductions
        def reference(x):
            e = x - x.max()
            np.exp(e, out=e)
            e /= e.sum()
            return e

        def reference_backward(probs, grad):
            inner = (grad * probs).sum(axis=-1, keepdims=True)
            return probs * (grad - inner)

        rng = np.random.default_rng(40 + num_classes)
        for dtype in (np.float32, np.float64):
            for scale in (1e-3, 1.0, 30.0, 1e3):
                for _ in range(40):
                    x = (rng.normal(size=num_classes) * scale).astype(dtype)
                    got = instance_softmax(x)
                    _assert_same_bits(got, reference(x))
                    grad = (rng.normal(size=num_classes)
                            * rng.choice([0.0, -0.0, 1.0, 1e-30], size=num_classes)).astype(dtype)
                    _assert_same_bits(instance_softmax_backward(got, grad),
                                      reference_backward(got, grad))
            # tied and zero maxima, -0.0 next to +0.0
            for _ in range(40):
                x = rng.choice([-0.0, 0.0, -1.0, -2.5], size=num_classes).astype(dtype)
                _assert_same_bits(instance_softmax(x), reference(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_head_path_rejects_non_finite_logits(self, bad):
        for dtype in (np.float32, np.float64):
            for position in range(3):
                x = np.array([0.5, -1.0, 2.0], dtype=dtype)
                x[position] = bad
                with pytest.raises(FloatingPointError,
                                   match="non-finite values in instance_softmax input"):
                    instance_softmax(x)
        with pytest.raises(ValueError, match="two classes"):  # checked first
            instance_softmax(np.array([np.nan]))

    def test_class_counts_must_split_the_channels(self):
        with pytest.raises(ValueError, match="two classes"):
            instance_softmax(np.zeros((2, 2, 4)), [1, 3])
        with pytest.raises(ValueError, match="do not split 4 channels"):
            instance_softmax(np.zeros((2, 2, 4)), [2, 3])

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

    @pytest.mark.parametrize("trunk", [((5, 2, 3, 8), (3, 2, 8, 16)), ((3, 1, 3, 4),),
                                       ((7, 3, 3, 4), (2, 2, 4, 4), (3, 1, 4, 4))])
    def test_grid_side_matches_layer_by_layer_loop(self, trunk):
        model = FcnModel([2, 2], trunk=trunk)
        for side in range(1, 90):
            valid, out = True, side
            for layer in model.layers:
                k = layer.kernel.shape[0]
                if out < k:
                    valid = False
                    break
                out = (out - k) // layer.stride + 1
            if valid:
                assert model.grid_side(side) == out
            else:
                with pytest.raises(ValueError, match="too small"):
                    model.grid_side(side)

    def test_minimum_input_is_receptive_field(self):
        model = FcnModel([2, 2])
        assert model.grid_side(model.receptive_field) == 1
        with pytest.raises(ValueError, match="too small"):
            model.grid_side(model.receptive_field - 5)

    def test_final_channels_cover_all_tasks(self):
        model = FcnModel([3, 2, 4])
        assert model.layers[-1].kernel.shape[-1] == model.layers[-1].bias.size == 9
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


@pytest.mark.parametrize("shape", [(0,), (3,), (2, 3), (2, 2, 4)])
def test_check_finite_rejects_each_non_finite_value(shape):
    good = np.ones(shape, dtype=np.float32)
    assert check_finite(good) is good
    for bad in (np.nan, np.inf, -np.inf):
        for i in range(good.size):
            arr = good.copy()
            arr.flat[i] = bad
            with pytest.raises(FloatingPointError, match="non-finite values in here"):
                check_finite(arr, "here")
