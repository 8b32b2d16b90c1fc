import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (central_difference, conv_backward, conv_buffers, conv_forward, model_forward,
                      random_image)
from qmil.tensor import check_finite
from qmil.layers import (
    LOG_EPS,
    MISSING,
    ConvBuffers,
    ConvLayer,
    FcnModel,
    Workspace,
    _scatter_index,
    channel_slices,
    conv2d_backward,
    conv2d_forward,
    init_params,
    instance_softmax,
    instance_softmax_backward,
    loss_tables,
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
        np.testing.assert_allclose(conv_forward(x, layer), x)

    def test_constant_input_all_ones_kernel(self):
        x = np.ones((5, 5, 1))
        layer = _layer(np.ones((3, 3, 1, 1)))
        layer.bias[:] = 0.5
        out = conv_forward(x, layer)
        assert out.shape == (3, 3, 1)
        np.testing.assert_allclose(out, 9.5)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 6, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 3)), stride=2)
        layer.bias[:] = rng.normal(size=3)
        np.testing.assert_allclose(conv_forward(x, layer), _naive_conv(x, layer), atol=1e-5)

    def test_input_smaller_than_kernel(self):
        with pytest.raises(ValueError, match="smaller than kernel"):
            conv_forward(np.zeros((2, 2, 1)), _layer(np.zeros((3, 3, 1, 1))))

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channels"):
            conv_forward(np.zeros((4, 4, 2)), _layer(np.zeros((3, 3, 1, 1))))


def _tensordot_conv(x, layer, grad_out):
    """The tensordot formulation of the conv products: the reference, bit-exact for
    the forward output.

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
    @pytest.mark.parametrize("c_in", [3, 8])
    def test_bit_identical_to_tensordot(self, k, stride, side, c_in):
        # the forward output to the bit in float32; the gradients, whose
        # products and sums run in another order, to 1e-12 in float64
        # the 3-channel cases keep the seeds they had before the 8-channel ones
        rng = np.random.default_rng(1000 * (c_in - 3) + 100 * k + 10 * stride + side)
        oh = (side - k) // stride + 1

        def case(dtype):
            x = rng.normal(size=(side, side, c_in)).astype(dtype)
            layer = ConvLayer(rng.normal(size=(k, k, c_in, 8)).astype(dtype),
                              rng.normal(size=8).astype(dtype), stride)
            return x, layer, rng.normal(size=(oh, oh, 8)).astype(dtype)

        x, layer, grad_out = case(np.float32)
        assert np.array_equal(conv_forward(x, layer), _tensordot_conv(x, layer, grad_out)[0])
        x, layer, grad_out = case(np.float64)
        out, grad_input, grad_kernel = _tensordot_conv(x, layer, grad_out)
        assert np.array_equal(conv_forward(x, layer), out)
        gi, gk, gb = conv_backward(x, layer, grad_out)
        if c_in == 3:
            np.testing.assert_allclose(gi, grad_input, rtol=1e-12, atol=0)
        else:
            # an 8-channel input gradient has sums of k*k*8 products that
            # cancel far below their size, so its error is bounded by 1e-12
            # of their magnitudes' sum
            magnitude = _tensordot_conv(x, ConvLayer(np.abs(layer.kernel), layer.bias, stride),
                                        np.abs(grad_out))[1]
            assert (np.abs(gi - grad_input) <= 1e-12 * magnitude).all()
        np.testing.assert_allclose(gk, grad_kernel, rtol=1e-12, atol=0)
        np.testing.assert_allclose(gb, grad_out.sum(axis=(0, 1)), rtol=1e-12, atol=0)
        skipped, gk_only, gb_only = conv_backward(x, layer, grad_out, input_grad=False)
        assert skipped is None
        assert np.array_equal(gk_only, gk)
        assert np.array_equal(gb_only, gb)


def _patches(x, k, stride):
    """The (B, oh, ow, k, k, c) patches of a (B, H, W, c) batch, from sliding_window_view."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
    return windows[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)


class TestRunView:
    @pytest.mark.parametrize("k, stride", [(1, 2), (3, 2), (5, 2), (4, 3)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_sliding_window_view(self, k, stride, dtype):
        # each item of the run view is one kernel row of a patch: its k*c
        # contiguous input values as one void item
        rng = np.random.default_rng(10 * k + stride)
        x = rng.normal(size=(2, 23, 31, 6)).astype(dtype)
        layer = ConvLayer(np.zeros((k, k, 6, 4), dtype), np.zeros(4, dtype), stride)
        got = conv_buffers(x, layer).patches
        want = _patches(x, k, stride)
        assert got.shape == want.shape[:4]
        assert got.dtype.itemsize == k * 6 * x.itemsize
        assert np.array_equal(got.copy().view(dtype).reshape(want.shape), want)
        assert not got.flags.writeable
        assert np.shares_memory(got, x)  # no copy

    def test_a_one_by_one_kernel_at_stride_one_has_no_run_view(self):
        x = np.zeros((1, 5, 5, 3), np.float32)
        layer = ConvLayer(np.zeros((1, 1, 3, 2), np.float32), np.zeros(2, np.float32), 1)
        assert conv_buffers(x, layer).patches is None

    def test_rejects_a_non_contiguous_input(self):
        layer = ConvLayer(np.zeros((3, 3, 3, 2)), np.zeros(2), 1)
        with pytest.raises(ValueError, match="contiguous"):
            conv_buffers(np.zeros((1, 8, 8, 3))[:, ::2], layer)

    @pytest.mark.parametrize("k, stride", [(1, 1), (3, 2), (5, 2), (4, 3)])
    def test_strided_input_is_refused(self, k, stride):
        # the buffers read their input in place, and a strided array cannot
        # be, so they refuse it rather than convolve a silent copy
        rng = np.random.default_rng(10 * k + stride)
        base = rng.normal(size=(23, 31, 6)).astype(np.float32)
        for x in [base[1::2, ::3], base[:, :, 1:4], base.transpose(1, 0, 2), base[::-1]]:
            c_in = x.shape[2]
            layer = ConvLayer(rng.normal(size=(k, k, c_in, 4)).astype(np.float32),
                              rng.normal(size=4).astype(np.float32), stride)
            with pytest.raises(ValueError, match="C-contiguous input"):
                conv_buffers(x[None], layer)
            conv_buffers(np.ascontiguousarray(x[None]), layer)  # its copy is accepted


def _patch_path_conv(x, layer, grad_out):
    """Reference: the patch-view path every kernel size took before 1x1 had its own.

    im2col from sliding_window_view, the kernel gradient from the transposed view of
    the patch matrix, the bias gradient from a ones vector, and the input
    gradient scattered onto zeros by np.add.at in patch order.
    Returns (forward output, input gradient, kernel gradient, bias gradient).
    """
    kh, kw, c_in, c_out = layer.kernel.shape
    s = layer.stride
    (patches,) = _patches(x[None], kh, s)
    oh, ow = patches.shape[:2]
    K, P = kh * kw * c_in, oh * ow
    out = np.dot(patches.reshape(P, K), layer.kernel.reshape(K, c_out)).reshape(oh, ow, c_out)
    out += layer.bias
    grad_rows = grad_out.reshape(P, c_out)
    cols = np.ascontiguousarray(patches.reshape(P, K))
    grad_kernel = np.dot(cols.T, grad_rows).reshape(layer.kernel.shape)
    grad_bias = np.dot(np.ones(P, x.dtype), grad_rows)
    kernel_t = layer.kernel.transpose(3, 0, 1, 2).reshape(c_out, K)
    grad_patches = np.dot(grad_rows, kernel_t)
    grad_input = np.zeros(x.shape, dtype=x.dtype)
    np.add.at(grad_input.reshape(-1), _scatter_index((1, *x.shape), kh, kw, s),
              grad_patches.reshape(-1))
    return out, grad_input, grad_kernel, grad_bias


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
        out, grad_input, grad_kernel, grad_bias = _patch_path_conv(x, layer, grad_out)
        _assert_same_bits(conv_forward(x, layer), out)
        gi, gk, gb = conv_backward(x, layer, grad_out)
        _assert_same_bits(gi, grad_input)
        _assert_same_bits(gk, grad_kernel)
        _assert_same_bits(gb, grad_bias)
        skipped, gk_only, _ = conv_backward(x, layer, grad_out, input_grad=False)
        assert skipped is None
        _assert_same_bits(gk_only, grad_kernel)

    @pytest.mark.parametrize("side, c_in, c_out", [(1, 1, 1), (1, 4, 1), (2, 1, 1), (9, 4, 3)])
    def test_signed_zeros_match_the_scatter(self, side, c_in, c_out):
        # zero products of both signs: the scatter's 0.0 + v makes every -0.0
        # +0.0, while the 1x1 path keeps a single-term product (one pixel, one
        # channel) -0.0 for a -0.0 gradient; the two are equal in value
        rng = np.random.default_rng(7)
        x = rng.choice([-0.0, 0.0, -1.0, 2.0], size=(side, side, c_in)).astype(np.float32)
        # a positive kernel makes every product with a -0.0 gradient -0.0
        layer = ConvLayer(rng.uniform(0.5, 2.0, size=(1, 1, c_in, c_out)).astype(np.float32),
                          np.zeros(c_out, dtype=np.float32), 1)
        for grad_out in (np.full((side, side, c_out), -0.0, dtype=np.float32),
                         rng.choice([-0.0, 0.0, -3.0], size=(side, side, c_out))
                         .astype(np.float32)):
            out, grad_input, grad_kernel, _ = _patch_path_conv(x, layer, grad_out)
            gi, gk, _ = conv_backward(x, layer, grad_out)
            assert not np.signbit(grad_input[grad_input == 0]).any()
            _assert_same_bits(conv_forward(x, layer), out)
            assert gi.dtype == grad_input.dtype and np.array_equal(gi, grad_input)
            _assert_same_bits(gk, grad_kernel)

    def test_non_contiguous_input_is_refused(self):
        # x.reshape(P, c_in) of a strided x would be a copy, not the patch matrix
        rng = np.random.default_rng(8)
        base = rng.normal(size=(20, 20, 12)).astype(np.float32)
        layer = ConvLayer(rng.normal(size=(1, 1, 6, 4)).astype(np.float32),
                          rng.normal(size=4).astype(np.float32), 1)
        for x in (base[::2, ::2, :6], base[:10, :10, ::2], base[:10, :10, 6:].transpose(1, 0, 2)):
            with pytest.raises(ValueError, match="C-contiguous input"):
                conv_buffers(x[None], layer)


class TestConvBuffers:
    """Calls in buffers reused across calls compute what calls in fresh buffers compute."""

    @pytest.mark.parametrize("k, stride", [(1, 1), (3, 2), (5, 2), (1, 2)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_reused_buffers_match_fresh_buffers_bit_for_bit(self, k, stride, dtype, input_grad):
        rng = np.random.default_rng(10 * k + stride)
        layer = ConvLayer(rng.normal(size=(k, k, 3, 4)).astype(dtype),
                          rng.normal(size=4).astype(dtype), stride)
        side = 13
        grad_views = [np.empty(layer.kernel.shape, dtype), np.empty(4, dtype)]
        buffers = ConvBuffers(np.empty((1, side, side, 3), dtype), layer, *grad_views,
                              input_grad)
        oh = (side - k) // stride + 1
        for _ in range(3):  # every call overwrites what the previous one left
            x = rng.normal(size=(side, side, 3)).astype(dtype)
            grad_out = (rng.normal(size=(oh, oh, 4))
                        * 10.0 ** rng.integers(-30, 3, (oh, oh, 4))).astype(dtype)
            buffers.input[...] = x
            out = conv2d_forward(buffers.input, layer, buffers)
            assert out is buffers.out
            _assert_same_bits(out[0], conv_forward(x, layer))
            got = conv2d_backward(buffers.input, layer, grad_out[None], buffers)
            want = conv_backward(x, layer, grad_out, input_grad)
            assert got[1] is grad_views[0] and got[2] is grad_views[1]
            if input_grad:
                got = (got[0][0], *got[1:])
            else:
                assert got[0] is None and want[0] is None
                got, want = got[1:], want[1:]
            for g, w in zip(got, want, strict=True):
                _assert_same_bits(g, w)

    def test_buffers_refuse_another_input_or_layer(self):
        rng = np.random.default_rng(1)
        layer = ConvLayer(rng.normal(size=(3, 3, 2, 4)), np.zeros(4), 2)
        buffers = conv_buffers(np.zeros((2, 7, 7, 2)), layer)
        same_shape = np.zeros((2, 7, 7, 2))
        twin = ConvLayer(layer.kernel.copy(), layer.bias, 2)
        for x, other in ((same_shape, layer), (buffers.input, twin)):
            with pytest.raises(ValueError, match="another input array or layer"):
                conv2d_forward(x, other, buffers)
            with pytest.raises(ValueError, match="another input array or layer"):
                conv2d_backward(x, other, np.zeros((2, 3, 3, 4)), buffers)
        conv2d_forward(buffers.input, layer, buffers)
        for shape in ((2, 2, 2, 4), (1, 3, 3, 4), (3, 3, 4)):
            with pytest.raises(ValueError, match="grad_out shape"):
                conv2d_backward(buffers.input, layer, np.zeros(shape), buffers)
        with pytest.raises(ValueError, match="channels"):
            conv_buffers(np.zeros((1, 7, 7, 3)), layer)
        with pytest.raises(ValueError, match="smaller than kernel"):
            conv_buffers(np.zeros((1, 2, 7, 2)), layer)
        with pytest.raises(ValueError, match="batch, height, width, channels"):
            conv_buffers(np.zeros((7, 7, 2)), layer)

    @pytest.mark.parametrize("k, stride", [(1, 1), (3, 2)])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_before_any_forward_is_refused(self, k, stride, input_grad):
        # the backward reads the patch matrix a forward wrote; before the
        # first forward the buffers hold none
        rng = np.random.default_rng(3)
        layer = ConvLayer(rng.normal(size=(k, k, 2, 4)), np.zeros(4), stride)
        buffers = conv_buffers(rng.normal(size=(1, 7, 7, 2)), layer, input_grad)
        grad_out = np.ones(buffers.out.shape)
        with pytest.raises(ValueError, match="conv2d_forward"):
            conv2d_backward(buffers.input, layer, grad_out, buffers)
        conv2d_forward(buffers.input, layer, buffers)
        got = conv2d_backward(buffers.input, layer, grad_out, buffers)
        _assert_same_bits(got[1], conv_backward(buffers.input[0], layer, grad_out[0])[1])

    def test_gradient_arrays_that_cannot_receive_the_gradients_are_refused(self):
        # float64 activations under float32 gradient arrays, arrays of
        # another shape and a strided view that np.dot cannot write into
        rng = np.random.default_rng(2)
        layer = ConvLayer(rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4), 1)
        x = rng.normal(size=(1, 6, 6, 2))
        kernel, bias = np.zeros(layer.kernel.shape), np.zeros(4)
        for grads in ((kernel.astype(np.float32), bias), (kernel, bias.astype(np.float32)),
                      (kernel[..., :2], bias), (kernel, np.zeros(8)[::2]),
                      (np.zeros((3, 3, 4, 2)).transpose(0, 1, 3, 2), bias)):
            with pytest.raises(ValueError, match="cannot receive the float64 gradient"):
                ConvBuffers(x, layer, *grads, True)
        buffers = ConvBuffers(x, layer, kernel, bias, True)
        conv2d_forward(x, layer, buffers)
        got = conv2d_backward(x, layer, rng.normal(size=(1, 4, 4, 4)), buffers)
        assert got[1] is kernel and got[2] is bias and kernel.any() and bias.any()

    @pytest.mark.parametrize("k, stride", [(1, 1), (3, 2), (5, 2), (3, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_batch_convolves_every_input_as_alone(self, k, stride, dtype):
        # each input's output and input gradient are its own rows of the
        # batch's products; the kernel and bias gradients sum over the batch
        rng = np.random.default_rng(100 * k + stride)
        layer = ConvLayer(rng.normal(size=(k, k, 3, 4)).astype(dtype),
                          rng.normal(size=4).astype(dtype), stride)
        side, batch = 11, 5
        oh = (side - k) // stride + 1
        x = rng.normal(size=(batch, side, side, 3)).astype(dtype)
        grad_out = rng.normal(size=(batch, oh, oh, 4)).astype(dtype)
        buffers = conv_buffers(x, layer)
        out = conv2d_forward(x, layer, buffers)
        assert out.shape == (batch, oh, oh, 4)
        gi, gk, gb = conv2d_backward(x, layer, grad_out, buffers)
        alone = [conv_backward(x[b], layer, grad_out[b]) for b in range(batch)]
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for b in range(batch):
            np.testing.assert_allclose(out[b], conv_forward(x[b], layer), rtol=tol, atol=tol)
            np.testing.assert_allclose(gi[b], alone[b][0], rtol=tol, atol=tol)
        np.testing.assert_allclose(gk, sum(a[1] for a in alone), rtol=tol, atol=tol)
        np.testing.assert_allclose(gb, sum(a[2] for a in alone), rtol=tol, atol=tol)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 5, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 2)))
        gi, gk, gb = conv_backward(x, layer, np.zeros((3, 3, 2)))
        assert not gi.any() and not gk.any() and not gb.any()

    def test_identity_kernel_passthrough(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 4, 1))
        layer = _layer(np.ones((1, 1, 1, 1)))
        grad_out = rng.normal(size=(4, 4, 1))
        gi, _, _ = conv_backward(x, layer, grad_out)
        np.testing.assert_allclose(gi, grad_out)

    def test_shape_mismatch(self):
        x = np.zeros((5, 5, 1))
        layer = _layer(np.zeros((3, 3, 1, 1)))
        with pytest.raises(ValueError, match="grad_out"):
            conv_backward(x, layer, np.zeros((2, 2, 1)))

    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 6, 2))
        layer = _layer(rng.normal(size=(3, 3, 2, 2)), stride=2)
        layer.bias[:] = rng.normal(size=2)
        grad_out = rng.normal(size=(2, 2, 2))
        gi, gk, gb = conv_backward(x, layer, grad_out)

        np.testing.assert_allclose(
            central_difference(lambda v: float((conv_forward(v, layer) * grad_out).sum()), x),
            gi, atol=1e-6,
        )

        def loss_of_kernel(k):
            return float((conv_forward(x, ConvLayer(k, layer.bias, 2)) * grad_out).sum())

        np.testing.assert_allclose(central_difference(loss_of_kernel, layer.kernel), gk, atol=1e-6)

        def loss_of_bias(b):
            return float((conv_forward(x, ConvLayer(layer.kernel, b, 2)) * grad_out).sum())

        np.testing.assert_allclose(central_difference(loss_of_bias, layer.bias), gb, atol=1e-6)

        # skipping the input gradient leaves the parameter gradients bit-identical
        skipped, gk_only, gb_only = conv_backward(x, layer, grad_out, input_grad=False)
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
                        instance_softmax(logits, [num_classes]),
                        _per_task_softmax(logits, [num_classes])
                    )

    @pytest.mark.parametrize("counts", [[2], [2, 2], [3, 2], [2, 5, 3], [7]], ids=str)
    def test_head_rows_of_a_batch_match_each_row_alone(self, counts):
        # every task's heads of a batch run as one (B, C) call; each row is
        # its own bag, as a (C,) row alone
        rng = np.random.default_rng(20 + sum(counts))
        for dtype in (np.float32, np.float64):
            for scale in (1.0, 30.0, 1e3):
                logits = (rng.normal(size=(50, sum(counts))) * scale).astype(dtype)
                probs = instance_softmax(logits, counts)
                grad = rng.normal(size=probs.shape).astype(dtype)
                grad_logits = instance_softmax_backward(probs, grad, counts)
                for row, p, g, want in zip(logits, probs, grad, grad_logits, strict=True):
                    assert np.array_equal(instance_softmax(row, counts), p)
                    assert np.array_equal(instance_softmax_backward(p, g, counts), want)

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
                    probs[..., sl], np.ascontiguousarray(grad[..., sl]), [count]))
                start += count
            got = instance_softmax_backward(probs, grad, counts)
            assert got.flags.c_contiguous
            _assert_same_bits(got, np.concatenate(per_task, axis=-1))

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
                        got[..., sl], np.ascontiguousarray(grad[..., sl]), [count]))
                    start += count
                _assert_same_bits(instance_softmax_backward(got, grad, counts),
                                  np.concatenate(per_task, axis=-1))

    @pytest.mark.parametrize("num_classes", [2, 3, 5, 8, 11])
    def test_head_path_matches_reduction_formula_bit_for_bit(self, num_classes):
        # the heads' former direct path, kept as the reference: max and sum as
        # reductions along the last axis
        def reference(x):
            e = x - x.max(axis=-1, keepdims=True)
            np.exp(e, out=e)
            e /= e.sum(axis=-1, keepdims=True)
            return e

        def reference_backward(probs, grad):
            inner = (grad * probs).sum(axis=-1, keepdims=True)
            return probs * (grad - inner)

        rng = np.random.default_rng(40 + num_classes)
        for dtype in (np.float32, np.float64):
            for scale in (1e-3, 1.0, 30.0, 1e3):
                for _ in range(40):
                    # one bag's head, and a batch of 16 bags' heads
                    for shape in ((num_classes,), (16, num_classes)):
                        x = (rng.normal(size=shape) * scale).astype(dtype)
                        got = instance_softmax(x, [num_classes])
                        _assert_same_bits(got, reference(x))
                        grad = (rng.normal(size=shape)
                                * rng.choice([0.0, -0.0, 1.0, 1e-30], size=shape)).astype(dtype)
                        _assert_same_bits(instance_softmax_backward(got, grad, [num_classes]),
                                          reference_backward(got, grad))
            # tied and zero maxima, -0.0 next to +0.0
            for _ in range(40):
                x = rng.choice([-0.0, 0.0, -1.0, -2.5], size=num_classes).astype(dtype)
                _assert_same_bits(instance_softmax(x, [num_classes]), reference(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_head_path_rejects_non_finite_logits(self, bad):
        for dtype in (np.float32, np.float64):
            for position in range(3):
                x = np.array([0.5, -1.0, 2.0], dtype=dtype)
                x[position] = bad
                with pytest.raises(FloatingPointError,
                                   match="non-finite values in instance_softmax input"):
                    instance_softmax(x, [3])
        with pytest.raises(ValueError, match="two classes"):  # checked first
            instance_softmax(np.array([np.nan]), [1])

    def test_class_counts_must_split_the_channels(self):
        with pytest.raises(ValueError, match="two classes"):
            instance_softmax(np.zeros((2, 2, 4)), [1, 3])
        with pytest.raises(ValueError, match="do not split 4 channels"):
            instance_softmax(np.zeros((2, 2, 4)), [2, 3])

    def test_equal_logits_give_uniform(self):
        out = instance_softmax(np.zeros((2, 2, 4)), [4])
        np.testing.assert_allclose(out, 0.25)

    def test_closed_form_two_class(self):
        out = instance_softmax(np.array([0.0, np.log(3.0)]).reshape(1, 1, 2), [2])
        np.testing.assert_allclose(out.reshape(-1), [0.25, 0.75], atol=1e-12)

    def test_large_logits_stable(self):
        out = instance_softmax(np.array([1000.0, 0.0]).reshape(1, 1, 2), [2])
        np.testing.assert_allclose(out.reshape(-1), [1.0, 0.0])

    def test_locations_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = instance_softmax(rng.normal(size=(3, 4, 5)), [5])
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_translation_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(3, 3, 4))
        shifted = instance_softmax(logits + 7.5, [4])
        np.testing.assert_allclose(shifted, instance_softmax(logits, [4]), atol=1e-6)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError, match="two classes"):
            instance_softmax(np.zeros((2, 2, 1)), [1])

    def test_backward_finite_differences(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(2, 2, 3))
        grad_probs = rng.normal(size=(2, 2, 3))
        probs = instance_softmax(logits, [3])
        analytic = instance_softmax_backward(probs, grad_probs, [3])
        fd = central_difference(
            lambda l: float((instance_softmax(l, [3]) * grad_probs).sum()), logits
        )
        np.testing.assert_allclose(analytic, fd, atol=1e-6)


def _cross_entropy(bag_probs, labels, weights):
    """masked_cross_entropy of one bag: (its loss, its (C,) gradient per task)."""
    counts = [p.size for p in bag_probs]
    positions, table = loss_tables([labels], counts, weights, 1)
    loss, grad = masked_cross_entropy(np.concatenate(bag_probs)[None], positions, table, counts)
    return loss[0], np.split(grad[0], np.cumsum(counts)[:-1])


def _scalar_cross_entropy(bag_probs, labels, task_weights):
    """The per-term formula that masked_cross_entropy replaced, as the reference.

    bag_probs holds a (B, count) array per task and labels B rows of a label
    per task. Returns (a list of B float losses, a gradient per task).
    """
    rows = [p.tolist() for p in bag_probs]
    terms = []  # (bag, task, label, weight, probability) per known label
    for b, row_labels in enumerate(labels):
        for t, (label, weight) in enumerate(zip(row_labels, task_weights)):
            if label != MISSING:
                terms.append((b, t, label, weight, rows[t][b][label]))
    loss = [0.0] * len(labels)
    grads = [np.zeros(p.shape, p.dtype) for p in bag_probs]
    clamped = [max(value, LOG_EPS) for *_, value in terms]
    for (b, t, label, weight, value), p, log_p in zip(terms, clamped,
                                                       np.log(clamped).tolist()):
        loss[b] -= weight * log_p
        if value > LOG_EPS:
            grads[t][b, label] = -weight / p
    return loss, grads


# float32 label probabilities at and around the clamp: 0, below LOG_EPS, the
# float32 neighbours of LOG_EPS on either side, and exactly 1
_EDGE_PROBABILITIES = [0.0, 1e-13, float(np.float32(1e-12)),
                       float(np.nextafter(np.float32(1e-12), np.float32(1))), 1.0]


class TestMaskedCrossEntropy:
    def test_all_missing_is_zero(self):
        probs = [np.array([0.5, 0.5]), np.array([0.25, 0.25, 0.5])]
        loss, grads = _cross_entropy(probs, (MISSING, MISSING), [1.0, 1.0])
        assert loss == 0.0
        assert all(not g.any() for g in grads)

    def test_closed_form_log_two(self):
        loss, grads = _cross_entropy([np.array([0.5, 0.5])], (0,), [1.0])
        np.testing.assert_allclose(loss, np.log(2.0), atol=1e-12)
        np.testing.assert_allclose(grads[0], [-2.0, 0.0])

    def test_additive_across_tasks(self):
        p1, p2 = np.array([0.3, 0.7]), np.array([0.2, 0.8])
        both, _ = _cross_entropy([p1, p2], (1, 0), [1.0, 2.0])
        first, _ = _cross_entropy([p1], (1,), [1.0])
        second, _ = _cross_entropy([p2], (0,), [2.0])
        np.testing.assert_allclose(both, first + second, atol=1e-12)

    def test_missing_task_gets_zero_gradient(self):
        probs = [np.array([0.3, 0.7]), np.array([0.2, 0.8])]
        _, grads = _cross_entropy(probs, (1, MISSING), [1.0, 1.0])
        assert grads[0].any()
        assert not grads[1].any()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            _cross_entropy([np.array([0.5, 0.5])], (2,), [1.0])

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ValueError, match="sum to"):
            _cross_entropy([np.array([0.5, 0.6])], (0,), [1.0])

    @pytest.mark.parametrize("missing", [False, True])
    def test_any_row_that_does_not_sum_to_one_raises(self, missing):
        # the third bag's second task, whether or not its label is known
        probs = np.tile(np.float32([0.25, 0.25, 0.5, 0.5, 0.5]), (4, 1))
        probs[2, 3:] = 0.5, 0.6
        labels = np.array([[0, 1]] * 4)
        labels[2, 1] = MISSING if missing else 1
        positions, weights = loss_tables(labels, [3, 2], [1.0, 1.0], 4)
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.100000, not 1$"):
            masked_cross_entropy(probs, positions, weights, [3, 2])

    def test_a_nan_probability_anywhere_raises(self):
        # a nan row sum compares false against both bounds, wherever it lies
        labels = np.array([[0, 1]] * 4)
        positions, weights = loss_tables(labels, [3, 2], [1.0, 1.0], 4)
        for cell in range(20):
            probs = np.tile(np.float32([0.25, 0.25, 0.5, 0.5, 0.5]), (4, 1))
            probs.flat[cell] = np.nan
            with pytest.raises(ValueError, match=r"^probabilities sum to nan, not 1$"):
                masked_cross_entropy(probs, positions, weights, [3, 2])

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(8)
        raw = [rng.uniform(0.1, 1.0, size=3), rng.uniform(0.1, 1.0, size=2)]
        probs = [r / r.sum() for r in raw]
        labels = (2, 0)
        weights = [1.0, 0.5]
        _, grads = _cross_entropy(probs, labels, weights)
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

    def test_a_batch_gives_every_bag_its_own_loss_and_gradient(self):
        # bit for bit: a bag's loss and gradient do not depend on its batch
        rng = np.random.default_rng(9)
        raw = [rng.uniform(0.0, 1.0, size=(6, 3)), rng.uniform(0.0, 1.0, size=(6, 2))]
        probs = np.concatenate([r / r.sum(axis=1, keepdims=True) for r in raw], axis=1)
        probs = probs.astype(np.float32)
        probs[4, :3] = [1.0, 0.0, 0.0]  # a zero probability of the label: clamped, no gradient
        # a missing label beside the last class of the task before it
        labels = np.array([[2, 0], [MISSING, 1], [2, MISSING], [MISSING, MISSING],
                           [1, 0], [2, 1]])
        weights = [1.0, 0.5]
        positions, table = loss_tables(labels, [3, 2], weights, 6)
        losses, grad = masked_cross_entropy(probs, positions, table, [3, 2])
        assert losses.shape == (6,) and losses.dtype == np.float64
        assert grad.shape == probs.shape and grad.dtype == np.float32
        for b in range(6):
            loss, alone = _cross_entropy([probs[b, :3], probs[b, 3:]], labels[b], weights)
            assert losses[b] == loss
            assert np.array_equal(grad[b], np.concatenate(alone))
        assert losses[3] == 0.0 and not grad[3].any()
        assert not grad[4, :3].any() and losses[4] > 20
        with pytest.raises(ValueError, match=r"bag predictions of shape \(2, 5\) for class "
                                             r"counts \[3, 2\], label tables of shapes "
                                             r"\(6, 2\) and \(6, 2\)"):
            masked_cross_entropy(probs[:2], positions, table, [3, 2])
        with pytest.raises(ValueError, match=r"bag predictions of shape \(6, 5\) for class "
                                             r"counts \[2, 2\]"):
            masked_cross_entropy(probs, positions, table, [2, 2])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), num_bags=st.integers(1, 40),
           counts=st.sampled_from([(2, 2), (3, 2)]), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_scalar_formula_bit_for_bit(self, data, num_bags, counts, seed):
        # missing labels, zero weights, label probabilities at the clamp and
        # exactly 1, in batches of 1 to 40 bags; the gradient's sign bits too
        rng = np.random.default_rng(seed)
        weights = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(0, 10),
                                     min_size=2, max_size=2))
        labels = np.array([[data.draw(st.integers(MISSING, c - 1)) for c in counts]
                           for _ in range(num_bags)])
        per_task = []
        for t, count in enumerate(counts):
            raw = rng.uniform(0.0, 1.0, size=(num_bags, count))
            probs = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
            for b in range(num_bags):
                edge = data.draw(st.sampled_from([None, *_EDGE_PROBABILITIES]))
                if edge is not None:
                    label = labels[b, t] if labels[b, t] != MISSING else 0
                    row = np.full(count, (1 - edge) / (count - 1))
                    row[label] = edge
                    probs[b] = row  # rounded to float32; the row still sums to 1
            per_task.append(probs)
        want_loss, want_grads = _scalar_cross_entropy(per_task, labels.tolist(), weights)
        positions, table = loss_tables(labels, counts, weights, num_bags)
        loss, grad = masked_cross_entropy(np.concatenate(per_task, axis=1), positions, table,
                                          counts)
        assert loss.tobytes() == np.array(want_loss).tobytes()
        assert grad.tobytes() == np.concatenate(want_grads, axis=1).tobytes()


class TestLossTables:
    def test_positions_index_each_label_in_its_steps_predictions(self):
        # steps of 2 bags over classes [3, 2], C = 5: bag s is row s % 2
        labels = [[2, 0], [MISSING, 1], [0, MISSING], [1, 1], [2, 0]]
        positions, weights = loss_tables(labels, [3, 2], [1.0, 0.5], 2)
        assert positions.tolist() == [[2, 3], [5, 9], [0, 3], [6, 9], [2, 3]]
        assert weights.dtype == np.float64
        assert weights.tolist() == [[1.0, 0.5], [0.0, 0.5], [1.0, 0.0], [1.0, 0.5], [1.0, 0.5]]
        # a missing label's weight is -0.0, a known one's keeps its sign
        assert np.signbit(weights).tolist() == [[False, False], [True, False], [False, True],
                                                [False, False], [False, False]]

    @pytest.mark.parametrize("label", [2, -2, 7])
    def test_a_label_outside_its_classes_raises(self, label):
        labels = [[0, 1], [1, label]]
        with pytest.raises(ValueError,
                           match=f"^label {label} of task 1 out of range for 2 classes$"):
            loss_tables(labels, [3, 2], [1.0, 1.0], 2)

    @pytest.mark.parametrize("labels, weights", [([[0, 1]], [1.0]), ([[0]], [1.0, 1.0]),
                                                 ([0, 1], [1.0, 1.0])])
    def test_tables_that_do_not_align_raise(self, labels, weights):
        with pytest.raises(ValueError, match="do not align"):
            loss_tables(labels, [3, 2], weights, 1)


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


# what ConvBuffers plans for the input gradient, on the first backward pass
_INPUT_GRAD_ARRAYS = ["grad_input", "_grad_patches", "_grad_input_flat", "_scatter_index"]


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
        slices = channel_slices(tuple(model.task_class_counts))
        assert [s.stop - s.start for s in slices] == [3, 2, 4]

    def test_forward_output_shape(self):
        rng = np.random.default_rng(9)
        model = init_params(FcnModel([3, 2]), 0)
        logits, _ = model_forward(model, random_image(rng, 32))
        assert logits.shape == (1, model.grid_side(32), model.grid_side(32), 5)

    @pytest.mark.parametrize("side", [11, 16, 23])
    def test_workspace_passes_match_fresh_passes_bit_for_bit(self, side):
        rng = np.random.default_rng(side)
        model = init_params(FcnModel([2, 3]), 2)
        workspace = Workspace(model, (1, side, side, 3))
        views = model.params.grad_views
        assert all(g is views[2 * i] and b is views[2 * i + 1] for i, (g, b) in enumerate(
            (c.grad_kernel, c.grad_bias) for c in workspace.convs))
        grid = model.grid_side(side)
        for _ in range(3):
            image = random_image(rng, side)
            grad_logits = rng.normal(size=(1, grid, grid, 5)).astype(np.float32)
            logits = model.forward(image[None], workspace)
            assert logits is workspace.convs[-1].out
            fresh_logits, fresh_workspace = model_forward(model, image)
            _assert_same_bits(logits, fresh_logits)
            model.backward(workspace, grad_logits.copy())
            got = model.params.grad.copy()
            # backward reads every layer's patch matrix as its forward left it
            first, second, last = (b.cols for b in workspace.convs)
            assert not np.shares_memory(first, second)
            assert np.shares_memory(last, workspace.convs[1].out)  # the 1x1's is its input
            model.backward(fresh_workspace, grad_logits.copy())
            _assert_same_bits(got, model.params.grad)

    def test_workspace_refuses_another_image_shape(self):
        model = FcnModel([2, 2])
        workspace = Workspace(model, (2, 16, 16, 3))
        for shape in ((2, 17, 17, 3), (1, 16, 16, 3), (16, 16, 3)):
            with pytest.raises(ValueError, match="workspace planned for"):
                model.forward(np.zeros(shape, np.uint8), workspace)
        with pytest.raises(ValueError, match="smaller than kernel"):
            Workspace(model, (1, 8, 8, 3))

    def test_input_gradient_arrays_are_planned_by_the_first_backward_pass(self):
        # a workspace that only runs forward passes, as evaluation's do, holds
        # none, and layer 0, whose input is the image, never does
        def held(buffers):
            return [name for name in _INPUT_GRAD_ARRAYS
                    if isinstance(getattr(buffers, name, None), np.ndarray)]

        rng = np.random.default_rng(13)
        model = init_params(FcnModel([2, 2]), 5)
        workspace = Workspace(model, (1, 16, 16, 3))
        grid = model.grid_side(16)
        assert [b.input_grad for b in workspace.convs] == [False, True, True]
        for _ in range(2):
            model.forward(random_image(rng, 16)[None], workspace)
        assert all(held(b) == [] and b._ones is None for b in workspace.convs)
        model.backward(workspace, rng.normal(size=(1, grid, grid, 4)).astype(np.float32))
        assert all(b._ones.shape == (b.cols.shape[0],) for b in workspace.convs)
        assert held(workspace.convs[0]) == []
        assert held(workspace.convs[1]) == _INPUT_GRAD_ARRAYS
        assert held(workspace.convs[2]) == ["grad_input", "_grad_patches"]  # the 1x1 layer
        planned = [b.grad_input for b in workspace.convs[1:]]
        assert all(g.shape == b.input.shape for g, b in zip(planned, workspace.convs[1:]))
        model.forward(random_image(rng, 16)[None], workspace)
        model.backward(workspace, rng.normal(size=(1, grid, grid, 4)).astype(np.float32))
        assert all(b.grad_input is g for b, g in zip(workspace.convs[1:], planned))  # once

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_model_scales_and_centers_a_uint8_image_in_its_dtype(self, dtype):
        rng = np.random.default_rng(12)
        model = init_params(FcnModel([2, 2], dtype=dtype), 3)
        image = random_image(rng, 16)
        image[0, 0] = 0, 128, 255
        logits, workspace = model_forward(model, image)
        # pixel * (1/255) - 0.5, each operation rounded in the model's dtype
        scale = np.dtype(dtype).type(1 / 255)
        _assert_same_bits(workspace.convs[0].input[0], image.astype(dtype) * scale - dtype(0.5))
        assert workspace.convs[0].input[0, 0, 0].tolist() == [-0.5, 128 * scale - 0.5, 0.5]
        assert all(b.out.dtype == dtype for b in workspace.convs)
        model.backward(workspace, np.ones(logits.shape, dtype))
        assert model.params.grad.dtype == dtype and model.params.grad.any()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_rejects_an_image_that_is_not_uint8(self, dtype):
        # a [0, 1] float image would otherwise read as almost black
        model = FcnModel([2, 2])
        workspace = Workspace(model, (1, 16, 16, 3))
        image = np.full((1, 16, 16, 3), 0.5, dtype=dtype)
        with pytest.raises(ValueError, match=f"images must be uint8, got {np.dtype(dtype)}"):
            model.forward(image, workspace)

    def test_model_backward_finite_differences(self):
        rng = np.random.default_rng(10)
        model = init_params(FcnModel([2, 2], dtype=np.float64), 1)
        x = random_image(rng, 12)
        grad_out = rng.normal(size=(1, *2 * (model.grid_side(12),), 4))
        _, workspace = model_forward(model, x)
        model.backward(workspace, grad_out)

        params = [a for layer in model.layers for a in (layer.kernel, layer.bias)]
        for p, g in zip(params, model.params.grad_views, strict=True):
            def loss_of(v, p=p):
                saved = p.copy()
                p[...] = v
                out = float((model_forward(model, x)[0] * grad_out).sum())
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
