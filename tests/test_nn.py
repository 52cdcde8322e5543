"""Layers, gradients, Adam, and the checkpoint container."""

import numpy as np
import pytest

from uasd.errors import ContractError, DataError, NumericError
from uasd.nn import (
    Adam,
    BatchNorm,
    Conv2d,
    Dense,
    FramewiseDense,
    Parameter,
    ReLU,
    Residual,
    Sequential,
    cross_entropy_from_logits,
    grad_check,
    load_checkpoint,
    log_softmax,
    netspec_hash,
    save_checkpoint,
    softmax,
)
from uasd.nn.netspec import (
    build_network,
    load_state,
    named_params,
    parameter_count,
    state_arrays,
)

SEEDS = (0, 1, 2)


def _relu_safe_input(net, shape, seed, margin=1e-3):
    """Input whose ReLU pre-activations stay away from the kink."""
    for attempt in range(20):
        rng = np.random.default_rng(seed + 1000 * attempt)
        x = rng.normal(0.0, 1.0, shape)
        y = x
        ok = True
        for layer in net.layers:
            if isinstance(layer, (ReLU, Residual)):
                pre = y if isinstance(layer, ReLU) else y + layer.inner.forward(y, False)
                if np.min(np.abs(pre)) < margin:
                    ok = False
                    break
            y = layer.forward(y, False)
        if ok:
            return x
    return x


class TestGradients:
    """Central-difference checks per layer type, 3 seeds each."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dense_smooth_net(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([Dense(7, 5, rng=rng), Dense(5, 4, rng=rng)])
        x = rng.normal(0, 1, (6, 7))
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_linear_softmax_cross_entropy(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([Dense(6, 3, rng=rng)])
        labels = rng.integers(0, 3, 8)

        def ce_loss(logits):
            losses, dlogits = cross_entropy_from_logits(logits, labels)
            return float(losses.sum()), dlogits

        x = rng.normal(0, 1, (8, 6))
        assert grad_check(net, x, loss_fn=ce_loss,
                          rng=np.random.default_rng(seed)) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([Conv2d(2, 3, rng=rng)])
        x = rng.normal(0, 1, (2, 4, 5, 2))
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_relu(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([Conv2d(2, 3, rng=rng), ReLU(), Conv2d(3, 2, rng=rng)])
        x = _relu_safe_input(net, (2, 3, 4, 2), seed)
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_norm_train_mode(self, seed):
        rng = np.random.default_rng(seed)
        for shape, feats in (((6, 4), 4), ((3, 4, 5, 2), 2)):
            net = Sequential([BatchNorm(feats)])
            x = np.random.default_rng(seed).normal(0, 1, shape)
            assert grad_check(net, x, rng=rng) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_residual_block(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential(
            [Residual(Sequential([Conv2d(2, 2, rng=rng), ReLU(),
                                  Conv2d(2, 2, rng=rng)]))]
        )
        x = _relu_safe_input(net, (2, 3, 4, 2), seed)
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_framewise_dense(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([FramewiseDense(3, 7, 5, rng=rng)])
        x = rng.normal(0, 1, (2, 4, 7, 3))
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batch_norm_composite(self, seed):
        rng = np.random.default_rng(seed)
        net = Sequential([Dense(6, 4, rng=rng), BatchNorm(4), ReLU(),
                          Dense(4, 3, rng=rng)])
        x = _relu_safe_input(net, (8, 6), seed)
        assert grad_check(net, x, rng=np.random.default_rng(seed)) < 1e-5


class TestLayerContracts:
    def test_conv_same_shape(self, rng):
        """3x3 stride-1 pad-1 maps 5x128 to 5x128 per channel."""
        conv = Conv2d(1, 4, rng=rng)
        out = conv.forward(rng.normal(0, 1, (2, 5, 128, 1)), train=False)
        assert out.shape == (2, 5, 128, 4)

    def test_residual_identity_with_zero_weights(self, rng):
        inner = Sequential([Conv2d(3, 3, rng=rng), ReLU(), Conv2d(3, 3, rng=rng)])
        for p in inner.params():
            p.value[:] = 0.0
        block = Residual(inner)
        x = np.abs(rng.normal(0, 1, (2, 4, 6, 3)))  # non-negative input
        np.testing.assert_array_equal(block.forward(x, train=False), x)

    def test_dense_weight_gradient_is_input_column_sums(self, rng):
        """loss = sum(output) makes dW rows equal the input column sums."""
        dense = Dense(5, 3, rng=rng)
        x = rng.normal(0, 1, (7, 5))
        out = dense.forward(x, train=True)
        dense.backward(np.ones_like(out))
        np.testing.assert_allclose(
            dense.weight.grad, np.tile(x.sum(axis=0), (3, 1)), atol=1e-12
        )

    def test_zero_upstream_gives_zero_gradients(self, rng):
        net = Sequential([Conv2d(2, 2, rng=rng), ReLU()])
        x = rng.normal(0, 1, (2, 3, 4, 2))
        out = net.forward(x, train=True)
        dx = net.backward(np.zeros_like(out))
        assert np.all(dx == 0.0)
        for p in net.params():
            assert np.all(p.grad == 0.0)

    def test_backward_without_forward_raises(self, rng):
        dense = Dense(3, 2, rng=rng)
        with pytest.raises(ContractError):
            dense.backward(np.ones((1, 2)))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ContractError):
            Dense(3, 2, rng=rng).forward(np.ones((1, 4)), train=False)
        with pytest.raises(ContractError):
            Conv2d(2, 2, rng=rng).forward(np.ones((1, 4, 4, 3)), train=False)
        with pytest.raises(ContractError):
            BatchNorm(3).forward(np.ones((2, 4)), train=True)

    def test_batch_norm_eval_uses_running_stats(self, rng):
        bn = BatchNorm(3)
        x = rng.normal(2.0, 3.0, (64, 3))
        for _ in range(200):
            bn.forward(x, train=True)
        out = bn.forward(x, train=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-2)

    def test_eval_forward_deterministic_and_batch_independent(self, rng):
        net = Sequential([Dense(6, 5, rng=rng), BatchNorm(5), ReLU(),
                          Dense(5, 4, rng=rng)])
        x = rng.normal(0, 1, (10, 6))
        a = net.forward(x, train=False)
        b = net.forward(x, train=False)
        np.testing.assert_array_equal(a, b)
        perm = rng.permutation(10)
        np.testing.assert_allclose(net.forward(x[perm], train=False), a[perm],
                                   atol=1e-12, rtol=0)


class TestSoftmax:
    def test_rows_sum_to_one_and_interior(self, rng):
        p = softmax(rng.normal(0, 5, (200, 2)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0.0) and np.all(p < 1.0)

    def test_extreme_logits_stay_interior_and_finite(self):
        p = softmax(np.array([[800.0, -800.0]]))
        assert 0.0 < p[0, 1] < p[0, 0] < 1.0
        logp = log_softmax(np.array([[800.0, -800.0]]))
        assert np.all(np.isfinite(logp))

    def test_cross_entropy_matches_log_definition(self, rng):
        logits = rng.normal(0, 2, (50, 2))
        labels = rng.integers(0, 2, 50)
        losses, _ = cross_entropy_from_logits(logits, labels)
        p = softmax(logits)
        np.testing.assert_allclose(
            losses, [-np.log(p[i, labels[i]]) for i in range(50)], atol=1e-12
        )


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]))
        opt = Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.value, [1.0, -2.0])

    def test_first_step_matches_hand_evaluation(self):
        """t=1, g=1: m_hat = v_hat = 1, update = -lr / (1 + eps)."""
        p = Parameter(np.array([0.5]))
        opt = Adam([p], lr=1e-3)
        p.grad[:] = 1.0
        opt.step()
        expected = 0.5 - 1e-3 / (1.0 + 1e-8)
        assert p.value[0] == pytest.approx(expected, abs=1e-15)

    def test_second_identical_step_does_not_grow(self):
        p = Parameter(np.array([0.5]))
        opt = Adam([p], lr=1e-3)
        p.grad[:] = 1.0
        opt.step()
        first = 0.5 - p.value[0]
        before = p.value[0]
        p.grad[:] = 1.0
        opt.step()
        second = before - p.value[0]
        assert abs(second) <= abs(first) + 1e-12

    def test_non_finite_gradient_aborts(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p])
        p.grad[:] = np.nan
        with pytest.raises(NumericError):
            opt.step()


class TestNetspecAndCheckpoint:
    def _net(self, rng):
        return Sequential([Conv2d(1, 2, rng=rng), ReLU(), BatchNorm(2),
                           FramewiseDense(2, 6, 4, rng=rng)])

    def test_netspec_hash_stability(self, rng):
        net = self._net(rng)
        spec = net.spec()["layers"]
        assert netspec_hash(spec) == netspec_hash(net.spec()["layers"])
        other = Sequential([Conv2d(1, 3, rng=rng)]).spec()["layers"]
        assert netspec_hash(spec) != netspec_hash(other)

    def test_build_from_spec_round_trip(self, rng):
        net = self._net(rng)
        rebuilt = build_network(net.spec()["layers"], np.random.default_rng(3))
        assert rebuilt.spec() == net.spec()
        assert parameter_count(rebuilt) == parameter_count(net)

    def test_checkpoint_round_trip_preserves_behavior(self, tmp_path, rng):
        net = self._net(rng)
        x = rng.normal(0, 1, (3, 5, 6, 1))
        net.forward(x, train=True)  # populate running stats
        expected = net.forward(x, train=False)

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "test", state_arrays(net),
                        netspec=net.spec()["layers"], metadata={"config_hash": "ab"})
        kind, spec, arrays, metadata = load_checkpoint(path)
        assert kind == "test" and metadata == {"config_hash": "ab"}

        rebuilt = build_network(spec, np.random.default_rng(99))
        load_state(rebuilt, arrays)
        np.testing.assert_array_equal(rebuilt.forward(x, train=False), expected)

    def test_checkpoint_magic_and_version_enforced(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(DataError):
            load_checkpoint(path)
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "missing.ckpt")

    @pytest.mark.parametrize("corrupt", [
        lambda b, h: b[:0],
        lambda b, h: b[:10],
        lambda b, h: b[:19],
        lambda b, h: b[:20 + h // 2],  # inside the JSON header
        lambda b, h: b[:len(b) - 4],  # inside the tensor payload
        lambda b, h: b"X" + b[1:],  # magic
        lambda b, h: b[:8] + (2).to_bytes(4, "little") + b[12:],  # version
        lambda b, h: b[:20] + b"\xff" * h + b[20 + h:],  # header not JSON
        lambda b, h: (b[:12] + (2).to_bytes(8, "little") + b"{}"
                      + b[20 + h:]),  # header without its keys
    ], ids=["empty", "cut10", "cut19", "mid_header", "mid_payload",
            "magic", "version", "non_json", "missing_keys"])
    def test_corrupt_checkpoint_raises_data_error(self, tmp_path, corrupt):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "t", {"v": np.arange(4.0)}, metadata={"a": 1})
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[12:20], "little")
        path.write_bytes(corrupt(blob, header_len))
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_named_params_are_unique_and_stable(self, rng):
        net = self._net(rng)
        names = [n for n, _ in named_params(net)]
        assert len(names) == len(set(names))
        assert names == [n for n, _ in named_params(net)]

    def test_little_endian_layout(self, tmp_path):
        value = np.array([1.0, 2.0, 3.0])
        path = tmp_path / "le.ckpt"
        save_checkpoint(path, "t", {"v": value})
        blob = path.read_bytes()
        assert blob[:8] == b"UASDCKPT"
        assert value.astype("<f8").tobytes() in blob
