"""Forward/backward pass, gradient checks, and model serialization."""

import numpy as np
import pytest
import scipy.sparse as sp

from botfuse.flow_features import FEATURE_DIM
from botfuse.gcn_core import (
    DEFAULT_HIDDEN_DIM,
    RESIDUAL_Z_PLUS_RELU,
    FrozenModelError,
    GcnModel,
    ModelFormatError,
    backward,
    deserialize_model,
    forward,
    gcn_layer_forward,
    init_gcn,
    load_model,
    make_workspace,
    masked_cross_entropy,
    save_model,
    serialize_model,
)


def _random_p(rng, n):
    """Symmetric degree-normalized matrix of a random undirected graph."""
    A = np.zeros((n, n))
    for _ in range(max(n, int(0.3 * n * n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return np.diag(inv) @ A @ np.diag(inv)


def _loss_of(model, P, X0, labels, mask):
    logits = forward(model, P, X0) @ model.head_weight + model.head_bias
    loss, _ = masked_cross_entropy(logits, labels, mask)
    return loss


def _gradcheck(model, P, X0, labels, mask, eps=1e-5, floor=1e-6):
    """Elementwise relative error between analytic and central differences."""
    _, grads = backward(model, P, X0, labels, mask)
    worst = 0.0
    for param, grad in zip(model.parameters(), grads):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = param[ix]
            param[ix] = orig + eps
            hi = _loss_of(model, P, X0, labels, mask)
            param[ix] = orig - eps
            lo = _loss_of(model, P, X0, labels, mask)
            param[ix] = orig
            fd = (hi - lo) / (2 * eps)
            rel = abs(grad[ix] - fd) / max(abs(grad[ix]), abs(fd), floor)
            worst = max(worst, rel)
    return worst


class TestInit:
    def test_weight_shapes_chain(self):
        m = init_gcn(depth=4)
        assert len(m.weights) == 4
        assert m.weights[0].shape == (FEATURE_DIM, DEFAULT_HIDDEN_DIM)
        for w in m.weights[1:]:
            assert w.shape == (DEFAULT_HIDDEN_DIM, DEFAULT_HIDDEN_DIM)
        assert m.head_weight.shape == (DEFAULT_HIDDEN_DIM, 2)
        assert m.head_bias.shape == (2,)

    def test_depth_beyond_the_model_format_is_refused(self):
        # The model header stores depth in 16 bits.
        with pytest.raises(ValueError, match="depth must be <= 65535, the model format's limit"):
            init_gcn(65536)

    def test_seed_determinism(self):
        a, b = init_gcn(3, seed=9), init_gcn(3, seed=9)
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)
        c = init_gcn(3, seed=10)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            init_gcn(0)


class TestLayerForward:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        P = _random_p(rng, 6)
        X = rng.standard_normal((6, 5))
        out = gcn_layer_forward(P, X, np.zeros((5, 8)))
        assert not out.any()

    def test_two_node_hand_computation(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        X = np.eye(2)
        out = gcn_layer_forward(P, X, np.eye(2))
        # Z = P, all entries nonnegative, so the merged sum doubles it.
        assert out.tolist() == [[0.0, 2.0], [2.0, 0.0]]

    def test_dense_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n, d, h = 20, 5, 7
            P = _random_p(rng, n)
            X = rng.standard_normal((n, d))
            W = rng.standard_normal((d, h))
            Z = P @ X @ W
            oracle = Z + np.maximum(Z, 0.0)
            got = gcn_layer_forward(P, X, W)
            assert np.abs(got - oracle).max() < 1e-12

    def test_residual_identity_when_nonnegative(self):
        rng = np.random.default_rng(2)
        P = _random_p(rng, 8)
        X = rng.uniform(0.1, 1.0, size=(8, 5))
        W = rng.uniform(0.1, 1.0, size=(5, 6))
        Z = P @ (X @ W)
        assert np.array_equal(gcn_layer_forward(P, X, W), 2.0 * Z)

    def test_refuses_any_other_residual_mode(self):
        P, X, W = np.eye(3), np.ones((3, 5)), np.ones((5, 2))
        for mode in ("x_plus_relu", "bogus"):
            with pytest.raises(ValueError, match="unknown residual mode"):
                gcn_layer_forward(P, X, W, mode)

    def test_model_refuses_any_other_residual_mode(self):
        # The file format would save any other mode as z_plus_relu.
        m = init_gcn(2, hidden_dim=4, seed=0)
        for mode in ("x_plus_relu", "bogus"):
            with pytest.raises(ValueError, match=f"unknown residual mode '{mode}'"):
                GcnModel(m.weights, m.head_weight, m.head_bias, residual_mode=mode)

    def test_operand_validation(self):
        P = np.eye(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            gcn_layer_forward(P, np.ones((3, 4)), np.ones((5, 2)))
        with pytest.raises(ValueError, match="does not match"):
            gcn_layer_forward(P, np.ones((4, 5)), np.ones((5, 2)))
        bad = np.ones((3, 5))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            gcn_layer_forward(P, bad, np.ones((5, 2)))


class TestForward:
    def test_depth_one_is_single_layer_plus_head(self):
        rng = np.random.default_rng(4)
        m = init_gcn(1, seed=4)
        P = _random_p(rng, 7)
        X = rng.standard_normal((7, 5))
        hidden = gcn_layer_forward(P, X, m.weights[0])
        assert np.array_equal(forward(m, P, X), hidden)
        logits = forward(m, P, X) @ m.head_weight + m.head_bias
        assert np.allclose(logits, hidden @ m.head_weight + m.head_bias)

    def test_layer_replay_oracle_depth_12(self):
        rng = np.random.default_rng(5)
        m = init_gcn(12, seed=5)
        P = _random_p(rng, 30)
        X0 = rng.standard_normal((30, 5))
        X = X0
        for W in m.weights:
            Z = P @ (X @ W)
            X = Z + np.maximum(Z, 0.0)
        oracle = X @ m.head_weight + m.head_bias
        got = forward(m, P, X0) @ m.head_weight + m.head_bias
        assert np.abs(got - oracle).max() < 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        m = init_gcn(4, seed=6)
        n = 12
        P = _random_p(rng, n)
        X = rng.standard_normal((n, 5))
        perm = rng.permutation(n)
        out = forward(m, P, X)
        out_p = forward(m, P[np.ix_(perm, perm)], X[perm])
        assert np.allclose(out_p, out[perm], atol=1e-12)

    def test_positive_homogeneity_without_head(self):
        rng = np.random.default_rng(7)
        m = init_gcn(6, seed=7)
        P = _random_p(rng, 9)
        X = rng.standard_normal((9, 5))
        assert np.allclose(forward(m, P, 3.0 * X), 3.0 * forward(m, P, X), rtol=1e-12)

    def test_automorphic_nodes_get_equal_embeddings(self):
        # Two-node mutual edge with all-ones input: both nodes are equivalent.
        m = init_gcn(3, seed=8)
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = forward(m, P, np.ones((2, 5)))
        assert np.allclose(out[0], out[1])

    def test_input_width_enforced(self):
        m = init_gcn(2)
        with pytest.raises(ValueError, match="n x 5"):
            forward(m, np.eye(3), np.ones((3, 4)))


class TestMaskedCrossEntropy:
    def test_uniform_logits_give_log2(self):
        loss, dlogits = masked_cross_entropy(
            np.zeros((1, 2)), np.array([0]), np.array([True])
        )
        assert loss == pytest.approx(np.log(2.0))
        assert dlogits.tolist() == [[-0.5, 0.5]]

    def test_mask_excludes_rows(self):
        logits = np.array([[2.0, -1.0], [5.0, 5.0]])
        loss, dlogits = masked_cross_entropy(
            logits, np.array([0, 1]), np.array([True, False])
        )
        only_first, _ = masked_cross_entropy(
            logits[:1], np.array([0]), np.array([True])
        )
        assert loss == pytest.approx(only_first)
        assert not dlogits[1].any()

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="empty training mask"):
            masked_cross_entropy(np.zeros((2, 2)), np.array([0, 1]), np.array([False, False]))

    def test_saturated_logits_have_negligible_gradient(self):
        logits = np.array([[40.0, -40.0]] * 4)
        loss, dlogits = masked_cross_entropy(
            logits, np.zeros(4, dtype=int), np.ones(4, dtype=bool)
        )
        assert loss < 1e-6
        assert np.abs(dlogits).max() < 1e-6


class TestBackward:
    def test_finite_difference_check_depth_2(self):
        rng = np.random.default_rng(10)
        m = init_gcn(2, seed=10)
        P = _random_p(rng, 10)
        X = rng.standard_normal((10, 5))
        labels = rng.integers(0, 2, size=10)
        mask = np.ones(10, dtype=bool)
        assert _gradcheck(m, P, X, labels, mask) < 1e-4

    def test_gradient_ignores_masked_out_labels(self):
        rng = np.random.default_rng(11)
        m = init_gcn(3, seed=11)
        P = _random_p(rng, 8)
        X = rng.standard_normal((8, 5))
        mask = np.zeros(8, dtype=bool)
        mask[:4] = True
        labels = rng.integers(0, 2, size=8)
        flipped = labels.copy()
        flipped[4:] = 1 - flipped[4:]
        loss_a, g_a = backward(m, P, X, labels, mask)
        loss_b, g_b = backward(m, P, X, flipped, mask)
        assert loss_a == loss_b
        for a, b in zip(g_a, g_b):
            assert np.array_equal(a, b)

    def test_stationary_at_saturated_separation(self):
        rng = np.random.default_rng(12)
        m = init_gcn(2, seed=12)
        # Kill the feature path so the head bias alone fixes the logits.
        m.head_weight = np.zeros_like(m.head_weight)
        m.head_bias = np.array([40.0, -40.0])
        P = _random_p(rng, 6)
        X = rng.standard_normal((6, 5))
        loss, grads = backward(m, P, X, np.zeros(6, dtype=int), np.ones(6, dtype=bool))
        total = np.sqrt(sum(float((g ** 2).sum()) for g in grads))
        assert total < 1e-6

    def test_frozen_model_rejects_backward(self):
        m = init_gcn(2, seed=13)
        m.frozen = True
        with pytest.raises(FrozenModelError):
            backward(m, np.eye(3), np.ones((3, 5)), np.zeros(3, dtype=int),
                     np.ones(3, dtype=bool))


class TestWorkspace:
    """A reused workspace gives the bits of a pass without one."""

    @staticmethod
    def _case(rng, n, input_dim):
        labels = rng.integers(0, 2, size=n)
        mask = rng.random(n) < 0.7
        mask[0] = True
        return sp.csr_matrix(_random_p(rng, n)), rng.standard_normal((n, input_dim)), labels, mask

    def test_slots_are_separate_per_layer_arrays(self):
        m = init_gcn(5, hidden_dim=8, seed=14)
        work = make_workspace(m, 30)
        assert len(work) == m.depth + 1
        for i, slot in enumerate(work):
            assert slot.dtype == np.float64 and slot.shape == (30, 8)
            assert slot.base is None
            assert not any(np.shares_memory(slot, other) for other in work[i + 1:])

    @pytest.mark.parametrize("mode", [RESIDUAL_Z_PLUS_RELU])
    @pytest.mark.parametrize("input_dim, hidden_dim", [(5, 8), (6, 6)])
    def test_shared_workspace_changes_no_bits(self, mode, input_dim, hidden_dim):
        rng = np.random.default_rng(15)
        m = init_gcn(4, input_dim, hidden_dim, seed=15)
        assert m.residual_mode == mode
        big, small = self._case(rng, 30, input_dim), self._case(rng, 17, input_dim)
        work = make_workspace(m, 30)
        # NaN rows would poison any result that read a row it did not write.
        for slot in work:
            slot.fill(np.nan)
        for P, X, labels, mask in (big, small, big, small):
            loss, grads = backward(m, P, X, labels, mask)
            loss_w, grads_w = backward(m, P, X, labels, mask, work=work)
            assert np.float64(loss_w).tobytes() == np.float64(loss).tobytes()
            for a, b in zip(grads, grads_w):
                assert a.tobytes() == b.tobytes()
            plain = forward(m, P, X)
            reused = forward(m, P, X, work=work)
            assert reused.tobytes() == plain.tobytes()
            assert not any(np.shares_memory(reused, slot) for slot in work)
            assert ((reused @ m.head_weight + m.head_bias).tobytes()
                    == (plain @ m.head_weight + m.head_bias).tobytes())

    @pytest.mark.parametrize("mode", [RESIDUAL_Z_PLUS_RELU])
    def test_gradient_matches_a_preactivation_oracle(self, mode):
        # backward reads the sign of each Z from the layer's stored output:
        # a backward pass that keeps every Z from the forward pass gives the
        # same bits.
        rng = np.random.default_rng(17)
        m = init_gcn(3, 6, 6, seed=17)
        P, X, labels, mask = self._case(rng, 20, 6)
        acts, zs = [X], []
        for W in m.weights:
            zs.append(P @ (acts[-1] @ W))
            acts.append(gcn_layer_forward(P, acts[-1], W, mode))
        loss, dlogits = masked_cross_entropy(acts[-1] @ m.head_weight + m.head_bias,
                                             labels, mask)
        dX = dlogits @ m.head_weight.T
        expect = [None] * m.depth
        for k in reversed(range(m.depth)):
            deriv = (zs[k] > 0.0).astype(np.float64) + 1.0
            S = P @ (dX * deriv)
            expect[k] = acts[k].T @ S
            dX = S @ m.weights[k].T
        got_loss, grads = backward(m, P, X, labels, mask, work=make_workspace(m, 20))
        assert got_loss == loss
        for a, b in zip(grads[: m.depth], expect):
            assert a.tobytes() == b.tobytes()

    def test_rejects_a_workspace_that_does_not_fit(self):
        rng = np.random.default_rng(16)
        m = init_gcn(2, hidden_dim=8, seed=16)
        P, X, labels, mask = self._case(rng, 10, 5)
        good = make_workspace(m, 10)
        bad = [
            good[:2],
            [*good, np.zeros((10, 8))],
            [good[0], np.zeros((9, 8)), good[2]],
            [good[0], good[1], np.zeros((10, 7))],
            [good[0], np.zeros((10, 8), dtype=np.float32), good[2]],
            [good[0], np.zeros((10, 8), dtype=bool), good[2]],
            [good[0], good[1], np.zeros(80)],
            [good[0], good[1], np.zeros((1, 10, 8))],
        ]
        for work in bad:
            with pytest.raises(ValueError, match="workspace"):
                backward(m, P, X, labels, mask, work=work)
            with pytest.raises(ValueError, match="workspace"):
                forward(m, P, X, work=work)


class TestLayerOut:
    @pytest.mark.parametrize("mode", [RESIDUAL_Z_PLUS_RELU])
    @pytest.mark.parametrize("width", [5, 7])
    def test_out_gets_the_bits_of_a_call_without_it(self, mode, width):
        rng = np.random.default_rng(18)
        P = sp.csr_matrix(_random_p(rng, 12))
        X = rng.standard_normal((12, 5))
        W = rng.standard_normal((5, width))
        buf = np.full((12, width), np.nan)
        got = gcn_layer_forward(P, X, W, mode, out=buf)
        assert got is buf
        assert buf.tobytes() == gcn_layer_forward(P, X, W, mode).tobytes()

    def test_merged_sum_is_positive_exactly_where_z_is(self):
        # backward takes Z > 0 from the stored Z + relu(Z).
        rng = np.random.default_rng(19)
        z = np.concatenate((
            [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, np.finfo(float).max],
            rng.standard_normal(1000),
            rng.standard_normal(1000) * 1e-310,
        ))
        with np.errstate(over="ignore"):
            merged = z + np.maximum(z, 0.0)
        assert np.array_equal(merged > 0.0, z > 0.0)


class TestSerialization:
    def _assert_models_equal(self, a: GcnModel, b: GcnModel):
        assert (a.depth, a.input_dim, a.hidden_dim) == (b.depth, b.input_dim, b.hidden_dim)
        assert a.frozen == b.frozen
        assert a.residual_mode == b.residual_mode
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)

    def test_round_trip_identity(self):
        for seed in range(5):
            m = init_gcn(int(np.random.default_rng(seed).integers(1, 8)), seed=seed)
            m.frozen = bool(seed % 2)
            m2 = deserialize_model(serialize_model(m))
            self._assert_models_equal(m, m2)
            assert serialize_model(m2) == serialize_model(m)

    def test_shape_facts_come_from_the_weights(self):
        m = init_gcn(3, input_dim=6, hidden_dim=4, seed=1)
        assert (m.depth, m.input_dim, m.hidden_dim) == (3, 6, 4)
        rebuilt = GcnModel(m.weights, m.head_weight, m.head_bias)
        assert serialize_model(rebuilt) == serialize_model(m)
        self._assert_models_equal(deserialize_model(serialize_model(rebuilt)), m)

    def test_model_refuses_parameters_that_do_not_chain(self):
        # Any model that builds saves a header its body matches.
        m = init_gcn(3, hidden_dim=4, seed=0)
        w0, w1, w2 = m.weights
        for weights, head_weight, head_bias, message in (
            ([], m.head_weight, m.head_bias, "at least one 2-D layer weight"),
            ([w0[0]], m.head_weight, m.head_bias, "at least one 2-D layer weight"),
            ([w0, w1[:3], w2], m.head_weight, m.head_bias, "do not chain"),
            (m.weights, m.head_weight[:, :1], m.head_bias, "do not chain"),
            (m.weights, m.head_weight, np.zeros(3), "do not chain"),
        ):
            with pytest.raises(ValueError, match=message):
                GcnModel(weights, head_weight, head_bias)

    def test_truncated_payload(self):
        data = serialize_model(init_gcn(2))
        with pytest.raises(ModelFormatError, match="corrupt payload"):
            deserialize_model(data[: len(data) // 2])
        with pytest.raises(ModelFormatError, match="truncated"):
            deserialize_model(b"xy")

    def test_bitflip_detected_by_checksum(self):
        data = bytearray(serialize_model(init_gcn(2)))
        data[40] ^= 0xFF
        with pytest.raises(ModelFormatError, match="checksum"):
            deserialize_model(bytes(data))

    def test_bad_magic(self):
        import struct
        import zlib

        data = serialize_model(init_gcn(2))
        body = b"NOPE" + data[4:-4]
        with pytest.raises(ModelFormatError, match="bad magic"):
            deserialize_model(body + struct.pack("<I", zlib.crc32(body)))

    def test_unsupported_version(self):
        import struct
        import zlib

        data = serialize_model(init_gcn(2))
        body = data[:4] + struct.pack("<H", 9) + data[6:-4]
        with pytest.raises(ModelFormatError, match="version"):
            deserialize_model(body + struct.pack("<I", zlib.crc32(body)))

    @staticmethod
    def _payload(depth, input_dim, hidden_dim, n_classes=2):
        """A checksummed model file of zero weights whose body is as long as
        its header says."""
        import struct
        import zlib

        header = struct.pack("<4sHHHHHBBBB", b"BFGC", 1, depth, input_dim, hidden_dim,
                             n_classes, 1, 0, 0, 0)
        n_weights = (input_dim * hidden_dim + max(depth - 1, 0) * hidden_dim ** 2
                     + hidden_dim * 2 + 2)
        body = header + bytes(8 * n_weights)
        return body + struct.pack("<I", zlib.crc32(body))

    @pytest.mark.parametrize("dims", [(0, 5, 32), (2, 0, 4), (2, 5, 0), (2, 5, 4, 3)],
                             ids=["depth", "input_dim", "hidden_dim", "n_classes"])
    def test_invalid_header_fields_rejected(self, dims):
        model = deserialize_model(self._payload(2, 5, 4))
        assert (model.depth, model.input_dim, model.hidden_dim) == (2, 5, 4)
        with pytest.raises(ModelFormatError, match="corrupt payload: invalid header fields"):
            deserialize_model(self._payload(*dims))

    def test_non_finite_weights_rejected(self):
        m = init_gcn(2)
        m.weights[0][0, 0] = np.inf
        with pytest.raises(ModelFormatError, match="non-finite"):
            deserialize_model(serialize_model(m))

    def test_distinct_depths_have_distinct_headers(self):
        h12 = serialize_model(init_gcn(12))[:20]
        h24 = serialize_model(init_gcn(24))[:20]
        assert h12 != h24

    def test_save_and_load(self, tmp_path):
        m = init_gcn(3, seed=20)
        m.frozen = True
        path = tmp_path / "model.bin"
        save_model(m, path)
        self._assert_models_equal(m, load_model(path))
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "missing.bin")

