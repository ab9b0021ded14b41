"""Residual graph-convolution stack: forward pass, exact reverse-mode
gradients of the masked cross-entropy objective, and a versioned binary
model format.

Each layer computes Z = P @ X @ W with the symmetric normalized propagation
matrix P, then merges the pre-activation with its ReLU by addition
(Z + relu(Z), the default residual wiring). The final hidden activations are
the fused per-node features; a small linear head on top is used only while
training on labeled graphs.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

DEFAULT_INPUT_DIM = 5
DEFAULT_HIDDEN_DIM = 32
N_CLASSES = 2

RESIDUAL_Z_PLUS_RELU = "z_plus_relu"
RESIDUAL_X_PLUS_RELU = "x_plus_relu"
RESIDUAL_MODES = (RESIDUAL_Z_PLUS_RELU, RESIDUAL_X_PLUS_RELU)

# Z + relu(Z) doubles positive activations; for zero-mean pre-activations the
# layer gain is E[(z + relu(z))^2] / E[z^2] = 2.5, so initial weights are
# shrunk by 1/sqrt(2.5) to keep deep stacks in a trainable range.
_MERGED_SUM_GAIN = 2.5


class FrozenModelError(RuntimeError):
    """Gradients were requested on a frozen model."""


class ModelFormatError(ValueError):
    """A serialized model payload is corrupt or from an unsupported version."""


@dataclass
class GcnModel:
    """Stack of graph-convolution weights plus the training-time linear head."""

    depth: int
    input_dim: int
    hidden_dim: int
    weights: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray
    frozen: bool = False
    residual_mode: str = RESIDUAL_Z_PLUS_RELU

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, self.head_weight, self.head_bias]


@dataclass
class GcnGradients:
    weights: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, self.head_weight, self.head_bias]


def init_gcn(
    depth: int,
    input_dim: int = DEFAULT_INPUT_DIM,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    seed: int = 0,
    residual_mode: str = RESIDUAL_Z_PLUS_RELU,
) -> GcnModel:
    """Seeded uniform Glorot-style initialization of a depth-layer model."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if residual_mode not in RESIDUAL_MODES:
        raise ValueError(f"unknown residual mode {residual_mode!r}")

    rng = np.random.default_rng(seed)
    comp = 1.0 / np.sqrt(_MERGED_SUM_GAIN) if residual_mode == RESIDUAL_Z_PLUS_RELU else 1.0

    def glorot(fan_in: int, fan_out: int, scale: float = 1.0) -> np.ndarray:
        limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    weights = [glorot(input_dim, hidden_dim, comp)]
    weights.extend(glorot(hidden_dim, hidden_dim, comp) for _ in range(depth - 1))
    head_weight = glorot(hidden_dim, N_CLASSES)
    head_bias = np.zeros(N_CLASSES, dtype=np.float64)
    return GcnModel(
        depth=depth,
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        weights=weights,
        head_weight=head_weight,
        head_bias=head_bias,
        residual_mode=residual_mode,
    )


def _check_operands(P, X: np.ndarray, W: np.ndarray) -> None:
    if X.ndim != 2 or W.ndim != 2:
        raise ValueError("layer inputs must be 2-D matrices")
    if P.shape != (X.shape[0], X.shape[0]):
        raise ValueError(f"propagation matrix shape {P.shape} does not match {X.shape[0]} nodes")
    if X.shape[1] != W.shape[0]:
        raise ValueError(f"dimension mismatch: features {X.shape[1]} vs weight rows {W.shape[0]}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite values in layer input")
    if not np.isfinite(W).all():
        raise ValueError("non-finite values in layer weights")


def gcn_layer_forward(
    P,
    X: np.ndarray,
    W: np.ndarray,
    residual_mode: str = RESIDUAL_Z_PLUS_RELU,
) -> np.ndarray:
    """One graph-convolution layer with the merged-sum residual.

    Computes Z = P @ X @ W and returns Z + relu(Z). The alternative
    ``x_plus_relu`` wiring returns X + relu(Z) when the input and output
    widths match (plain relu(Z) otherwise).
    """
    _check_operands(P, X, W)
    Z = P @ (X @ W)
    if residual_mode == RESIDUAL_Z_PLUS_RELU:
        return Z + np.maximum(Z, 0.0)
    if residual_mode == RESIDUAL_X_PLUS_RELU:
        act = np.maximum(Z, 0.0)
        return X + act if X.shape == Z.shape else act
    raise ValueError(f"unknown residual mode {residual_mode!r}")


@dataclass
class GcnWorkspace:
    """Buffers that `forward` and `backward` reuse on graphs of up to N nodes.

    ``outputs`` is float64 of shape (depth + 1, N, hidden): slot k takes
    layer k's output and the last slot the backward pass's dZ. ``masks`` is
    bool of shape (depth, N, hidden): slot k takes layer k's Z > 0, all that
    the backward pass needs of a pre-activation.
    """

    outputs: np.ndarray
    masks: np.ndarray


def make_workspace(model: GcnModel, n: int) -> GcnWorkspace:
    """A workspace for passes of ``model`` on graphs of up to n nodes."""
    return GcnWorkspace(
        outputs=np.empty((model.depth + 1, n, model.hidden_dim)),
        masks=np.empty((model.depth, n, model.hidden_dim), dtype=bool),
    )


def forward(
    model: GcnModel,
    P,
    X0: np.ndarray,
    with_head: bool = False,
    work: GcnWorkspace | None = None,
) -> np.ndarray:
    """Run the full stack; final hidden activations are the fused features.

    With ``with_head`` the linear classification head is appended and raw
    logits are returned instead. An optional ``work`` workspace, as for
    `backward`, holds the layer intermediates; the result has the same bits.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.ndim != 2 or X0.shape[1] != model.input_dim:
        raise ValueError(
            f"input must be n x {model.input_dim}, got {X0.shape}"
        )
    if work is not None:
        activations, logits = _forward_cached(model, P, X0, _workspace(model, X0, work))
        return logits if with_head else activations[-1].copy()
    X = X0
    for W in model.weights:
        X = gcn_layer_forward(P, X, W, model.residual_mode)
    if with_head:
        return X @ model.head_weight + model.head_bias
    return X


def _workspace(model: GcnModel, X0: np.ndarray, work: GcnWorkspace | None) -> GcnWorkspace:
    """The first n rows of every slot of ``work``, or a new workspace if None."""
    n = X0.shape[0]
    if work is None:
        return make_workspace(model, n)
    depth, hidden = model.depth, model.hidden_dim
    outputs, masks = work.outputs, work.masks
    if (outputs.dtype != np.float64 or outputs.ndim != 3
            or outputs.shape[0] != depth + 1 or outputs.shape[1] < n
            or outputs.shape[2] != hidden
            or masks.dtype != np.bool_ or masks.ndim != 3 or masks.shape[0] != depth
            or masks.shape[1] < n or masks.shape[2] != hidden):
        raise ValueError(
            f"workspace must hold float64 outputs of shape ({depth + 1}, >= {n}, {hidden}) "
            f"and bool masks of shape ({depth}, >= {n}, {hidden}), got "
            f"{outputs.dtype} {outputs.shape} and {masks.dtype} {masks.shape}"
        )
    return GcnWorkspace(outputs=outputs[:, :n], masks=masks[:, :n])


def _forward_cached(model: GcnModel, P, X0: np.ndarray, work: GcnWorkspace):
    """Forward pass that keeps what `backward` reads: layer k's output in
    slot k of ``work.outputs`` and its Z > 0 in slot k of ``work.masks``.
    The last output slot is left to the backward pass."""
    outputs = list(work.outputs[: model.depth])
    X = X0
    for W, A, mask in zip(model.weights, outputs, work.masks):
        _check_operands(P, X, W)
        Z = P @ (X @ W)
        np.greater(Z, 0.0, out=mask)
        np.maximum(Z, 0.0, out=A)
        if model.residual_mode == RESIDUAL_Z_PLUS_RELU:
            np.add(Z, A, out=A)
        elif X.shape == Z.shape:
            np.add(X, A, out=A)
        X = A
    logits = X @ model.head_weight + model.head_bias
    return [X0, *outputs], logits


def masked_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over masked nodes and its gradient w.r.t. logits."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("empty training mask")
    labels = np.asarray(labels)

    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm

    idx = np.nonzero(mask)[0]
    loss = -float(log_probs[idx, labels[idx]].sum()) / count

    dlogits = np.zeros_like(logits)
    probs = np.exp(log_probs[idx])
    probs[np.arange(len(idx)), labels[idx]] -= 1.0
    dlogits[idx] = probs / count
    return loss, dlogits


def backward(
    model: GcnModel,
    P,
    X0: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray,
    work: GcnWorkspace | None = None,
) -> tuple[float, GcnGradients]:
    """Loss and exact gradients of mean masked cross-entropy over the logits.

    P must be symmetric (as produced by the propagation-matrix construction).
    ``work`` is an optional `make_workspace` workspace for graphs of N >= n
    nodes; the first n rows of each slot hold the layer intermediates.
    Reusing one workspace across calls spares allocating (and faulting in)
    those arrays per call; results are the same bits either way.
    """
    if model.frozen:
        raise FrozenModelError("backward pass is disallowed on a frozen model")
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.shape[1] != model.input_dim:
        raise ValueError(f"input must be n x {model.input_dim}, got {X0.shape}")
    work = _workspace(model, X0, work)
    activations, logits = _forward_cached(model, P, X0, work)
    loss, dlogits = masked_cross_entropy(logits, labels, mask)

    final_hidden = activations[-1]
    d_head_w = final_hidden.T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    dX = dlogits @ model.head_weight.T

    # dZ = dX * relu-merge derivative: 1 + (Z > 0) for z_plus_relu, (Z > 0)
    # for x_plus_relu, written into the spare slot.
    dZ = work.outputs[-1]
    d_weights: list[np.ndarray] = [np.empty(0)] * model.depth
    for k in range(model.depth - 1, -1, -1):
        np.copyto(dZ, work.masks[k])
        if model.residual_mode == RESIDUAL_Z_PLUS_RELU:
            dZ += 1.0
            carry = None
        else:
            carry = dX if activations[k].shape == activations[k + 1].shape else None
        np.multiply(dX, dZ, out=dZ)
        S = P @ dZ
        d_weights[k] = activations[k].T @ S
        dX = S @ model.weights[k].T
        if carry is not None:
            dX = dX + carry

    return loss, GcnGradients(weights=d_weights, head_weight=d_head_w, head_bias=d_head_b)


_MAGIC = b"BFGC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHBBBB")
_RESIDUAL_CODES = {RESIDUAL_Z_PLUS_RELU: 0, RESIDUAL_X_PLUS_RELU: 1}
_RESIDUAL_NAMES = {v: k for k, v in _RESIDUAL_CODES.items()}


def _weight_shapes(depth: int, input_dim: int, hidden_dim: int) -> list[tuple[int, int]]:
    shapes = [(input_dim, hidden_dim)]
    shapes.extend((hidden_dim, hidden_dim) for _ in range(depth - 1))
    shapes.append((hidden_dim, N_CLASSES))
    shapes.append((N_CLASSES,))
    return shapes


def serialize_model(model: GcnModel) -> bytes:
    """Versioned little-endian binary encoding with a trailing checksum.

    The header's last two bytes are reserved and written as zero.
    """
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        model.depth,
        model.input_dim,
        model.hidden_dim,
        N_CLASSES,
        1 if model.frozen else 0,
        _RESIDUAL_CODES[model.residual_mode],
        0,
        0,
    )
    chunks = [header]
    for arr in model.parameters():
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    body = b"".join(chunks)
    return body + struct.pack("<I", zlib.crc32(body))


def deserialize_model(data: bytes) -> GcnModel:
    if len(data) < _HEADER.size + 4:
        raise ModelFormatError("corrupt payload: truncated model data")
    body, (checksum,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) != checksum:
        raise ModelFormatError("corrupt payload: checksum mismatch")

    magic, version, depth, input_dim, hidden_dim, n_classes, frozen, res_code, _, _ = (
        _HEADER.unpack(body[: _HEADER.size])
    )
    if magic != _MAGIC:
        raise ModelFormatError("corrupt payload: bad magic")
    if version != _FORMAT_VERSION:
        raise ModelFormatError(f"unsupported model format version {version}")
    if n_classes != N_CLASSES or res_code not in _RESIDUAL_NAMES:
        raise ModelFormatError("corrupt payload: invalid header fields")

    shapes = _weight_shapes(depth, input_dim, hidden_dim)
    expected = _HEADER.size + sum(int(np.prod(s)) * 8 for s in shapes)
    if len(body) != expected:
        raise ModelFormatError(
            f"corrupt payload: body is {len(body)} bytes, expected {expected}"
        )

    offset = _HEADER.size
    arrays: list[np.ndarray] = []
    for shape in shapes:
        size = int(np.prod(shape)) * 8
        arr = np.frombuffer(body, dtype="<f8", count=int(np.prod(shape)), offset=offset)
        arrays.append(arr.astype(np.float64).reshape(shape))
        offset += size
    if any(not np.isfinite(a).all() for a in arrays):
        raise ModelFormatError("corrupt payload: non-finite weights")

    return GcnModel(
        depth=depth,
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        weights=arrays[:depth],
        head_weight=arrays[depth],
        head_bias=arrays[depth + 1],
        frozen=bool(frozen),
        residual_mode=_RESIDUAL_NAMES[res_code],
    )


def save_model(model: GcnModel, path) -> None:
    from pathlib import Path

    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> GcnModel:
    from pathlib import Path

    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"model file not found: {path}")
    return deserialize_model(path.read_bytes())

