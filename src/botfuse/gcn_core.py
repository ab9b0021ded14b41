"""Residual graph-convolution stack: forward pass, exact reverse-mode
gradients of the masked cross-entropy objective, and a versioned binary
model format.

Each layer computes Z = P @ X @ W with the symmetric normalized propagation
matrix P, then merges the pre-activation with its ReLU by addition:
Z + relu(Z), the stack's one layer wiring. The final hidden activations are
the fused per-node features; a small linear head on top is used only while
training on labeled graphs.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .flow_features import FEATURE_DIM

DEFAULT_HIDDEN_DIM = 32
N_CLASSES = 2

# The name of the one layer wiring. A model file records no name: its
# residual code is always 0. The name survives only as the
# `GcnModel.residual_mode` field and the `residual_mode` parameter of
# `gcn_layer_forward`, which the benchmark's layer replay still passes;
# the `src/` follow-up of ROADMAP item 3 (the benchmark PR) removes both.
RESIDUAL_Z_PLUS_RELU = "z_plus_relu"

# Z + relu(Z) doubles positive activations; for zero-mean pre-activations the
# layer gain is E[(z + relu(z))^2] / E[z^2] = 2.5, so initial weights are
# shrunk by 1/sqrt(2.5) to keep deep stacks in a trainable range.
_MERGED_SUM_GAIN = 2.5


class FrozenModelError(RuntimeError):
    """Gradients were requested on a frozen model."""


class ModelFormatError(ValueError):
    """A serialized model payload is corrupt or from an unsupported version."""


@dataclass(eq=False)
class GcnModel:
    """Stack of graph-convolution weights plus the training-time linear head.

    The weights are the one record of the network's shape: ``depth`` is the
    number of layer weights, and ``input_dim`` and ``hidden_dim`` are the
    first weight's rows and columns. A model file's header records all three,
    written from these properties when the model is saved. Construction
    refuses an empty stack and parameters that do not chain, so no model can
    save a header that disagrees with its weights.
    """

    weights: list[np.ndarray]
    head_weight: np.ndarray
    head_bias: np.ndarray
    frozen: bool = False
    residual_mode: str = RESIDUAL_Z_PLUS_RELU

    def __post_init__(self) -> None:
        # The file format saves every model as this one wiring.
        if self.residual_mode != RESIDUAL_Z_PLUS_RELU:
            raise ValueError(f"unknown residual mode {self.residual_mode!r}")
        if not self.weights or np.ndim(self.weights[0]) != 2:
            raise ValueError("model needs at least one 2-D layer weight")
        shapes = [np.shape(p) for p in self.parameters()]
        expected = _weight_shapes(self.depth, self.input_dim, self.hidden_dim)
        if shapes != expected:
            raise ValueError(f"parameter shapes {shapes} do not chain as {expected}")

    @property
    def depth(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights[0].shape[1]

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, self.head_weight, self.head_bias]


def check_depth(depth: int) -> None:
    """Refuse a network of fewer than one layer, or of more than the model
    format can record."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth must be <= {_MAX_DEPTH}, the model format's limit, got {depth}")


def init_gcn(
    depth: int,
    input_dim: int = FEATURE_DIM,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    seed: int = 0,
) -> GcnModel:
    """Seeded uniform Glorot-style initialization of a depth-layer model."""
    check_depth(depth)

    rng = np.random.default_rng(seed)
    comp = 1.0 / np.sqrt(_MERGED_SUM_GAIN)

    def glorot(fan_in: int, fan_out: int, scale: float = 1.0) -> np.ndarray:
        limit = scale * np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    weights = [glorot(input_dim, hidden_dim, comp)]
    weights.extend(glorot(hidden_dim, hidden_dim, comp) for _ in range(depth - 1))
    head_weight = glorot(hidden_dim, N_CLASSES)
    head_bias = np.zeros(N_CLASSES, dtype=np.float64)
    return GcnModel(weights=weights, head_weight=head_weight, head_bias=head_bias)


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
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One graph-convolution layer with the merged-sum residual.

    Computes Z = P @ X @ W and returns Z + relu(Z), the stack's one wiring;
    ``residual_mode`` must name it. The result is written into ``out`` when
    given, with the same bits.
    """
    if residual_mode != RESIDUAL_Z_PLUS_RELU:
        raise ValueError(f"unknown residual mode {residual_mode!r}")
    _check_operands(P, X, W)
    Z = P @ (X @ W)
    act = np.maximum(Z, 0.0, out=out)
    return np.add(Z, act, out=act)


def make_workspace(model: GcnModel, n: int) -> list[np.ndarray]:
    """Buffers that `backward` reuses on graphs of up to n nodes.

    depth + 1 float64 (n, hidden) arrays: slot k takes layer k's output and
    the last slot the backward pass's dZ. Each slot is its own array, not a
    slice of one block: freeing a block of megabytes raises glibc's dynamic
    mmap threshold to its size, after which smaller arrays stay resident in
    the heap and the process's RSS ratchets up from one pretraining to the
    next.
    """
    return [np.empty((n, model.hidden_dim)) for _ in range(model.depth + 1)]


def _workspace(model: GcnModel, n: int, work: list[np.ndarray] | None) -> list[np.ndarray]:
    """The first n rows of every slot of ``work``, or a new workspace if None."""
    if work is None:
        return make_workspace(model, n)
    depth, hidden = model.depth, model.hidden_dim
    if len(work) != depth + 1 or any(
        s.dtype != np.float64 or s.ndim != 2 or s.shape[0] < n or s.shape[1] != hidden
        for s in work
    ):
        raise ValueError(
            f"workspace must be {depth + 1} float64 arrays of shape (>= {n}, {hidden}), got "
            + ", ".join(f"{s.dtype} {s.shape}" for s in work)
        )
    return [s[:n] for s in work]


def _stack(model: GcnModel, P, X0: np.ndarray, outs) -> np.ndarray:
    """Final hidden activations; layer k's output goes into ``outs[k]``
    (a new array where that is None)."""
    X = X0
    for W, out in zip(model.weights, outs):
        X = gcn_layer_forward(P, X, W, out=out)
    return X


def forward(model: GcnModel, P, X0: np.ndarray) -> np.ndarray:
    """Run the full stack; final hidden activations are the fused features.

    The training head is not applied: logits are
    ``forward(...) @ model.head_weight + model.head_bias``. Each layer's
    output is a new array; only `backward` takes a workspace.
    """
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.ndim != 2 or X0.shape[1] != model.input_dim:
        raise ValueError(
            f"input must be n x {model.input_dim}, got {X0.shape}"
        )
    return _stack(model, P, X0, [None] * model.depth)


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
    work: list[np.ndarray] | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Loss and exact gradients of mean masked cross-entropy over the logits,
    one array per parameter in `GcnModel.parameters` order.

    P must be symmetric (as produced by the propagation-matrix construction).
    ``work`` is an optional `make_workspace` workspace for graphs of N >= n
    nodes; the first n rows of each slot hold the layer outputs and dZ.
    Reusing one workspace across calls spares allocating (and faulting in)
    those arrays per call; results are the same bits either way.
    """
    if model.frozen:
        raise FrozenModelError("backward pass is disallowed on a frozen model")
    X0 = np.asarray(X0, dtype=np.float64)
    if X0.shape[1] != model.input_dim:
        raise ValueError(f"input must be n x {model.input_dim}, got {X0.shape}")
    work = _workspace(model, X0.shape[0], work)
    _stack(model, P, X0, work)
    acts = [X0, *work[:-1]]
    logits = acts[-1] @ model.head_weight + model.head_bias
    loss, dlogits = masked_cross_entropy(logits, labels, mask)

    d_head_w = acts[-1].T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    dX = dlogits @ model.head_weight.T

    # dZ = dX * relu-merge derivative 1 + (Z > 0), written into the spare
    # slot. Z + relu(Z) > 0 exactly where Z > 0, so the stored output gives
    # the sign.
    dZ = work[-1]
    d_weights: list[np.ndarray] = [np.empty(0)] * model.depth
    for k in range(model.depth - 1, -1, -1):
        np.greater(acts[k + 1], 0.0, out=dZ)
        dZ += 1.0
        np.multiply(dX, dZ, out=dZ)
        S = P @ dZ
        d_weights[k] = acts[k].T @ S
        dX = S @ model.weights[k].T

    return loss, [*d_weights, d_head_w, d_head_b]


_MAGIC = b"BFGC"
_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHHHHHBBBB")
# The header stores depth as an unsigned 16-bit field.
_MAX_DEPTH = 2**16 - 1


def _weight_shapes(depth: int, input_dim: int, hidden_dim: int) -> list[tuple[int, int]]:
    shapes = [(input_dim, hidden_dim)]
    shapes.extend((hidden_dim, hidden_dim) for _ in range(depth - 1))
    shapes.append((hidden_dim, N_CLASSES))
    shapes.append((N_CLASSES,))
    return shapes


def serialize_model(model: GcnModel) -> bytes:
    """Versioned little-endian binary encoding with a trailing checksum.

    The header's residual code is 0, the one wiring; its last two bytes are
    reserved and also written as zero.
    """
    header = _HEADER.pack(
        _MAGIC,
        _FORMAT_VERSION,
        model.depth,
        model.input_dim,
        model.hidden_dim,
        N_CLASSES,
        1 if model.frozen else 0,
        0,
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
    if n_classes != N_CLASSES or 0 in (depth, input_dim, hidden_dim):
        raise ModelFormatError("corrupt payload: invalid header fields")
    if res_code != 0:
        raise ModelFormatError(f"unsupported residual code {res_code}")

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
        weights=arrays[:depth],
        head_weight=arrays[depth],
        head_bias=arrays[depth + 1],
        frozen=bool(frozen),
    )


def save_model(model: GcnModel, path) -> None:
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> GcnModel:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"model file not found: {path}")
    return deserialize_model(path.read_bytes())

