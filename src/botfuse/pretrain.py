"""Topology-only pretraining of the graph network.

Synthetic labeled graphs stand in for a public balanced graph corpus. Each
is one recipe: an Erdős–Rényi background of mean degree 16 with a bot
overlay on top, a single controller wired to every bot for centralized
botnets or a 4-regular mesh for peer-to-peer ones. Training runs on all-ones
node features with Adam and a balanced loss mask, early stops on validation
accuracy, and returns the best checkpoint frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .comm_graph import (
    LABEL_BOT,
    LABEL_LEGIT,
    CommGraph,
    load_graph,
    propagation_matrix,
)
from .flow_features import FEATURE_DIM
from .gcn_core import DEFAULT_HIDDEN_DIM, GcnModel, backward, forward, init_gcn, make_workspace
from .random_graphs import gnp_edges, random_regular_edges

ARCH_C2 = "c2"
ARCH_P2P = "p2p"
ARCHITECTURES = (ARCH_C2, ARCH_P2P)

# Feature-extractor depth per architecture.
ARCH_DEPTH = {ARCH_C2: 12, ARCH_P2P: 24}

# Expected degree of a background node among the background, and the degree
# of every bot in the peer-to-peer mesh.
ER_MEAN_DEGREE = 16.0
MESH_DEGREE = 4

# Desk-scale graph size: ~1000 nodes with a clearly identifiable overlay.
DEFAULT_N_BACKGROUND = 880
DEFAULT_N_BOTS = 110
DEFAULT_N_GRAPHS = 6

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 0.003
    max_epochs: int = 500
    patience: int = 10
    val_fraction: float = 0.2
    hidden_dim: int = DEFAULT_HIDDEN_DIM
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def check_mesh_bots(n_bots: int) -> None:
    """Refuse a peer-to-peer botnet too small for its MESH_DEGREE-regular mesh."""
    if n_bots <= MESH_DEGREE:
        raise ValueError(
            f"a {MESH_DEGREE}-regular mesh needs more than {MESH_DEGREE} bots, got {n_bots}"
        )


def generate_synthetic_graph(
    arch: str,
    n_background: int = DEFAULT_N_BACKGROUND,
    n_bots: int = DEFAULT_N_BOTS,
    seed: int = 0,
) -> CommGraph:
    """Labeled topology-only graph: background plus bot overlay.

    The c2 overlay wires every bot to one controller; the p2p overlay wires
    the bots into a random MESH_DEGREE-regular mesh, so it needs more bots
    than that. Every bot node also attaches to one or two background nodes.

    The background is Erdős–Rényi rather than preferential attachment: with
    all-ones inputs the stack's node score is a monotone function of the
    propagated mass, and the heavy-tailed hub mass of a
    preferential-attachment background overlaps the bot band, capping
    reachable accuracy well below the target. A concentrated-degree
    background keeps the overlay separable.
    """
    if arch not in ARCHITECTURES:
        raise ValueError(f"architecture must be one of {ARCHITECTURES}")
    if n_background < 1 or n_bots < 1:
        raise ValueError("node counts must be positive")
    if arch == ARCH_P2P:
        check_mesh_bots(n_bots)
    ss = np.random.SeedSequence(seed)
    bg_seed, mesh_seed, attach_seed = (int(c.generate_state(1)[0]) for c in ss.spawn(3))

    n_ctl = 1 if arch == ARCH_C2 else 0
    bg_names = [f"h{i:05d}" for i in range(n_background)]
    bot_names = [f"b{i:04d}" for i in range(n_bots)]
    ctl_names = [f"m{i:03d}" for i in range(n_ctl)]

    nodes = sorted(bg_names + bot_names + ctl_names)
    index = {name: i for i, name in enumerate(nodes)}
    bg_idx, bot_idx, ctl_idx = (np.array([index[name] for name in names], dtype=np.int64)
                                for names in (bg_names, bot_names, ctl_names))

    background = gnp_edges(n_background, ER_MEAN_DEGREE / n_background, bg_seed)
    links = [bg_idx[background]]
    if arch == ARCH_C2:
        links.append(np.column_stack((np.repeat(ctl_idx, n_bots), bot_idx)))
    else:
        links.append(bot_idx[random_regular_edges(MESH_DEGREE, n_bots, mesh_seed)])

    rng = np.random.default_rng(attach_seed)
    for i in np.concatenate((bot_idx, ctl_idx)):
        n_attach = min(int(rng.integers(1, 3)), n_background)
        targets = bg_idx[rng.choice(n_background, size=n_attach, replace=False)]
        links.append(np.column_stack((np.full(n_attach, i), targets)))

    links = np.concatenate(links)

    labels = np.full(len(nodes), LABEL_LEGIT, dtype=np.int8)
    labels[bot_idx] = LABEL_BOT
    labels[ctl_idx] = LABEL_BOT

    return CommGraph(
        nodes=nodes,
        edges=np.concatenate((links, links[:, ::-1])),
        labels=labels,
        meta={
            "architecture": arch,
            "background_model": "erdos_renyi",
            "n_background": n_background,
            "n_bots": n_bots,
            "n_controllers": n_ctl,
            "seed": seed,
        },
    )


def default_pretrain_dataset(
    arch: str,
    n_graphs: int = DEFAULT_N_GRAPHS,
    seed: int = 0,
    n_background: int = DEFAULT_N_BACKGROUND,
    n_bots: int = DEFAULT_N_BOTS,
) -> list[CommGraph]:
    if n_graphs < 1:
        raise ValueError(f"n_graphs must be >= 1, got {n_graphs}")
    return [
        generate_synthetic_graph(arch, n_background, n_bots, seed=seed + i)
        for i in range(n_graphs)
    ]


def graph_files(path) -> list[Path]:
    """The graph files a dataset path holds: the ``*.json`` files of a
    directory in name order, or the path itself when it is a file."""
    path = Path(path)
    if path.is_dir():
        return sorted(path.glob("*.json"))
    if path.is_file():
        return [path]
    raise FileNotFoundError(f"dataset path not found: {path}")


def load_graph_dataset(path) -> list[CommGraph]:
    """Load labeled interchange-format graphs from a file or directory.

    A graph file holds topology and labels; pretraining gives every graph
    all-ones inputs, and a ``features`` key in an older file is ignored.
    """
    files = graph_files(path)
    if not files:
        raise ValueError(f"no graph files in {path}")

    graphs = []
    for f in files:
        g = load_graph(f)
        if g.labels is None or not ((g.labels == LABEL_BOT) | (g.labels == LABEL_LEGIT)).any():
            raise ValueError(f"graph {f} is missing labels")
        graphs.append(g)
    return graphs


class _Adam:
    def __init__(self, shapes: list[tuple[int, ...]], lr: float):
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0
        self.lr = lr

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _balanced_mask(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Loss mask: every bot plus a seeded sample of as many background nodes,
    or all of them when there are fewer."""
    bots = np.nonzero(labels == LABEL_BOT)[0]
    legit = np.nonzero(labels == LABEL_LEGIT)[0]
    n_keep = min(legit.size, max(1, bots.size))
    keep = rng.choice(legit, size=n_keep, replace=False)
    mask = np.zeros(labels.size, dtype=bool)
    mask[bots] = True
    mask[keep] = True
    return mask


def _graph_tensors(graphs, seed: int):
    prepared = []
    for gi, g in enumerate(graphs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(gi,)))
        P = propagation_matrix(g)
        X = np.ones((g.n, FEATURE_DIM), dtype=np.float64)
        y = (g.labels == LABEL_BOT).astype(np.int64)
        mask = _balanced_mask(g.labels, rng)
        prepared.append((P, X, y, mask))
    return prepared


def pretrain_gcn(
    dataset: list[CommGraph],
    depth: int,
    config: TrainConfig | None = None,
    report: list | None = None,
) -> GcnModel:
    """Train on labeled graphs, early-stop on validation accuracy, freeze.

    The dataset is split into train/validation by whole graph so topology
    never leaks between the two sides. The returned model holds the best
    validation checkpoint (ties resolved to the earliest epoch). An optional
    `report` list collects per-epoch records (epoch, loss, val_acc).
    """
    config = config or TrainConfig()
    if not dataset:
        raise ValueError("empty dataset")
    for g in dataset:
        if g.labels is None:
            raise ValueError("pretraining requires labeled graphs")
    all_labels = np.concatenate([g.labels for g in dataset])
    if not ((all_labels == LABEL_BOT).any() and (all_labels == LABEL_LEGIT).any()):
        raise ValueError("dataset contains a single class")

    order = np.random.default_rng(config.seed).permutation(len(dataset))
    n_val = max(1, int(round(config.val_fraction * len(dataset))))
    if n_val >= len(dataset):
        raise ValueError("dataset too small for the requested validation fraction")
    val_graphs = [dataset[i] for i in order[:n_val]]
    train_graphs = [dataset[i] for i in order[n_val:]]

    train_set = _graph_tensors(train_graphs, config.seed)
    val_set = _graph_tensors(val_graphs, config.seed)

    model = init_gcn(depth, FEATURE_DIM, config.hidden_dim, seed=config.seed)
    params = model.parameters()
    adam = _Adam([p.shape for p in params], config.lr)
    best_acc = -np.inf
    since_best = 0
    best_params = [p.copy() for p in params]
    epoch_rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0xE0,)))
    # One workspace for every forward and backward pass, sized for the
    # largest graph: reusing it keeps the heap from shrinking and faulting
    # back in between passes.
    n_max = max(P.shape[0] for P, *_ in train_set + val_set)
    work = make_workspace(model, n_max)

    for epoch in range(config.max_epochs):
        epoch_loss = 0.0
        for gi in epoch_rng.permutation(len(train_set)):
            P, X, y, mask = train_set[gi]
            loss, grads = backward(model, P, X, y, mask, work=work)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"pretraining diverged at epoch {epoch}: loss={loss!r}"
                )
            adam.step(params, grads)
            epoch_loss += loss
        epoch_loss /= len(train_set)

        correct = 0
        total = 0
        for P, X, y, mask in val_set:
            logits = forward(model, P, X, work=work) @ model.head_weight + model.head_bias
            pred = logits.argmax(axis=1)
            correct += int((pred[mask] == y[mask]).sum())
            total += int(mask.sum())
        val_acc = correct / total

        if report is not None:
            report.append({"epoch": epoch, "loss": epoch_loss, "val_acc": val_acc})
        # A tie is no improvement, so the earliest best epoch is kept.
        if val_acc > best_acc:
            best_acc = val_acc
            since_best = 0
            best_params = [p.copy() for p in params]
        else:
            since_best += 1
            if since_best > config.patience:
                break

    for p, best in zip(params, best_params):
        np.copyto(p, best)
    model.frozen = True
    return model
