"""Topology-only pretraining of the graph network.

Synthetic labeled graphs (background model plus an overlaid bot topology,
star-shaped for centralized botnets and a random regular mesh for
peer-to-peer ones) stand in for a public balanced graph corpus. Training
runs on all-ones node features with Adam and a balanced loss mask, early
stops on validation accuracy, and returns the best checkpoint frozen.
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
from .gcn_core import GcnModel, backward, forward, init_gcn, make_workspace
from .random_graphs import (
    barabasi_albert_edges,
    complete_edges,
    gnp_edges,
    random_regular_edges,
)

ARCH_C2 = "c2"
ARCH_P2P = "p2p"
ARCHITECTURES = (ARCH_C2, ARCH_P2P)

BACKGROUND_PA = "preferential_attachment"
BACKGROUND_ER = "erdos_renyi"

# Feature-extractor depth per architecture.
ARCH_DEPTH = {ARCH_C2: 12, ARCH_P2P: 24}

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Background nodes kept in the loss mask per bot node.
BALANCE_RATIO = 1.0


@dataclass
class SyntheticGraphSpec:
    """Recipe for one labeled background-plus-botnet graph."""

    architecture: str
    n_background: int
    n_bots: int
    background_model: str = BACKGROUND_PA
    ba_m: int = 2
    er_p: float | None = None
    n_controllers: int = 1
    p2p_degree: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"architecture must be one of {ARCHITECTURES}")
        if self.background_model not in (BACKGROUND_PA, BACKGROUND_ER):
            raise ValueError(f"unknown background model {self.background_model!r}")
        if self.n_background < 1 or self.n_bots < 1:
            raise ValueError("node counts must be positive")
        if self.architecture == ARCH_C2 and self.n_controllers < 1:
            raise ValueError("need at least one controller")
        if self.architecture == ARCH_P2P:
            if not 1 <= self.p2p_degree < self.n_bots:
                raise ValueError(
                    f"mesh degree must be in [1, {self.n_bots - 1}], got {self.p2p_degree}"
                )


@dataclass
class TrainConfig:
    lr: float = 0.003
    max_epochs: int = 500
    patience: int = 10
    val_fraction: float = 0.2
    hidden_dim: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 0:
            raise ValueError("patience must be >= 0")


def _background_edges(spec: SyntheticGraphSpec, seed: int) -> np.ndarray:
    if spec.background_model == BACKGROUND_PA:
        m = min(spec.ba_m, spec.n_background - 1) if spec.n_background > 1 else 1
        if spec.n_background <= m:
            return complete_edges(spec.n_background)
        return barabasi_albert_edges(spec.n_background, m, seed)
    p = spec.er_p if spec.er_p is not None else min(1.0, 4.0 / spec.n_background)
    return gnp_edges(spec.n_background, p, seed)


def generate_synthetic_graph(spec: SyntheticGraphSpec) -> CommGraph:
    """Labeled graph with all-ones features: background plus bot overlay.

    Centralized overlay wires every bot to its controller (round-robin
    assignment); peer-to-peer overlay wires the bots into a random regular
    mesh. Every bot node also attaches to at least one background node.
    """
    ss = np.random.SeedSequence(spec.seed)
    bg_seed, mesh_seed, attach_seed = (int(c.generate_state(1)[0]) for c in ss.spawn(3))

    n_ctl = spec.n_controllers if spec.architecture == ARCH_C2 else 0
    bg_names = [f"h{i:05d}" for i in range(spec.n_background)]
    bot_names = [f"b{i:04d}" for i in range(spec.n_bots)]
    ctl_names = [f"m{i:03d}" for i in range(n_ctl)]

    nodes = sorted(bg_names + bot_names + ctl_names)
    index = {name: i for i, name in enumerate(nodes)}
    bg_idx, bot_idx, ctl_idx = (np.array([index[name] for name in names], dtype=np.int64)
                                for names in (bg_names, bot_names, ctl_names))

    links = [bg_idx[_background_edges(spec, bg_seed)]]
    if spec.architecture == ARCH_C2:
        links.append(np.column_stack((ctl_idx[np.arange(spec.n_bots) % n_ctl], bot_idx)))
    else:
        if (spec.p2p_degree * spec.n_bots) % 2 == 1:
            raise ValueError("infeasible mesh: degree times bot count must be even")
        links.append(bot_idx[random_regular_edges(spec.p2p_degree, spec.n_bots, mesh_seed)])

    rng = np.random.default_rng(attach_seed)
    for i in np.concatenate((bot_idx, ctl_idx)):
        n_attach = min(int(rng.integers(1, 3)), spec.n_background)
        targets = bg_idx[rng.choice(spec.n_background, size=n_attach, replace=False)]
        links.append(np.column_stack((np.full(n_attach, i), targets)))

    links = np.concatenate(links)

    labels = np.full(len(nodes), LABEL_LEGIT, dtype=np.int8)
    labels[bot_idx] = LABEL_BOT
    labels[ctl_idx] = LABEL_BOT

    return CommGraph(
        nodes=nodes,
        edges=np.concatenate((links, links[:, ::-1])),
        features=np.ones((len(nodes), FEATURE_DIM), dtype=np.float64),
        labels=labels,
        meta={
            "architecture": spec.architecture,
            "background_model": spec.background_model,
            "n_background": spec.n_background,
            "n_bots": spec.n_bots,
            "n_controllers": n_ctl,
            "seed": spec.seed,
        },
    )


def default_graph_spec(
    arch: str,
    seed: int = 0,
    n_background: int = 880,
    n_bots: int = 110,
) -> SyntheticGraphSpec:
    """Desk-scale recipe: ~1000 nodes with a clearly identifiable overlay.

    The background here is Erdős–Rényi rather than the type-level
    preferential-attachment default: with all-ones inputs the stack's
    node score is a monotone function of the propagated mass, and the
    heavy-tailed hub mass of a preferential-attachment background overlaps
    the bot band, capping reachable accuracy well below the target. A
    concentrated-degree background keeps the overlay separable.
    """
    common = dict(
        architecture=arch,
        n_background=n_background,
        n_bots=n_bots,
        background_model=BACKGROUND_ER,
        er_p=16.0 / max(n_background, 1),
        seed=seed,
    )
    if arch == ARCH_C2:
        return SyntheticGraphSpec(n_controllers=1, **common)
    return SyntheticGraphSpec(p2p_degree=4, **common)


def default_pretrain_dataset(
    arch: str,
    n_graphs: int = 6,
    seed: int = 0,
    n_background: int = 880,
    n_bots: int = 110,
) -> list[CommGraph]:
    return [
        generate_synthetic_graph(
            default_graph_spec(arch, seed=seed + i, n_background=n_background, n_bots=n_bots)
        )
        for i in range(n_graphs)
    ]


def load_graph_dataset(path) -> list[CommGraph]:
    """Load labeled interchange-format graphs from a file or directory.

    Graphs stored without features get all-ones features installed so they
    are directly usable for topology-only training.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.json"))
        if not files:
            raise ValueError(f"no graph files in {path}")
    elif path.is_file():
        files = [path]
    else:
        raise FileNotFoundError(f"dataset path not found: {path}")

    graphs = []
    for f in files:
        g = load_graph(f)
        if g.labels is None or not ((g.labels == LABEL_BOT) | (g.labels == LABEL_LEGIT)).any():
            raise ValueError(f"graph {f} is missing labels")
        if not g.features.any():
            g.features = np.ones((g.n, FEATURE_DIM), dtype=np.float64)
        graphs.append(g)
    return graphs


class EarlyStopper:
    """Strict-improvement tracker: stop after `patience` non-improving epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.best_epoch = -1
        self.since_improve = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch; returns True when training should stop."""
        if value > self.best:
            self.best = value
            self.best_epoch = epoch
            self.since_improve = 0
        else:
            self.since_improve += 1
        return self.since_improve > self.patience


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


def _balanced_mask(labels: np.ndarray, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """Loss mask: every bot plus a seeded sample of background nodes."""
    bots = np.nonzero(labels == LABEL_BOT)[0]
    legit = np.nonzero(labels == LABEL_LEGIT)[0]
    n_keep = min(legit.size, max(1, int(round(ratio * bots.size))))
    keep = rng.choice(legit, size=n_keep, replace=False)
    mask = np.zeros(labels.size, dtype=bool)
    mask[bots] = True
    mask[keep] = True
    return mask


def _graph_tensors(graphs, config):
    prepared = []
    for gi, g in enumerate(graphs):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(gi,)))
        P = propagation_matrix(g)
        X = np.ones((g.n, FEATURE_DIM), dtype=np.float64)
        y = (g.labels == LABEL_BOT).astype(np.int64)
        mask = _balanced_mask(g.labels, BALANCE_RATIO, rng)
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

    train_set = _graph_tensors(train_graphs, config)
    val_set = _graph_tensors(val_graphs, config)

    model = init_gcn(depth, FEATURE_DIM, config.hidden_dim, seed=config.seed)
    params = model.parameters()
    adam = _Adam([p.shape for p in params], config.lr)
    stopper = EarlyStopper(config.patience)
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
            adam.step(params, grads.parameters())
            epoch_loss += loss
        epoch_loss /= len(train_set)

        correct = 0
        total = 0
        for P, X, y, mask in val_set:
            logits = forward(model, P, X, with_head=True, work=work)
            pred = logits.argmax(axis=1)
            correct += int((pred[mask] == y[mask]).sum())
            total += int(mask.sum())
        val_acc = correct / total

        if report is not None:
            report.append({"epoch": epoch, "loss": epoch_loss, "val_acc": val_acc})
        improved_to_best = val_acc > stopper.best
        stop = stopper.update(epoch, val_acc)
        if improved_to_best:
            best_params = [p.copy() for p in params]
        if stop:
            break

    model.weights = best_params[: model.depth]
    model.head_weight = best_params[model.depth]
    model.head_bias = best_params[model.depth + 1]
    model.frozen = True
    return model
