"""Output checks for the benchmark's CLI calls.

Every call's output is checked for invariants that hold at any seed, and
its bytes must equal those of the first call of the same kind in the run.
At the seed recorded in ``golden.json`` the model, ensemble and detect
report digests and the cross-validated F1 and ROC AUC must also equal the
recorded values, which enforces byte-for-byte reproducibility.

The recorded digests hold with BLAS on one thread, as ``run.py`` sets it.
The p2p model's bytes (and the ensemble trained on its embeddings) differ
when BLAS runs on two threads, because the sums of its products are then
taken in another order; detection quality does not change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import digest_lines

GOLDEN = Path(__file__).resolve().parent / "golden.json"

# Output file of each command, relative to the run's work directory.
OUTPUT = {"pretrain": "model.bin", "train": "trees.json", "detect": "report.jsonl",
          "eval": "eval.json"}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_golden(workload: str, scale: str, seed: int) -> dict | None:
    """Recorded values for this run, or None when the run is not the recorded one."""
    golden = json.loads(GOLDEN.read_text())
    if scale != golden["scale"] or seed != golden["seed"]:
        return None
    return golden["workloads"][workload]


class Checker:
    """Checks the outputs of one run's calls; keeps digests and the last quality."""

    def __init__(self, arch: str, work: Path, expected: dict, golden: dict | None):
        self.arch = arch
        self.work = work
        self.expected = expected
        self.golden = golden
        self.digests: dict[str, str] = {}
        self.quality: dict[str, float] = {}

    def check(self, argv: list[str]) -> list[str]:
        command = argv[0]
        path = self.work / OUTPUT[command]
        if not path.is_file():
            return [f"{command} wrote no {path.name}"]
        errors = getattr(self, f"_{command}")(argv, path)
        digest = sha256(path)
        if self.digests.setdefault(path.name, digest) != digest:
            errors.append(f"{path.name} differs from the first {command} output of this run")
        want = (self.golden or {}).get(path.name)
        if want is not None and want != digest:
            errors.append(f"{path.name} digest {digest} != recorded {want}")
        if command == "eval" and self.golden:
            for key in ("f1", "roc_auc"):
                if self.quality[key] != self.golden[f"cv_{key}"]:
                    errors.append(f"cv_{key} {self.quality[key]!r} != recorded "
                                  f"{self.golden[f'cv_{key}']!r}")
        return errors

    def _pretrain(self, argv, path) -> list[str]:
        from botfuse.gcn_core import load_model
        from botfuse.pretrain import ARCH_DEPTH

        model = load_model(path)
        errors = []
        if not model.frozen or model.depth != ARCH_DEPTH[self.arch]:
            errors.append(f"pretrain produced depth {model.depth}, frozen={model.frozen}")
        if not (self.work / "pretrain.jsonl").read_text().strip():
            errors.append("pretrain report is empty")
        return errors

    def _train(self, argv, path) -> list[str]:
        from botfuse.extra_trees import load_ensemble

        ensemble = load_ensemble(path)
        n_trees = int(argv[argv.index("--n-trees") + 1]) if "--n-trees" in argv else 100
        if ensemble.n_trees != n_trees or ensemble.n_features != 32:
            return [f"ensemble has {ensemble.n_trees} trees over {ensemble.n_features} features"]
        return []

    def _detect(self, argv, path) -> list[str]:
        """Every window lists each of its endpoints once; probabilities lie in [0, 1]."""
        import numpy as np

        from botfuse.metrics import compute_metrics

        windows = [json.loads(line) for line in path.read_text().splitlines()]
        want = self.expected["windows"]
        errors = []
        if [w["window_start"] for w in windows] != [start for start, _, _ in want]:
            errors.append(f"report has {len(windows)} windows, expected {len(want)}")
        labels = self.expected["labels"]
        y, p = [], []
        for w, (start, n_nodes, nodes_digest) in zip(windows, want):
            ids = [v["node_id"] for v in w["nodes"]]
            if w["n_nodes"] != n_nodes or len(ids) != n_nodes or \
                    digest_lines(sorted(ids)) != nodes_digest or len(set(ids)) != len(ids):
                errors.append(f"window {start}: node list is not its {n_nodes} endpoints")
            for v in w["nodes"]:
                prob = v["bot_probability"]
                if not 0.0 <= prob <= 1.0 or v["verdict"] != (prob >= w["threshold"]):
                    errors.append(f"window {start}: bad verdict {v}")
                if v["node_id"] in labels:
                    y.append(labels[v["node_id"]])
                    p.append(prob)
            if w["n_flagged"] != sum(v["verdict"] for v in w["nodes"]):
                errors.append(f"window {start}: n_flagged does not count the verdicts")
        if errors:
            return errors[:5]
        m = compute_metrics(np.array(y), np.array(p), 0.5)
        self.quality = {"f1": m.f1, "roc_auc": m.roc_auc}
        if m.roc_auc is None:
            return ["labeled nodes of the report hold a single class"]
        return []

    def _eval(self, argv, path) -> list[str]:
        result = json.loads(path.read_text())
        k = int(argv[argv.index("--k") + 1])
        mean = result["summary"]["mean"]
        self.quality = {"f1": mean["f1"], "roc_auc": mean["roc_auc"]}
        if len(result["folds"]) != k or result["n_samples"] < k:
            return [f"eval reports {len(result['folds'])} folds, expected {k}"]
        if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in self.quality.values()):
            return [f"cross-validated quality out of range: {self.quality}"]
        return []
