"""Single-sample reference implementations and file helpers that only the
tests use."""

import os

import numpy as np

from spikecl.data import IDX_MAGIC_IMAGES, IDX_MAGIC_LABELS, EncoderSpec, IdxFile, serialize_idx
from spikecl.errors import ContractViolation
from spikecl.numerics import softmax_cross_entropy
from spikecl.rng import RngStream


def composite_loss(y: int, yhat_enn, yhat_inn, yhat_sim, spec) -> float:
    """L = lam*H(y, enn) + mu*(alpha*H(y, inn) + beta*H(y, sim)) for one sample.

    With ``mu == 0`` the chip-side predictions are ignored entirely (fully
    external training), so the result is exactly lam*H(y, enn).
    """
    enn = np.asarray(yhat_enn, dtype=np.float64).reshape(-1)
    loss_enn, _ = softmax_cross_entropy(enn, y)
    if spec.mu == 0.0:
        return spec.lam * loss_enn
    inn = np.asarray(yhat_inn, dtype=np.float64).reshape(-1)
    sim = np.asarray(yhat_sim, dtype=np.float64).reshape(-1)
    if inn.shape != enn.shape or sim.shape != enn.shape:
        raise ContractViolation("prediction vectors must share the class count")
    loss_inn, _ = softmax_cross_entropy(inn, y)
    loss_sim, _ = softmax_cross_entropy(sim, y)
    return spec.lam * loss_enn + spec.mu * (spec.alpha * loss_inn + spec.beta * loss_sim)


def encode(features: np.ndarray, spec: EncoderSpec, rng: RngStream | None = None) -> np.ndarray:
    """Spike train (T, n) for one sample. rate-poisson draws each step with
    probability feature * max_rate; direct-repeat thresholds at 0.5 and
    repeats (consuming no randomness)."""
    f = np.asarray(features, dtype=np.float64)
    if not np.all((f >= 0.0) & (f <= 1.0)):
        raise ContractViolation("features must lie in [0, 1]")
    if spec.kind == "direct-repeat":
        row = (f >= 0.5).astype(np.float64)
        return np.tile(row, (spec.timesteps, 1))
    if rng is None:
        raise ContractViolation("rate-poisson encoding requires an rng stream")
    return rng.bernoulli(f * spec.max_rate, (spec.timesteps, f.size))


def write_idx(path, idx: IdxFile) -> None:
    with open(path, "wb") as f:
        f.write(serialize_idx(idx))


def corpus_to_idx(xs: np.ndarray, ys: np.ndarray) -> tuple[IdxFile, IdxFile]:
    """Package a rendered (n, 784) corpus as IDX image/label files."""
    n = len(ys)
    img = IdxFile(IDX_MAGIC_IMAGES, (n, 28, 28), np.round(xs * 255.0).astype(np.uint8).ravel())
    lab = IdxFile(IDX_MAGIC_LABELS, (n,), ys.astype(np.uint8))
    return img, lab


def export_drift_csv(stream, out_dir) -> list[str]:
    """Per-day CSV dump (feature columns + label) for cross-checking."""
    paths = []
    for i, task in enumerate(stream.tasks, start=1):
        path = os.path.join(out_dir, f"drift_day{i}.csv")
        with open(path, "w") as f:
            cols = [f"f{j}" for j in range(task.train_x.shape[1])] + ["label"]
            f.write(",".join(cols) + "\n")
            for x, y in zip(task.train_x, task.train_y):
                f.write(",".join(repr(v) for v in x) + f",{int(y)}\n")
        paths.append(path)
    return paths
