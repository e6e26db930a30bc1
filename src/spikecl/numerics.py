"""Deterministic dense linear algebra primitives.

A "matrix" throughout the package is a 2-D C-contiguous float64 numpy array
(row-major, dimensionless values); helpers here validate that convention.

``matmul`` accumulates each output entry strictly in ascending inner-index
order with separate IEEE multiply and add, so its result is bit-identical to
the naive triple-loop product on every platform. That exactness costs speed,
which is why it backs the paths whose results are asserted exactly (e.g.
coincidence-statistic accumulation) while the simulation hot loops use BLAS.
It skips the terms whose left factor is zero, which is exact for finite
inputs (see ``matmul``) and saves most of the work on sparse firing rates.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractViolation


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a float64 row-major matrix, validating shape and finiteness."""
    m = np.ascontiguousarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ContractViolation(f"matrix must be 2-D, got ndim={m.ndim}")
    if rows is not None and m.shape != (rows, cols):
        raise ContractViolation(f"expected shape {(rows, cols)}, got {m.shape}")
    require_finite(m, "matrix")
    return m


def require_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise ContractViolation(f"{what} contains non-finite values")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product, bit-identical to the naive triple-loop evaluation.

    For every output entry the sum over the inner dimension is accumulated
    one term at a time in ascending index order, each term a single IEEE
    multiply followed by a single add.

    Terms with ``a[i, k] == 0`` are skipped. That is exact for finite
    inputs: such a term is +0 or -0, every sum starts at +0 and so is never
    -0 (round-to-nearest gives -0 only for -0 + -0), and adding +-0 to a
    sum that is not -0 leaves it unchanged.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ContractViolation(
            f"inner dimensions differ: {a.shape} x {b.shape}"
        )
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        rows = np.flatnonzero(a[:, k])
        out[rows] += a[rows, k, None] * b[k]
    require_finite(out, "matmul result")
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Probability vector (or row-wise for 2-D input), max-subtracted.

    The max of each row is subtracted before exponentiation; this is part of
    the loss contract, making the computation stable for any finite logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy_batch(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over a batch; returns (mean loss, probs (B, K))."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] == 0:
        raise ContractViolation(f"batch logits must be (B, K), got {z.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (z.shape[0],):
        raise ContractViolation("labels shape does not match batch")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= z.shape[1]:
        raise ContractViolation("label out of range")
    require_finite(z, "logits")
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    lse = np.log(np.exp(shifted).sum(axis=1))
    losses = lse - shifted[np.arange(z.shape[0]), labels]
    probs = np.exp(shifted - lse[:, None])
    return float(losses.mean()), probs


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(logits) for a batch: (probs - onehot) / B."""
    g = probs.copy()
    g[np.arange(g.shape[0]), np.asarray(labels, dtype=np.int64)] -= 1.0
    return g / g.shape[0]
