"""Single-sample reference implementations shared by several test files."""

import numpy as np

from spikecl.errors import ContractViolation
from spikecl.numerics import softmax_cross_entropy


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
