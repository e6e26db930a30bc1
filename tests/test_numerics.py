import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spikecl.errors import ContractViolation
from spikecl.numerics import matmul, softmax_cross_entropy_batch
from spikecl.rng import RngStream
from oracles import softmax_cross_entropy


def naive_matmul(a, b):
    """Triple-loop reference, accumulation in ascending inner index order."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for kk in range(k):
                s += a[i, kk] * b[kk, j]
            out[i, j] = s
    return out


class TestMatmul:
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(np.eye(2), m), m)

    def test_annihilator(self):
        z = np.zeros((2, 3))
        assert np.array_equal(matmul(np.eye(2), z), z)

    def test_matches_triple_loop_exactly(self):
        rng = RngStream(101)
        a = rng.uniform((3, 4)) * 2 - 1
        b = rng.uniform((4, 2)) * 2 - 1
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        a = np.array([[1.0, np.inf]])
        with pytest.raises(ContractViolation):
            matmul(a, np.zeros((2, 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.integers(1, 5),
        k=st.integers(1, 20),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**32),
    )
    def test_triple_loop_property(self, m, k, n, seed):
        rng = RngStream(seed)
        a = rng.uniform((m, k)) * 4 - 2
        b = rng.uniform((k, n)) * 4 - 2
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))


# Left factors rich in exact zeros (both signs), as firing rates are.
_sparse_entries = st.one_of(
    st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0, allow_nan=False, width=64)
)


class TestMatmulZeroSkipping:
    """``matmul`` skips zero left-factor terms; the result stays bit-identical."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), k=st.integers(1, 12), n=st.integers(1, 5))
    def test_matches_triple_loop_bitwise(self, data, m, k, n):
        a = data.draw(hnp.arrays(np.float64, (m, k), elements=_sparse_entries))
        zero_col = data.draw(st.integers(-1, k - 1))
        if zero_col >= 0:
            a[:, zero_col] = data.draw(st.sampled_from([0.0, -0.0]))
        b = data.draw(hnp.arrays(np.float64, (k, n), elements=st.floats(-4.0, 4.0, width=64)))
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()

    def test_negative_zero_terms_never_make_negative_zero(self):
        # every term is -0: the sum must stay +0, as in the triple loop
        a = np.array([[-0.0, 0.0, -0.0]])
        b = np.array([[1.0], [-1.0], [2.0]])
        out = matmul(a, b)
        assert out.tobytes() == naive_matmul(a, b).tobytes()
        assert not np.signbit(out).any()

    def test_sparse_rates_bitwise(self):
        rng = RngStream(102)
        a = rng.uniform((40, 16))
        a[rng.fork("zeros").uniform((40, 16)) < 0.7] = 0.0
        a[:, 3] = 0.0
        b = rng.fork("b").uniform((16, 9)) * 2 - 1
        assert matmul(a, b).tobytes() == naive_matmul(a, b).tobytes()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        for k in (2, 3, 7):
            loss, probs = softmax_cross_entropy(np.full(k, 1.7), 0)
            assert np.allclose(probs, 1.0 / k)
            assert loss == pytest.approx(math.log(k), abs=1e-12)

    def test_saturated_logits(self):
        loss, probs = softmax_cross_entropy(np.array([1000.0, 0.0, 0.0]), 0)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert probs[0] == pytest.approx(1.0)

    def test_reference_value(self):
        # ln(1 + e^-1 + e^-2) evaluated at 60-digit precision
        loss, _ = softmax_cross_entropy(np.array([1.0, 2.0, 3.0]), 2)
        assert loss == pytest.approx(0.40760596444438030, abs=1e-14)

    def test_empty_logits(self):
        with pytest.raises(ContractViolation):
            softmax_cross_entropy(np.array([]), 0)

    def test_label_out_of_range(self):
        with pytest.raises(ContractViolation):
            softmax_cross_entropy(np.array([1.0, 2.0]), 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32), k=st.integers(1, 10))
    def test_probability_vector_property(self, seed, k):
        logits = RngStream(seed).normal((k,)) * 50
        loss, probs = softmax_cross_entropy(logits, 0)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-9
        assert loss >= 0.0

    def test_batch_matches_single(self):
        rng = RngStream(5)
        z = rng.normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        mean_loss, probs = softmax_cross_entropy_batch(z, labels)
        singles = [softmax_cross_entropy(z[i], labels[i]) for i in range(4)]
        assert mean_loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
        for i, (_, p) in enumerate(singles):
            assert np.allclose(probs[i], p)
