"""Tests for 1bitSGD (stock column-wise and reshaped variants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.quantization import (
    ErrorFeedback,
    OneBitSgd,
    OneBitSgdReshaped,
)
from repro.quantization.base import Quantizer

from .feedback import feed_back

FLOATS = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, width=32
)


class TestColumnWiseOneBit:
    def test_decoded_values_are_column_averages(self):
        q = OneBitSgd()
        grad = np.array(
            [[1.0, -4.0], [3.0, -2.0], [-2.0, 6.0]], dtype=np.float32
        )
        decoded = q.roundtrip(grad)
        # column 0: avg+ of {1, 3} = 2, avg- of {-2} = -2
        np.testing.assert_allclose(decoded[:, 0], [2.0, 2.0, -2.0])
        # column 1: avg+ of {6} = 6, avg- of {-4, -2} = -3
        np.testing.assert_allclose(decoded[:, 1], [-3.0, -3.0, 6.0])

    def test_sign_preserved(self):
        q = OneBitSgd()
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(37, 53)).astype(np.float32)
        decoded = q.roundtrip(grad)
        positive = grad >= 0
        assert (decoded[positive] >= 0).all()
        assert (decoded[~positive] <= 0).all()

    def test_column_mean_preserved(self):
        # avg+/avg- reconstruction preserves each column's mean exactly
        q = OneBitSgd()
        rng = np.random.default_rng(1)
        grad = rng.normal(size=(64, 9)).astype(np.float32)
        decoded = q.roundtrip(grad)
        np.testing.assert_allclose(
            decoded.mean(axis=0), grad.mean(axis=0), atol=1e-5
        )

    def test_all_positive_column(self):
        q = OneBitSgd()
        grad = np.ones((5, 1), dtype=np.float32)
        np.testing.assert_allclose(q.roundtrip(grad), 1.0)

    def test_all_negative_column(self):
        q = OneBitSgd()
        grad = -np.ones((5, 1), dtype=np.float32)
        np.testing.assert_allclose(q.roundtrip(grad), -1.0)

    def test_zero_vector(self):
        q = OneBitSgd()
        grad = np.zeros((8, 3), dtype=np.float32)
        np.testing.assert_allclose(q.roundtrip(grad), 0.0)

    def test_wire_size_matches_paper_formula(self):
        # two floats plus ceil(n/32) words per column (Section 3.2.1)
        q = OneBitSgd()
        grad = np.zeros((100, 7), dtype=np.float32)
        message = q.encode(grad)
        expected_payload = 7 * (8 + 4 * -(-100 // 32))
        assert message.nbytes == expected_payload + 20

    def test_tiny_columns_give_no_compression(self):
        # the Section 3.2.2 artefact: 3-row conv matrices quantize to
        # MORE bytes per element than full precision
        q = OneBitSgd()
        grad = np.zeros((3, 1000), dtype=np.float32)
        assert q.encode(grad).bits_per_element >= 32.0

    def test_higher_rank_tensors_flatten_to_columns(self):
        q = OneBitSgd()
        rng = np.random.default_rng(2)
        grad = rng.normal(size=(4, 3, 2, 2)).astype(np.float32)
        decoded = q.roundtrip(grad)
        assert decoded.shape == grad.shape
        matrix = grad.reshape(4, -1)
        expected = q.roundtrip(matrix).reshape(grad.shape)
        np.testing.assert_allclose(decoded, expected)

    @settings(max_examples=40, deadline=None)
    @given(
        grad=hnp.arrays(
            np.float32,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                             max_side=24),
            elements=FLOATS,
        )
    )
    def test_decoded_takes_two_values_per_column(self, grad):
        decoded = OneBitSgd().roundtrip(grad)
        for col in range(grad.shape[1]):
            assert len(np.unique(decoded[:, col])) <= 2


class TestReshapedOneBit:
    def test_bucket_size_respected(self):
        q = OneBitSgdReshaped(bucket_size=64)
        grad = np.zeros((64, 10), dtype=np.float32)
        message = q.encode(grad)
        assert message.payload["avg_pos"].shape == (10,)

    def test_invalid_bucket_rejected(self):
        with pytest.raises(ValueError):
            OneBitSgdReshaped(bucket_size=0)

    def test_padding_does_not_bias_scales(self):
        # 100 elements in buckets of 64: the tail bucket is padded with
        # 28 zeros which must not dilute avg+/avg-
        q = OneBitSgdReshaped(bucket_size=64)
        grad = np.full(100, 2.0, dtype=np.float32)
        decoded = q.roundtrip(grad)
        np.testing.assert_allclose(decoded, 2.0)

    def test_compresses_conv_shaped_matrices(self):
        # same matrix where stock 1bitSGD gives >= 32 bits/element
        q = OneBitSgdReshaped(bucket_size=64)
        grad = np.zeros((3, 1000), dtype=np.float32)
        assert q.encode(grad).bits_per_element < 3.0

    def test_roundtrip_shape_preserved(self):
        q = OneBitSgdReshaped(bucket_size=32)
        rng = np.random.default_rng(3)
        grad = rng.normal(size=(7, 11, 3)).astype(np.float32)
        assert q.roundtrip(grad).shape == grad.shape

    def test_effective_bucket_caps_at_size(self):
        q = OneBitSgdReshaped(bucket_size=8192)
        assert q.effective_bucket(100) == 100
        message = q.encode(np.ones(100, dtype=np.float32))
        assert int(message.meta["bucket_size"]) == 100

    def test_analytic_nbytes_matches_encoding(self):
        q = OneBitSgdReshaped(bucket_size=64)
        for shape in [(3, 1000), (64,), (1, 1), (50, 50)]:
            assert q.encoded_nbytes(shape) == Quantizer.encoded_nbytes(
                q, shape
            )


class TestErrorFeedback:
    def test_requires_error_feedback_flags(self):
        assert OneBitSgd().requires_error_feedback
        assert OneBitSgdReshaped().requires_error_feedback

    @pytest.mark.parametrize(
        "quantizer", [OneBitSgd(), OneBitSgdReshaped(bucket_size=16)]
    )
    def test_telescoping_identity(self, quantizer):
        # sum of decoded == sum of gradients - final residual, exactly
        feedback = ErrorFeedback()
        rng = np.random.default_rng(4)
        total_grad = np.zeros((16, 8), dtype=np.float64)
        total_decoded = np.zeros((16, 8), dtype=np.float64)
        for _ in range(30):
            grad = rng.normal(size=(16, 8)).astype(np.float32)
            total_grad += grad
            total_decoded += feed_back(feedback, quantizer, "w", grad)
        residual = feedback.residuals["w"]
        np.testing.assert_allclose(
            total_grad - total_decoded, residual, atol=1e-3
        )

    def test_residual_bounded(self):
        # with error feedback the residual must not blow up
        codec = OneBitSgdReshaped(bucket_size=16)
        feedback = ErrorFeedback()
        rng = np.random.default_rng(5)
        norms = []
        for _ in range(100):
            grad = rng.normal(size=128).astype(np.float32)
            feed_back(feedback, codec, "w", grad)
            norms.append(float(np.linalg.norm(feedback.residuals["w"])))
        assert norms[-1] < 10 * np.sqrt(128)

    def test_reset_clears_state(self):
        feedback = ErrorFeedback()
        feed_back(feedback, OneBitSgd(), "w", np.ones((4, 4), dtype=np.float32))
        feedback.reset()
        assert not feedback.residuals
        np.testing.assert_array_equal(
            feedback.residual("w", np.ones((4, 4), np.float32)), 0.0
        )

    def test_streams_are_independent(self):
        feedback = ErrorFeedback()
        grad = np.ones(8, dtype=np.float32) * 3
        feed_back(feedback, OneBitSgdReshaped(bucket_size=4), "a", grad)
        np.testing.assert_array_equal(feedback.residual("b", grad), 0.0)
