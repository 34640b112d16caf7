"""Tests for the quantizer interfaces, registry, and message format."""

import numpy as np
import pytest

from repro.quantization import (
    MESSAGE_HEADER_BYTES,
    SCHEME_NAMES,
    EncodedTensor,
    EncodeWorkspace,
    FullPrecision,
    Quantizer,
    make_quantizer,
)


class TestEncodedTensor:
    def test_nbytes_includes_header(self):
        q = FullPrecision()
        message = q.encode(np.zeros(10, dtype=np.float32))
        assert message.nbytes == MESSAGE_HEADER_BYTES + 40

    def test_bits_per_element(self):
        q = FullPrecision()
        message = q.encode(np.zeros(1000, dtype=np.float32))
        assert message.bits_per_element == pytest.approx(32.0, rel=0.01)

    def test_element_count_scalar(self):
        q = FullPrecision()
        message = q.encode(np.float32(1.0).reshape(()))
        assert message.element_count == 1


class TestFullPrecision:
    def test_exact_roundtrip(self):
        q = FullPrecision()
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(13, 7)).astype(np.float32)
        np.testing.assert_array_equal(q.roundtrip(grad), grad)

    def test_no_error_feedback_needed(self):
        assert not FullPrecision().requires_error_feedback


class TestRegistry:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_all_scheme_names_constructible(self, name):
        q = make_quantizer(name)
        assert q.name == name
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(16, 8)).astype(np.float32)
        decoded = q.decode(q.encode(grad, np.random.default_rng(1)))
        assert decoded.shape == grad.shape

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            make_quantizer("qsgd-banana")

    def test_bucket_override(self):
        assert make_quantizer("qsgd4", bucket_size=99).bucket_size == 99
        assert make_quantizer("1bit*", bucket_size=17).bucket_size == 17

    def test_nominal_bits(self):
        assert make_quantizer("32bit").nominal_bits == 32
        assert make_quantizer("qsgd4").nominal_bits == 4
        assert make_quantizer("1bit").nominal_bits == 1

    def test_roundtrip_helper_equals_encode_decode(self):
        q = make_quantizer("qsgd8")
        grad = np.random.default_rng(2).normal(size=128).astype(np.float32)
        a = q.roundtrip(grad, np.random.default_rng(5))
        b = q.decode(q.encode(grad, np.random.default_rng(5)))
        np.testing.assert_array_equal(a, b)


class TestAllocatingForms:
    """``encode``/``decode`` and their workspace forms are one path."""

    def test_either_form_suffices(self):
        class Halves(Quantizer):
            name = "halves"

            def encode(self, grad, rng=None):
                halved = np.asarray(grad, dtype=np.float32) / 2
                return EncodedTensor(self.name, grad.shape, {"v": halved})

            def decode(self, message):
                return message.payload["v"] * 2

        codec = Halves()
        grad = np.arange(6, dtype=np.float32).reshape(2, 3)
        message = codec.encode_into(grad, None, EncodeWorkspace())
        out = np.ones_like(grad)
        codec.decode_into(message, out, accumulate=True)
        np.testing.assert_array_equal(out, grad + 1)
        decoder = codec.sum_decoder(grad.shape)
        decoder.add(message)
        decoder.add(message)
        np.testing.assert_array_equal(decoder.result(), 2 * grad)

    @pytest.mark.parametrize("defined", ["nothing", "encode", "decode_into"])
    def test_a_codec_missing_a_form_is_a_type_error(self, defined):
        body = {
            "encode": lambda self, grad, rng=None: None,
            "decode_into": lambda self, message, out, *a, **k: out,
        }
        with pytest.raises(TypeError, match="must define"):
            codec = type("Broken", (Quantizer,), {
                name: fn for name, fn in body.items() if name == defined
            })()
            codec.encode(np.zeros(3, np.float32))
            codec.decode(EncodedTensor("broken", (3,), {}))
