"""One error-corrected round trip through a residual store."""

import numpy as np

from repro.quantization import ErrorFeedback, Quantizer


def feed_back(
    feedback: ErrorFeedback,
    codec: Quantizer,
    key: str,
    grad: np.ndarray,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Correct ``grad`` by stream ``key``'s residual, quantize it with
    ``codec`` and absorb the error; returns the decoded image."""
    corrected = feedback.correct(key, grad)
    image = codec.decode(codec.encode(corrected, rng))
    feedback.absorb(key, corrected, image)
    return image
