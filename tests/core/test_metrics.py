"""Unit tests for History metadata and digest semantics."""

from repro.core.metrics import EpochMetrics, History


def _epoch(i: int) -> EpochMetrics:
    return EpochMetrics(
        epoch=i,
        train_loss=1.0 / (i + 1),
        train_accuracy=0.5 + 0.01 * i,
        test_accuracy=0.4 + 0.01 * i,
        comm_bytes=1024 * (i + 1),
        wall_seconds=0.5,
    )


class TestKernelBackendMetadata:
    def test_digest_ignores_kernel_backend(self):
        # digest equality across backends is the cross-backend
        # bit-identity check; the provenance stamp must not break it
        a = History(label="run", kernel_backend="numpy")
        b = History(label="run", kernel_backend="cext")
        for i in range(3):
            a.append(_epoch(i))
            b.append(_epoch(i))
        assert a.digest() == b.digest()

    def test_to_dict_roundtrip_preserves_backend(self):
        history = History(label="run", kernel_backend="cext")
        history.append(_epoch(0))
        record = history.to_dict()
        assert record["kernel_backend"] == "cext"
        restored = History.from_dict(record)
        assert restored.kernel_backend == "cext"
        assert restored.digest() == history.digest()

    def test_to_dict_omits_backend_when_unset(self):
        # pre-existing serialized histories have no backend field;
        # unset stays unset so old and new records stay comparable
        history = History(label="run")
        history.append(_epoch(0))
        record = history.to_dict()
        assert "kernel_backend" not in record
        assert History.from_dict(record).kernel_backend is None
