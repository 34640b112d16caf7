"""The compare tool's verdicts and its refusal to compare unlike runs."""

import pytest

import run


def result(values_by_metric, backend="cext", nproc=2):
    runs = [
        {"end_to_end": dict(zip(values_by_metric, column))}
        for column in zip(*values_by_metric.values())
    ]
    return {
        "fingerprint": {
            "kernel_backend": backend, "nproc": nproc, "blas_threads": "1",
        },
        "workloads": {"train-codec": {"runs": runs}},
    }


def verdicts(a, b):
    return {row["metric"]: row["verdict"] for row in run.compare(a, b)}


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    a = result({"op_p50_ms": steady, "work_per_s": steady})
    # lower is better for op_p50_ms, higher for work_per_s
    faster = [v * 0.9 for v in steady]
    assert verdicts(a, result({"op_p50_ms": faster, "work_per_s": faster})) == {
        "op_p50_ms": "improved", "work_per_s": "unchanged",
    }
    slower = [v * 1.4 for v in steady]
    assert verdicts(a, result({"op_p50_ms": slower, "work_per_s": slower})) == {
        "op_p50_ms": "regressed", "work_per_s": "improved",
    }
    assert verdicts(a, a) == {"op_p50_ms": "unchanged", "work_per_s": "unchanged"}


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    noisy_a = [100.0, 160.0, 70.0, 130.0, 90.0]
    noisy_b = [105.0, 150.0, 75.0, 140.0, 95.0]
    assert verdicts(
        result({"op_p50_ms": noisy_a}), result({"op_p50_ms": noisy_b})
    ) == {"op_p50_ms": "unresolved"}
    # ... unless every run of B beats every run of A
    clear = [40.0, 50.0, 30.0, 45.0, 35.0]
    assert verdicts(
        result({"op_p50_ms": noisy_a}), result({"op_p50_ms": clear})
    ) == {"op_p50_ms": "improved"}


def test_single_runs_have_no_spread_and_use_the_bound():
    a = result({"op_p50_ms": [100.0]})
    assert verdicts(a, result({"op_p50_ms": [110.0]})) == {"op_p50_ms": "unchanged"}
    assert verdicts(a, result({"op_p50_ms": [130.0]})) == {"op_p50_ms": "regressed"}
    assert verdicts(a, result({"op_p50_ms": [70.0]})) == {"op_p50_ms": "improved"}
    assert run.compare(a, a)[0]["spread"] is None


@pytest.mark.parametrize("change", [{"backend": "numpy"}, {"nproc": 8}])
def test_unlike_environments_are_refused(change):
    a = result({"op_p50_ms": [100.0]})
    b = result({"op_p50_ms": [100.0]}, **change)
    with pytest.raises(ValueError, match="refusing to compare"):
        run.compare(a, b)
