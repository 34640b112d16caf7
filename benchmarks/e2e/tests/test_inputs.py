"""Inputs are a function of the seed, and of nothing else."""

import numpy as np
import pytest

import wl_fabric
import wl_serve
import wl_train


@pytest.mark.parametrize("name", list(wl_train.TRAIN))
def test_training_inputs_follow_the_seed(name):
    data_a, model_a, config_a = wl_train.make_inputs(name, 3)
    data_b, model_b, config_b = wl_train.make_inputs(name, 3)
    data_c, model_c, _ = wl_train.make_inputs(name, 4)
    assert np.array_equal(data_a.train_x, data_b.train_x)
    assert np.array_equal(data_a.train_y, data_b.train_y)
    assert config_a == config_b and config_a.seed == 3
    for p, q in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(p.data, q.data)
    assert not np.array_equal(data_a.train_x, data_c.train_x)
    assert any(
        not np.array_equal(p.data, q.data)
        for p, q in zip(model_a.parameters(), model_c.parameters())
    )
    batch = config_a.batch_size
    assert data_a.train_x.shape[0] == wl_train.STEPS_PER_EPOCH * batch


def test_serve_job_order_and_specs_follow_the_seed():
    assert wl_serve.job_order(5, 60) == wl_serve.job_order(5, 60)
    assert wl_serve.job_order(5, 60) != wl_serve.job_order(6, 60)
    assert wl_serve.job_specs(5) == wl_serve.job_specs(5)
    assert wl_serve.job_specs(5) != wl_serve.job_specs(6)
    # the seed moves the entry point, never the mix: every block of four
    # holds each spec once, in the same rotation
    for seed in range(8):
        order = wl_serve.job_order(seed, 60)
        for start in range(0, 60, 4):
            assert sorted(order[start:start + 4]) == [0, 1, 2, 3]
        assert all((b - a) % 4 == 1 for a, b in zip(order, order[1:]))
    # every spec is accepted by the daemon's own validation
    from repro.serve import JobSpec

    for spec in wl_serve.job_specs(5):
        assert JobSpec.from_dict(spec).world_size <= wl_serve.MAX_RANKS


def test_fabric_inputs_follow_the_seed():
    assert wl_fabric.make_inputs(0) == wl_fabric.make_inputs(0)
    elements, fault = wl_fabric.make_inputs(0)
    assert elements == 2_000_000 and (fault.src, fault.dst) == ("host1", "leaf0")
    assert wl_fabric.make_inputs(7) == wl_fabric.make_inputs(7)
    assert wl_fabric.make_inputs(7) != wl_fabric.make_inputs(8)
    for seed in range(1, 30):
        elements, fault = wl_fabric.make_inputs(seed)
        assert 1_900_000 <= elements <= 2_100_000
        assert fault.src != "host0" and fault.permanent


def test_pinned_fabric_cells_equal_bench_fabric_json():
    """expected.json was pinned against BENCH_fabric.json (while it exists)."""
    import json

    from conftest import E2E, REPO

    old = REPO / "BENCH_fabric.json"
    if not old.exists():
        pytest.skip("BENCH_fabric.json is gone")
    results = json.loads(old.read_text())["results"]
    cells = json.loads((E2E / "expected.json").read_text())["fabric-sweep"]["cells"]
    compared = 0
    for key, pinned in cells.items():
        if key in results:
            for field in ("makespan_seconds", "total_wire_bytes", "transfers"):
                assert pinned[field] == results[key][field], (key, field)
            compared += 1
    assert compared == 36
