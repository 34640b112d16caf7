"""Error-feedback residuals telescope across skipped rounds.

With ``aggregation_frequency=N`` a biased codec's residuals are only
updated at round flushes — the accumulated micro-step gradients carry
the in-between mass.  The conservation law under test: after any
number of complete rounds, everything the ranks produced is accounted
for exactly once,

    sum(flushed means) * world * N  +  sum(final residuals)
        == sum(all micro-step gradients),

up to float32 rounding.  If a skipped round dropped gradient mass, or
a flush double-counted the residual, the two sides drift apart by the
magnitude of the lost term — far beyond rounding."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SynchronousStep, TrainingConfig
from repro.nn.module import Parameter

SHAPE = (48, 48)  # above the small-matrix passthrough threshold


def make_step(scheme, world_size, frequency, exchange="nccl"):
    rng = np.random.default_rng(0)
    params = [Parameter("W", rng.normal(size=SHAPE).astype(np.float32))]
    return SynchronousStep(
        TrainingConfig(
            scheme=scheme,
            exchange=exchange,
            world_size=world_size,
            batch_size=world_size,
            aggregation_frequency=frequency,
        ),
        params,
    )


@settings(max_examples=25, deadline=None)
@given(
    # only the biased schemes keep residuals; qsgd's quantization
    # error is unbiased noise that no state tracks
    scheme=st.sampled_from(["1bit", "1bit*"]),
    # mpi is excluded: its re-quantized broadcast keeps a *second*,
    # aggregator-side residual, so rank residuals alone don't close
    # the books.  nccl and alltoall sum the decoded uplinks exactly.
    exchange=st.sampled_from(["nccl", "alltoall"]),
    world_size=st.integers(min_value=2, max_value=4),
    frequency=st.integers(min_value=1, max_value=5),
    rounds=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_residuals_telescope_across_rounds(
    scheme, exchange, world_size, frequency, rounds, seed
):
    step = make_step(scheme, world_size, frequency, exchange)
    rng = np.random.default_rng(seed)
    total = np.zeros(SHAPE, dtype=np.float64)
    flushed = np.zeros(SHAPE, dtype=np.float64)
    for _ in range(rounds):
        for micro in range(frequency):
            grads = [
                rng.normal(size=SHAPE).astype(np.float32)
                for _ in range(world_size)
            ]
            for g in grads:
                total += g
            if step.sync_this_step:
                mean = step.aggregate("W", grads)
                flushed += np.asarray(mean, dtype=np.float64) * (
                    world_size * frequency
                )
            else:
                step.accumulate("W", grads)
            step.advance_round()
    residuals = np.zeros(SHAPE, dtype=np.float64)
    for held in step.state_dict()["ranks"].values():
        if "W" in held["residuals"]:
            residuals += held["residuals"]["W"]
    np.testing.assert_allclose(
        flushed + residuals,
        total,
        rtol=1e-4,
        atol=1e-2 * world_size * frequency * rounds,
    )


@settings(max_examples=15, deadline=None)
@given(
    frequency=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_residual_unchanged_on_skipped_micro_steps(frequency, seed):
    # residuals must only move at flushes: a skipped micro-step that
    # touched them would double-count its correction at the next flush
    step = make_step("1bit", 2, frequency)
    rng = np.random.default_rng(seed)

    def micro_grads():
        return [
            rng.normal(size=SHAPE).astype(np.float32) for _ in range(2)
        ]

    # one complete round seeds nonzero residuals and lands on a
    # round boundary (position 0)
    for _ in range(frequency - 1):
        step.accumulate("W", micro_grads())
        step.advance_round()
    step.aggregate("W", micro_grads())
    step.advance_round()
    assert step.round_position == 0
    def residuals():
        ranks = step.state_dict()["ranks"]
        return [ranks[str(r)]["residuals"]["W"] for r in range(2)]

    before = residuals()
    for _ in range(frequency - 1):
        assert not step.sync_this_step
        step.accumulate("W", micro_grads())
        step.advance_round()
    for held_before, held_after in zip(before, residuals()):
        assert np.array_equal(held_before, held_after)
