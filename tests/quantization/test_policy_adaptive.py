"""Property tests for the adaptive bit-width policy.

The policy's contract is determinism: the assignment table is a pure
function of the ``(name, size, kind)`` inventory (plus optional
measured counters), survives a checkpoint round-trip verbatim, and is
re-derived identically when a degraded run rebuilds its step engine
from the same parameters.  These laws are what keep resumed and
rank-evicted runs bit-identical, so they are tested as properties over
arbitrary inventories rather than pinned examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.models import tiny_alexnet
from repro.quantization import (
    SCHEME_NAMES,
    AdaptiveBitWidthPolicy,
    FullPrecision,
    Qsgd,
    make_quantizer,
)
from repro.quantization.policy import (
    DEFAULT_KIND_SENSITIVITY,
    derive_assignments,
)

KINDS = st.sampled_from(sorted(DEFAULT_KIND_SENSITIVITY))

# an inventory: unique layer names with arbitrary sizes and kinds
INVENTORIES = st.dictionaries(
    keys=st.text(
        alphabet="abcdefghij._0123456789", min_size=1, max_size=12
    ),
    values=st.tuples(st.integers(0, 200_000), KINDS),
    min_size=1,
    max_size=12,
).map(
    lambda d: tuple(
        (name, size, kind) for name, (size, kind) in d.items()
    )
)


def profile_for(inventory, seed):
    """Synthetic measured counters shaped like Counters.layer_profile()."""
    rng = np.random.default_rng(seed)
    return {
        name: {
            "encode_calls": int(rng.integers(1, 50)),
            "encoded_bytes": int(rng.integers(0, 1 << 20)),
            "decode_calls": int(rng.integers(1, 50)),
            "wire_bytes": int(rng.integers(0, 1 << 24)),
        }
        for name, _, _ in inventory
    }


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(inventory=INVENTORIES, seed=st.integers(0, 99))
    def test_same_counters_same_assignment(self, inventory, seed):
        # identical inventories and identical measured counters must
        # produce identical tables, regardless of dict iteration order
        profiles = profile_for(inventory, seed)
        reversed_profiles = dict(reversed(list(profiles.items())))
        first = derive_assignments(inventory, 64, profiles=profiles)
        second = derive_assignments(
            tuple(reversed(inventory)), 64, profiles=reversed_profiles
        )
        assert first == second

    @settings(max_examples=60, deadline=None)
    @given(inventory=INVENTORIES)
    def test_assignments_are_valid_schemes(self, inventory):
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        for scheme in policy.assignments.values():
            assert scheme in SCHEME_NAMES
            make_quantizer(scheme)  # constructible

    @settings(max_examples=60, deadline=None)
    @given(inventory=INVENTORIES)
    def test_rebuilt_policy_rederives_identically(self, inventory):
        # a degraded run reconstructs its SynchronousStep (and thus its
        # policy) from the surviving ranks' identical parameter list;
        # the re-derived table must match the original exactly
        first = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        second = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        assert first.assignments == second.assignments
        assert first.threshold == second.threshold

    @settings(max_examples=40, deadline=None)
    @given(inventory=INVENTORIES, seed=st.integers(0, 99))
    def test_refit_is_pure_and_deterministic(self, inventory, seed):
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        before = dict(policy.assignments)
        profiles = profile_for(inventory, seed)
        refit_a = policy.refit(profiles)
        refit_b = policy.refit(
            dict(reversed(list(profiles.items())))
        )
        assert policy.assignments == before  # original untouched
        assert refit_a.assignments == refit_b.assignments


class TestCheckpointRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(inventory=INVENTORIES)
    def test_carried_assignments_restore_verbatim(self, inventory):
        # checkpoints persist {str: str}; restoring the carried table
        # into a freshly derived policy must reproduce the original
        # routing exactly (what checkpoint.restore() does)
        original = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        carried = {
            str(name): str(scheme)
            for name, scheme in original.assignments.items()
        }
        rebuilt = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        rebuilt.assignments = carried
        for name, size, _ in inventory:
            assert (
                rebuilt.codec_for_layer(name, size).name
                == original.codec_for_layer(name, size).name
            )

    @settings(max_examples=40, deadline=None)
    @given(inventory=INVENTORIES)
    def test_unassigned_stream_falls_back_to_size_routing(
        self, inventory
    ):
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        # a name outside the table routes by size, like the static policy
        small = policy.codec_for_layer("__unseen__", 0)
        if policy.threshold > 0:
            assert isinstance(small, FullPrecision)
        big = policy.codec_for_layer("__unseen__", 10**9)
        assert big is policy.quantizer


class TestAssignmentShape:
    def test_sensitive_kinds_keep_precision(self):
        inventory = [
            ("conv1.W", 50_000, "conv"),
            ("fc1.W", 50_000, "fc"),
            ("fc1.b", 10, "bias"),
        ]
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        assert policy.assignments["conv1.W"] == "qsgd8"
        assert policy.assignments["fc1.W"] == "terngrad"
        assert policy.assignments["fc1.b"] == "32bit"

    def test_small_fc_keeps_default_scheme(self):
        inventory = [("fc1.W", 64_000, "fc"), ("fc2.W", 2_000, "fc")]
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        assert policy.assignments["fc1.W"] == "terngrad"
        assert policy.assignments["fc2.W"] == "qsgd4"

    def test_refit_drops_precision_on_wire_hotspot(self):
        inventory = [
            ("conv1.W", 50_000, "conv"),
            ("fc1.W", 500_000, "fc"),
        ]
        policy = AdaptiveBitWidthPolicy.for_layers(
            make_quantizer("qsgd8"), inventory
        )
        profiles = {
            "conv1.W": {"wire_bytes": 10},
            "fc1.W": {"wire_bytes": 10_000_000},
        }
        refit = policy.refit(profiles)
        # the negligible sensitive layer is promoted to full precision
        assert refit.assignments["conv1.W"] == "32bit"
        # the hotspot was already ternary (fat fc) and saturates there
        assert refit.assignments["fc1.W"] == "terngrad"

    def test_decode_dispatches_on_message_scheme(self):
        inventory = [
            ("conv1.W", 50_000, "conv"),
            ("fc1.W", 50_000, "fc"),
        ]
        policy = AdaptiveBitWidthPolicy.for_layers(Qsgd(4), inventory)
        rng = np.random.default_rng(0)
        grad = rng.normal(size=256).astype(np.float32)
        for name in ("conv1.W", "fc1.W"):
            codec = policy.codec_for_layer(name, grad.size)
            message = codec.encode(grad, np.random.default_rng(1))
            # the codec routing picked is the one the wire tag names
            assert message.scheme == policy.assignments[name]
            assert codec.name == message.scheme
            decoded = codec.decode(message)
            assert decoded.shape == grad.shape
            assert np.isfinite(decoded).all()


class TestCommBoundCellBytes:
    """The adaptive policy's byte arithmetic on its comm-bound cell.

    tiny AlexNet, NCCL ring, K=4, batch 16: the adaptive policy moves
    2.98x fewer payload bytes per rank than static qsgd8, but the ring
    pads every chunk to whole 8 KiB slices, so its wire bytes fall only
    1.20x (over 18 steps: 42.47 MB vs 35.39 MB).  Both ratios are
    exact; this pins them, padding gap included, instead of quoting a
    wall-clock speedup.
    """

    CELLS = {
        # (scheme, policy): (payload bytes per rank, wire bytes per step)
        ("32bit", "static"): (289_368, 3_538_944),
        ("qsgd8", "static"): (74_700, 2_359_296),
        ("qsgd8", "adaptive"): (25_044, 1_966_080),
    }

    def test_payload_and_ring_bytes_are_pinned(self):
        data = make_image_dataset(
            num_classes=4, train_samples=16, test_samples=8,
            image_size=8, noise=0.8, seed=0,
        )
        measured = {}
        for scheme, policy in self.CELLS:
            config = TrainingConfig(
                scheme=scheme, policy=policy, exchange="nccl",
                world_size=4, batch_size=16, seed=0,
            )
            model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
            with ParallelTrainer(model, config) as trainer:
                payload = trainer.engine.per_rank_payload_nbytes
                history = trainer.fit(
                    data.train_x, data.train_y, data.test_x, data.test_y,
                    epochs=1,
                )
            measured[scheme, policy] = (payload, history.total_comm_bytes)
        assert measured == self.CELLS
