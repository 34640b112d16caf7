"""Shape tests for the epoch simulator: the paper's headline findings.

These tests assert the *qualitative* results of Section 5 — who wins,
where the crossovers are — not the absolute numbers (the original
testbed is simulated; EXPERIMENTS.md reports the quantitative match).
"""

import pytest

from repro.models.specs import get_network
from repro.simulator import simulate
from repro.study.throughput import ec2_machine_for


def rate(network, scheme, exchange, world_size, machine=None):
    machine = machine or ec2_machine_for(world_size)
    return simulate(
        network, machine, scheme, exchange, world_size
    ).samples_per_second


class TestBasics:
    def test_single_gpu_matches_calibrated_rate(self):
        for name in ("AlexNet", "VGG19", "ResNet50"):
            spec = get_network(name)
            assert rate(name, "32bit", "mpi", 1) == pytest.approx(
                spec.k80_samples_per_second, rel=0.01
            )

    def test_single_gpu_identical_across_schemes(self):
        assert rate("AlexNet", "qsgd4", "mpi", 1) == rate(
            "AlexNet", "32bit", "mpi", 1
        )

    def test_nccl_at_16_gpus_rejected(self):
        with pytest.raises(ValueError):
            simulate("AlexNet", "p2.16xlarge", "32bit", "nccl", 16)

    def test_epoch_seconds_scale_with_dataset(self):
        result = simulate("AlexNet", "p2.8xlarge", "32bit", "mpi", 8)
        assert result.epoch_seconds(2_000_000) > result.epoch_seconds(
            1_000_000
        )

    def test_breakdown_sums_to_iteration(self):
        result = simulate("VGG19", "p2.8xlarge", "qsgd4", "mpi", 8)
        assert result.comm_seconds > 0
        assert result.quantize_seconds > 0
        assert result.iteration_seconds >= result.compute_seconds
        assert 0 < result.comm_fraction < 1

    def test_overlap_rule_over_the_figure_cells(self):
        # MPI double-buffers quantize against the wire: the exchange
        # hides at most the smaller term, never all of it; simulated
        # NCCL quantizes, then allreduces
        from repro.simulator import PAPER_MPI_TABLE, PAPER_NCCL_TABLE

        for exchange, table in (
            ("mpi", PAPER_MPI_TABLE), ("nccl", PAPER_NCCL_TABLE),
        ):
            for network, schemes in table.items():
                for scheme, cells in schemes.items():
                    for world_size in cells.keys() - {1}:
                        result = simulate(
                            network, ec2_machine_for(world_size),
                            scheme, exchange, world_size,
                        )
                        cell = (network, scheme, exchange, world_size)
                        comm = result.comm_seconds
                        quant = result.quantize_seconds
                        overlapped = (
                            result.iteration_seconds
                            - result.compute_seconds
                        )
                        assert overlapped == pytest.approx(
                            result.exchange_seconds
                        ), cell
                        if exchange == "nccl":
                            assert result.exchange_seconds == (
                                comm + quant
                            ), cell
                        elif comm > 0 and quant > 0:
                            assert max(comm, quant) <= overlapped, cell
                            assert overlapped < comm + quant, cell


class TestPaperFindings:
    def test_low_precision_helps_mpi_on_comm_dominated_nets(self):
        # Section 5.2: 2-4x on AlexNet/VGG over MPI at 8-16 GPUs
        for network in ("AlexNet", "VGG19"):
            speedup = rate(network, "qsgd4", "mpi", 8) / rate(
                network, "32bit", "mpi", 8
            )
            assert speedup > 2.0

    def test_low_precision_marginal_on_compute_dominated_nets(self):
        # BN-Inception gains ~1.3x at most
        speedup = rate("BN-Inception", "qsgd4", "mpi", 8) / rate(
            "BN-Inception", "32bit", "mpi", 8
        )
        assert 1.0 < speedup < 1.6

    def test_nccl_fullprec_beats_mpi_lowprec(self):
        # the paper's most surprising performance result (insight #2);
        # its own tables only support this for the FC-heavy networks
        # (e.g. AlexNet: NCCL 32bit 1138 vs best MPI quantized 1076)
        for network in ("AlexNet", "VGG19"):
            assert rate(network, "32bit", "nccl", 8) > rate(
                network, "qsgd4", "mpi", 8
            )

    def test_nccl_gains_from_quantization_are_small(self):
        # insight #2: with NCCL the improvement is almost negligible,
        # except up to ~1.4-1.5x on VGG
        for network in ("AlexNet", "ResNet50", "ResNet152",
                        "BN-Inception"):
            speedup = rate(network, "qsgd4", "nccl", 8) / rate(
                network, "32bit", "nccl", 8
            )
            assert speedup < 1.35
        vgg_speedup = rate("VGG19", "qsgd4", "nccl", 8) / rate(
            "VGG19", "32bit", "nccl", 8
        )
        assert 1.0 < vgg_speedup < 1.6

    def test_diminishing_returns_below_4_bits(self):
        # insight #3: 1-2 bit rarely beats 4-bit meaningfully
        for network in ("AlexNet", "VGG19", "ResNet50"):
            q4 = rate(network, "qsgd4", "mpi", 8)
            q2 = rate(network, "qsgd2", "mpi", 8)
            assert q2 < q4 * 1.25

    def test_stock_1bit_slower_than_fullprec_on_resnets(self):
        # the Section 3.2.2 artefact, visible in Figure 10
        for network in ("ResNet50", "ResNet152"):
            assert rate(network, "1bit", "mpi", 8) < rate(
                network, "32bit", "mpi", 8
            )

    def test_reshaped_1bit_fixes_the_artefact(self):
        for network in ("ResNet50", "ResNet152"):
            assert rate(network, "1bit*", "mpi", 8) > 1.5 * rate(
                network, "1bit", "mpi", 8
            )

    def test_alexnet_mpi_fullprec_degrades_past_4_gpus(self):
        # Figure 10, AlexNet 32bit row: 328 -> 273 -> 192
        r4 = rate("AlexNet", "32bit", "mpi", 4)
        r8 = rate("AlexNet", "32bit", "mpi", 8)
        r16 = rate("AlexNet", "32bit", "mpi", 16)
        assert r4 > r8 > r16

    def test_vgg_superlinear_scaling_at_8_gpus(self):
        # Section 5.2 "Super-Linear Scaling": NCCL VGG19 at 8 GPUs
        # exceeds 8x the single-GPU rate
        assert rate("VGG19", "32bit", "nccl", 8) > 8 * rate(
            "VGG19", "32bit", "mpi", 1
        )

    def test_16_gpus_rarely_worth_it(self):
        # insight #5: doubling 8 -> 16 GPUs rarely doubles throughput
        for network in ("AlexNet", "ResNet50", "BN-Inception",
                        "ResNet110"):
            r8 = rate(network, "32bit", "mpi", 8)
            r16 = rate(network, "32bit", "mpi", 16)
            assert r16 < 1.8 * r8

    def test_resnet110_throughput_drops_at_16_gpus(self):
        # Figure 10 ResNet110: 1229 samples/s at 8 GPUs, 832 at 16
        assert rate("ResNet110", "32bit", "mpi", 16) < rate(
            "ResNet110", "32bit", "mpi", 8
        )

    def test_dgx_mpi_still_benefits_from_quantization(self):
        # Section 5.2 "Fast Interconnect with Slow/Fast Primitives"
        speedup = rate("VGG19", "qsgd4", "mpi", 8, machine="dgx1") / rate(
            "VGG19", "32bit", "mpi", 8, machine="dgx1"
        )
        assert speedup > 2.5

    def test_dgx_nccl_caps_vgg_gains(self):
        speedup = rate("VGG19", "qsgd4", "nccl", 8, machine="dgx1") / rate(
            "VGG19", "32bit", "nccl", 8, machine="dgx1"
        )
        assert 1.0 < speedup < 1.9

    def test_dgx_faster_than_ec2_at_same_world_size(self):
        # Pascal + faster interconnect
        assert rate(
            "ResNet50", "32bit", "nccl", 8, machine="dgx1"
        ) > rate("ResNet50", "32bit", "nccl", 8, machine="p2.8xlarge")


class TestQuantitativeAgreement:
    """Coarse quantitative agreement with the published tables."""

    def test_mpi_table_mean_error_under_20_percent(self):
        from repro.study.throughput import throughput_table

        cells = [
            c for c in throughput_table("mpi") if c.paper is not None
        ]
        errors = [abs(c.relative_error) for c in cells]
        assert sum(errors) / len(errors) < 0.20

    def test_nccl_table_mean_error_under_20_percent(self):
        from repro.study.throughput import throughput_table

        cells = [
            c for c in throughput_table("nccl") if c.paper is not None
        ]
        errors = [abs(c.relative_error) for c in cells]
        assert sum(errors) / len(errors) < 0.20

    def test_scheme_ordering_matches_paper_at_8_gpus_mpi(self):
        # within each network, the simulated best scheme at 8 GPUs must
        # be within the top tier of the paper's table
        from repro.simulator import PAPER_MPI_TABLE

        for network, schemes in PAPER_MPI_TABLE.items():
            paper_at_8 = {
                s: cells[8] for s, cells in schemes.items() if 8 in cells
            }
            sim_at_8 = {
                s: rate(network, s, "mpi", 8) for s in paper_at_8
            }
            paper_best = max(paper_at_8, key=paper_at_8.get)
            sim_rank = sorted(
                sim_at_8, key=sim_at_8.get, reverse=True
            )
            assert paper_best in sim_rank[:3], network
