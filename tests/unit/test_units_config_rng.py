"""Unit tests for units, hardware config, and RNG streams."""

import pytest

from repro.common import config, units
from repro.common.errors import ConfigError
from repro.common.rng import BUFFER_DOUBLES, RngPool


class TestUnits:
    def test_data_sizes(self):
        assert units.KiB(1) == 1024
        assert units.MiB(2) == 2 * 1024**2
        assert units.GiB(1) == 1024**3

    def test_time(self):
        assert units.us(1) == 1000.0
        assert units.ms(1) == 1e6
        assert units.seconds(1) == 1e9

    def test_bandwidth_identity(self):
        # 1 GB/s is 1 byte/ns by construction.
        assert units.gbps(450) == 450.0
        assert units.tbps(1.8) == 1800.0

    def test_transfer_time(self):
        # 900 bytes over 450 GB/s -> 2 ns.
        assert units.transfer_time_ns(900, 450.0) == pytest.approx(2.0)

    def test_transfer_time_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_time_ns(100, 0.0)

    def test_cycle_conversions_roundtrip(self):
        t = units.cycles_to_ns(1800, 1.8)
        assert t == pytest.approx(1000.0)
        assert units.ns_to_cycles(t, 1.8) == pytest.approx(1800.0)

    def test_cycle_conversions_reject_bad_clock(self):
        with pytest.raises(ValueError):
            units.cycles_to_ns(1, 0)
        with pytest.raises(ValueError):
            units.ns_to_cycles(1, -1)


class TestConfig:
    def test_default_matches_paper_setup(self):
        cfg = config.dgx_h100_config()
        assert cfg.num_gpus == 8
        assert cfg.num_switches == 4
        # 40 KB per-port merge table => 320 entries of 128 B (paper IV-A).
        assert cfg.switch.merge_table_bytes() == 320 * 128 == 40 * 1024
        assert cfg.link.latency_ns == 250.0
        assert cfg.link.flit_bytes == 16

    def test_half_scale_sms(self):
        assert config.dgx_h100_config().gpu.num_sms == 66
        assert config.full_scale_config().gpu.num_sms == 132

    def test_per_gpu_bandwidth_aggregates_planes(self):
        cfg = config.dgx_h100_config()
        assert cfg.per_gpu_bandwidth_gbps() == pytest.approx(
            cfg.link.bandwidth_gbps * cfg.num_switches)

    def test_with_gpus_copies(self):
        cfg = config.dgx_h100_config()
        cfg16 = cfg.with_gpus(16)
        assert cfg16.num_gpus == 16 and cfg.num_gpus == 8

    def test_with_merge_entries(self):
        cfg = config.dgx_h100_config().with_merge_entries(8)
        assert cfg.switch.merge_table_entries == 8

    def test_rejects_too_few_gpus(self):
        with pytest.raises(ConfigError):
            config.SystemConfig(num_gpus=1)

    def test_rejects_zero_switches(self):
        with pytest.raises(ConfigError):
            config.SystemConfig(num_switches=0)

    def test_sustained_flops_positive(self):
        spec = config.GpuSpec()
        assert spec.sustained_tensor_flops_per_ns() > 0

    @pytest.mark.parametrize("spec, field", [
        (config.LinkSpec, "latency_ns"),
        (config.SwitchSpec, "hop_latency_ns"),
        (config.GpuSpec, "hbm_latency_ns"),
        (config.GpuSpec, "kernel_launch_overhead_ns"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_rejects_non_finite_or_negative_delays(self, spec, field, bad):
        """Each field becomes an event delay: a NaN latency used to run to
        ``makespan_ns = nan`` with no error."""
        with pytest.raises(ConfigError, match=f"{spec.__name__}.{field}"):
            spec(**{field: bad})
        assert getattr(spec(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0,
                                     -450.0])
    def test_rejects_bad_link_bandwidth(self, bad):
        """Zero used to divide by zero in the link and a negative rate to
        end a transmission before it started."""
        with pytest.raises(ConfigError, match="LinkSpec.bandwidth_gbps"):
            config.LinkSpec(bandwidth_gbps=bad)

    def test_bad_link_spec_fails_before_the_run(self):
        from dataclasses import replace
        cfg = config.dgx_h100_config()
        with pytest.raises(ConfigError, match="LinkSpec.latency_ns"):
            replace(cfg, link=replace(cfg.link, latency_ns=float("nan")))


class TestRng:
    def test_streams_reproducible(self):
        a = RngPool(42).stream("tb").random(5)
        b = RngPool(42).stream("tb").random(5)
        assert (a == b).all()

    def test_streams_independent_of_creation_order(self):
        p1 = RngPool(7)
        x1 = p1.stream("a").random()
        y1 = p1.stream("b").random()
        p2 = RngPool(7)
        y2 = p2.stream("b").random()
        x2 = p2.stream("a").random()
        assert x1 == x2 and y1 == y2

    def test_distinct_names_give_distinct_streams(self):
        p = RngPool(0)
        assert p.stream("a").random() != p.stream("b").random()

    def test_jitter_bounds(self):
        p = RngPool(3)
        for _ in range(200):
            f = p.jitter("j", 0.1)
            assert 0.9 <= f <= 1.1

    def test_zero_jitter_is_exactly_one(self):
        assert RngPool(1).jitter("j", 0.0) == 1.0

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngPool(-1)

    def test_buffered_jitter_equals_scalar_uniform_draws(self):
        """Buffered draws are the stream's scalar ``uniform`` sequence,
        bit for bit: across a buffer refill, and with batches (the
        analytic kernel replay's) taken from the middle of a buffer —
        one inside it, one running past its end."""
        mag = 0.05
        pool = RngPool(11)
        buf = pool.buffered("tb-jitter-0")
        got = [pool.jitter("tb-jitter-0", mag)
               for _ in range(BUFFER_DOUBLES + 3)]
        got += [1.0 + u for u in buf.uniforms(-mag, mag, 5)]
        got += [1.0 + u for u in
                buf.uniforms(-mag, mag, 2 * BUFFER_DOUBLES - 7)]
        got += [pool.jitter("tb-jitter-0", mag)
                for _ in range(BUFFER_DOUBLES + 1)]
        scalar = RngPool(11).stream("tb-jitter-0")
        want = [1.0 + float(scalar.uniform(-mag, mag))
                for _ in range(len(got))]
        assert got == want

    def test_zero_jitter_draws_nothing(self):
        pool = RngPool(5)
        assert pool.jitter("j", 0.0) == 1.0
        assert pool.jitter("j", 0.1) == \
            1.0 + float(RngPool(5).stream("j").uniform(-0.1, 0.1))
