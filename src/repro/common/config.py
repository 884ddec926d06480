"""Hardware configuration for the simulated multi-GPU system.

Defaults replicate the paper's experimental setup (Section IV-A): an
NVIDIA DGX-H100-like node with 8 GPUs interconnected through 4 NVSwitch
planes, 250 ns link latency each way (~1 us round trip), a 40 KB / 320-entry
per-port Merge Table, and eight 256-deep virtual channels per input port.

Per Section IV-B the paper runs a *half-scale* configuration (50% of the SMs
with matrix dimensions halved); :func:`dgx_h100_config` follows suit by
default and :func:`full_scale_config` restores the full machine for the
Table II validation experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError


@dataclass(frozen=True)
class GpuSpec:
    """Compute-side parameters of one GPU (H100-like).

    ``tensor_flops_per_sm_cycle`` is the dense tensor-core throughput per SM
    per cycle; ``gemm_efficiency`` derates it to a sustained CUTLASS-like
    level.  ``tb_slots_per_sm`` is the thread-block occupancy used by the
    TB-granular execution model.
    """

    num_sms: int = 66                    # half-scale H100 (132 full)
    clock_ghz: float = 1.8
    tensor_flops_per_sm_cycle: float = 2048.0   # dense BF16 (no sparsity)
    gemm_efficiency: float = 0.4
    vector_flops_per_sm_cycle: float = 256.0
    tb_slots_per_sm: int = 2
    hbm_bandwidth_gbps: float = 3350.0   # bytes/ns
    hbm_latency_ns: float = 450.0
    kernel_launch_overhead_ns: float = 2000.0

    def __post_init__(self) -> None:
        _require_delay(self.hbm_latency_ns, "GpuSpec.hbm_latency_ns")
        _require_delay(self.kernel_launch_overhead_ns,
                       "GpuSpec.kernel_launch_overhead_ns")

    def sustained_tensor_flops_per_ns(self) -> float:
        """Whole-GPU sustained tensor throughput in flops per nanosecond."""
        return (self.num_sms * self.tensor_flops_per_sm_cycle *
                self.gemm_efficiency * self.clock_ghz)


@dataclass(frozen=True)
class LinkSpec:
    """One GPU<->switch NVLink connection (per direction).

    A DGX-H100 GPU has 900 GB/s of aggregate bidirectional NVLink bandwidth
    striped over 4 switch planes.  The default here is the *effective
    sustained* data bandwidth calibrated so that, at TP=8 on LLaMA-7B,
    communication time is comparable to computation time — the regime the
    paper establishes in Fig. 2 (comm overtakes compute beyond 4-8 GPUs;
    40-60% of end-to-end latency, Section II).  The spec sheet's raw
    112.5 GB/s per plane per direction, combined with the paper's own GPU
    model, would make the workload compute-bound and suppress every effect
    the paper studies; see DESIGN.md ("calibration").
    """

    bandwidth_gbps: float = 16.0         # bytes/ns, one direction, per plane
    latency_ns: float = 250.0            # propagation, one way (paper IV-A)
    flit_bytes: int = 16
    max_packet_bytes: int = 128          # intra-SM coalescing target

    def __post_init__(self) -> None:
        # Serialization time is wire bytes / bandwidth: zero divides by
        # zero, and a negative rate ends a transmission before it starts.
        _require(math.isfinite(self.bandwidth_gbps)
                 and self.bandwidth_gbps > 0.0, "LinkSpec.bandwidth_gbps",
                 self.bandwidth_gbps, "must be finite and > 0")
        _require_delay(self.latency_ns, "LinkSpec.latency_ns")


@dataclass(frozen=True)
class SwitchSpec:
    """NVSwitch parameters, including the CAIS merge-unit provisioning."""

    hop_latency_ns: float = 100.0        # internal forwarding latency
    num_vcs: int = 8
    vc_depth: int = 256
    merge_table_entries: int = 320       # 40 KB / 128 B per entry (paper IV-A)
    merge_entry_bytes: int = 128
    merge_timeout_ns: float = 50_000.0   # forward-progress timeout
    reduce_flops_per_ns: float = 1.0e3   # in-switch ALU throughput (amortized)

    def __post_init__(self) -> None:
        _require_delay(self.hop_latency_ns, "SwitchSpec.hop_latency_ns")

    def merge_table_bytes(self) -> int:
        """Merge table capacity per port, in bytes."""
        return self.merge_table_entries * self.merge_entry_bytes


@dataclass(frozen=True)
class JitterSpec:
    """Execution-variability model (paper Section III-B motivation, [18]).

    ``tb_jitter`` is a multiplicative per-TB compute-time perturbation.
    ``gpu_skew_ns`` is a per-GPU constant start-time offset drawn uniformly
    in ``[0, gpu_skew_ns]``.  ``dispatch_shuffle_window`` locally permutes
    the TB dispatch order per GPU, modelling independent hardware TB
    schedulers — the dominant source of the ~35 us uncoordinated request
    spread the paper reports.
    """

    tb_jitter: float = 0.08
    gpu_skew_ns: float = 2_000.0
    dispatch_shuffle_window: int = 48

    def __post_init__(self) -> None:
        _require(0.0 <= self.tb_jitter < 1.0, "JitterSpec.tb_jitter",
                 self.tb_jitter, "must be in [0, 1)")
        _require(self.gpu_skew_ns >= 0.0, "JitterSpec.gpu_skew_ns",
                 self.gpu_skew_ns, "must be >= 0")
        _require(self.dispatch_shuffle_window >= 1,
                 "JitterSpec.dispatch_shuffle_window",
                 self.dispatch_shuffle_window, "must be >= 1")


def _require(ok: bool, name: str, value, constraint: str) -> None:
    """Raise :class:`ConfigError` naming the offending field."""
    if not ok:
        raise ConfigError(f"{name}={value!r} {constraint}")


def _require_delay(value: float, name: str) -> None:
    """A field that becomes an event delay: finite and >= 0 (zero is a
    legal latency)."""
    _require(math.isfinite(value) and value >= 0.0, name, value,
             "must be finite and >= 0")


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection model and the resilience knobs that answer it.

    All injection is deterministic: the timeline is derived from
    ``repro.common.rng`` streams keyed by ``fault_seed`` (mixed with the
    system seed), so the same spec on the same config always yields the
    same faults.  ``intensity`` in ``[0, 1]`` scales both the *probability*
    and the *severity* of every fault class; the per-entity random draws
    are made independently of the intensity, so the fault set at a lower
    intensity is always a subset of the set at a higher one (degradation
    curves are structurally monotone, not just monotone in expectation).

    Rates are per-entity trigger probabilities at ``intensity=1``; windowed
    faults (link-down, straggler, SM-throttle, degradation) last about
    ``fault_window_ns`` and start within ``horizon_ns`` of sim start.

    Resilience knobs: ``ack_timeout_ns`` arms per-session retransmit timers
    for ring chunks and CAIS reduction contributions, backing off
    exponentially (``backoff_base``) up to ``max_backoff_ns`` for at most
    ``max_retries`` attempts; the watchdog converts ``watchdog_strikes``
    consecutive no-progress intervals into a :class:`DeadlockError` with
    per-entity outstanding-work diagnostics.
    """

    enabled: bool = False
    intensity: float = 1.0
    fault_seed: int = 0
    horizon_ns: float = 2.0e6            # fault onsets fall in [0, horizon)
    # Link faults.
    link_degrade_rate: float = 0.35
    link_degrade_floor: float = 0.4      # surviving bandwidth fraction at 1.0
    link_down_rate: float = 0.10
    fault_window_ns: float = 150_000.0
    # Switch faults.
    plane_fail_rate: float = 0.12
    nvls_fail_rate: float = 0.25
    # GPU faults.
    gpu_straggler_rate: float = 0.25
    straggler_slowdown: float = 2.5      # compute-time multiplier at 1.0
    sm_throttle_rate: float = 0.15
    sm_throttle_floor: float = 0.5       # surviving SM-slot fraction at 1.0
    # Message faults (protected data-plane ops only; see faults/injector.py).
    msg_drop_rate: float = 0.02
    msg_corrupt_rate: float = 0.01
    # Resilience.  The base ack timeout is sized for the short path
    # (single-hop switch acks); transports with longer round trips pass a
    # timeout scale to the retransmitter — a timeout near the path's real
    # RTT triggers spurious retransmit storms that amplify the very
    # congestion that delayed the ack.
    ack_timeout_ns: float = 100_000.0
    max_retries: int = 8
    backoff_base: float = 2.0
    max_backoff_ns: float = 1.6e6
    watchdog_interval_ns: float = 1.0e6
    watchdog_strikes: int = 3

    def __post_init__(self) -> None:
        _require(0.0 <= self.intensity <= 1.0, "FaultSpec.intensity",
                 self.intensity, "must be in [0, 1]")
        _require(self.horizon_ns > 0.0, "FaultSpec.horizon_ns",
                 self.horizon_ns, "must be > 0")
        for name in ("link_degrade_rate", "link_down_rate", "plane_fail_rate",
                     "nvls_fail_rate", "gpu_straggler_rate",
                     "sm_throttle_rate", "msg_drop_rate", "msg_corrupt_rate"):
            rate = getattr(self, name)
            _require(0.0 <= rate <= 1.0, f"FaultSpec.{name}", rate,
                     "must be a probability in [0, 1]")
        for name in ("link_degrade_floor", "sm_throttle_floor"):
            floor = getattr(self, name)
            _require(0.0 < floor <= 1.0, f"FaultSpec.{name}", floor,
                     "must be in (0, 1]")
        _require(self.straggler_slowdown >= 1.0,
                 "FaultSpec.straggler_slowdown", self.straggler_slowdown,
                 "must be >= 1 (a compute-time multiplier)")
        _require(self.fault_window_ns > 0.0, "FaultSpec.fault_window_ns",
                 self.fault_window_ns, "must be > 0")
        _require(self.fault_window_ns <= self.horizon_ns,
                 "FaultSpec.fault_window_ns", self.fault_window_ns,
                 f"must not exceed horizon_ns={self.horizon_ns!r} "
                 "(fault window beyond the sim horizon)")
        _require(self.ack_timeout_ns > 0.0, "FaultSpec.ack_timeout_ns",
                 self.ack_timeout_ns, "must be > 0")
        _require(self.max_retries >= 0, "FaultSpec.max_retries",
                 self.max_retries, "must be >= 0")
        _require(self.backoff_base >= 1.0, "FaultSpec.backoff_base",
                 self.backoff_base, "must be >= 1")
        _require(self.max_backoff_ns >= self.ack_timeout_ns,
                 "FaultSpec.max_backoff_ns", self.max_backoff_ns,
                 f"must be >= ack_timeout_ns={self.ack_timeout_ns!r}")
        _require(self.watchdog_interval_ns > 0.0,
                 "FaultSpec.watchdog_interval_ns", self.watchdog_interval_ns,
                 "must be > 0")
        _require(self.watchdog_strikes >= 2, "FaultSpec.watchdog_strikes",
                 self.watchdog_strikes,
                 "must be >= 2 (one interval proves nothing)")


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of the simulated node.

    The topology is ``num_gpus`` GPUs, each connected to every one of the
    ``num_switches`` switch planes by one bidirectional link.
    """

    num_gpus: int = 8
    num_switches: int = 4
    gpu: GpuSpec = field(default_factory=GpuSpec)
    link: LinkSpec = field(default_factory=LinkSpec)
    switch: SwitchSpec = field(default_factory=SwitchSpec)
    jitter: JitterSpec = field(default_factory=JitterSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 2026
    sync_rtt_ns: float = 500.0           # TB-group sync empty-packet RTT

    def __post_init__(self) -> None:
        if self.num_gpus < 2:
            raise ConfigError(f"need at least 2 GPUs, got {self.num_gpus}")
        if self.num_switches < 1:
            raise ConfigError(
                f"need at least 1 switch, got {self.num_switches}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def per_gpu_bandwidth_gbps(self) -> float:
        """Aggregate one-direction NVLink bandwidth per GPU (all planes)."""
        return self.link.bandwidth_gbps * self.num_switches

    def with_gpus(self, num_gpus: int) -> "SystemConfig":
        """A copy of this config scaled to ``num_gpus`` GPUs."""
        return replace(self, num_gpus=num_gpus)

    def with_merge_entries(self, entries: int) -> "SystemConfig":
        """A copy with a different per-port merge-table capacity."""
        return replace(self, switch=replace(self.switch,
                                            merge_table_entries=entries))

    def with_faults(self, faults: FaultSpec) -> "SystemConfig":
        """A copy with a different fault-injection spec."""
        return replace(self, faults=faults)


def dgx_h100_config(num_gpus: int = 8, seed: int = 2026) -> SystemConfig:
    """The paper's default half-scale DGX-H100 configuration."""
    return SystemConfig(num_gpus=num_gpus, seed=seed)


def full_scale_config(num_gpus: int = 8, seed: int = 2026) -> SystemConfig:
    """Full-scale H100 (132 SMs), used by the Table II validation."""
    return SystemConfig(
        num_gpus=num_gpus,
        gpu=GpuSpec(num_sms=132),
        seed=seed,
    )
