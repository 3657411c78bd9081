"""Named chaos presets: fault plan + reliability + admission + lifecycle bundles.

A chaos preset is the reliability analogue of a scenario preset: one name
selects a coherent bundle of failure processes, router reliability knobs,
admission control, and request-lifecycle policies (retry / hedge / deadline /
degraded service), so the CLI (``repro-sim fleet --chaos <name>``) and the
tests all exercise the identical configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults.plan import FaultPlanConfig
from repro.fleet.reliability import DeadlineConfig, DegradedConfig, HedgeConfig, RetryPolicy
from repro.fleet.router import AdmissionConfig, ReliabilityConfig


@dataclass(frozen=True)
class ChaosPreset:
    """One named chaos configuration.

    Attributes:
        name: Preset name (CLI ``--chaos`` argument).
        description: One-line summary for ``--help`` and docs.
        faults: The stochastic failure processes to arm.
        reliability: Router reliability feedback (``None`` = off).
        admission: Per-tenant admission control (``None`` = off).
        retry: Request retry policy (``None`` = local restarts, as before).
        hedge: Tail-latency hedging config (``None`` = off).
        deadlines: Per-tenant deadline config (``None`` = no deadlines).
        degraded: Degraded-service config (``None`` = shed means dropped).
    """

    name: str
    description: str
    faults: FaultPlanConfig
    reliability: ReliabilityConfig | None = None
    admission: AdmissionConfig | None = None
    retry: RetryPolicy | None = None
    hedge: HedgeConfig | None = None
    deadlines: DeadlineConfig | None = None
    degraded: DegradedConfig | None = None


CHAOS_PRESETS: dict[str, ChaosPreset] = {
    "machine-churn": ChaosPreset(
        name="machine-churn",
        description=(
            "Stochastic machine failures with repair (MTBF/MTTR) plus router "
            "bans and budgeted cross-cluster retries"
        ),
        faults=FaultPlanConfig(machine_mtbf_s=60.0, machine_mttr_s=10.0),
        reliability=ReliabilityConfig(),
        # Churn displaces work often; a generous budget with short backoff
        # keeps displaced requests flowing to surviving clusters instead of
        # re-queueing on the one that just lost a machine.
        retry=RetryPolicy(max_retries=6, backoff_base_s=0.1, backoff_max_s=1.0),
    ),
    "degraded-network": ChaosPreset(
        name="degraded-network",
        description=(
            "KV-transfer brown-outs and persistent stragglers, no hard "
            "failures; hedging and loose deadlines cut the straggler tail"
        ),
        faults=FaultPlanConfig(
            straggler_interval_s=180.0,
            straggler_slowdown=1.6,
            kv_degradation_interval_s=60.0,
            kv_degradation_duration_s=15.0,
            kv_degradation_factor=3.0,
        ),
        reliability=ReliabilityConfig(),
        # Stragglers and brown-outs stretch the tail without killing work:
        # hedge stuck starts onto a healthy cluster, and expire only the
        # truly wedged (deadlines far beyond any healthy completion).
        hedge=HedgeConfig(p99_multiplier=1.5, min_delay_s=1.0, max_delay_s=30.0),
        deadlines=DeadlineConfig(ttft_s=120.0, e2e_s=600.0),
        degraded=DegradedConfig(max_output_tokens=32, on_shed=True, on_ttft_deadline=False),
    ),
    "failure-storm": ChaosPreset(
        name="failure-storm",
        description=(
            "Everything at once: machine churn, rack outages, stragglers, "
            "KV brown-outs, spot revocation, bans, admission control, "
            "retries, hedging, deadlines, and degraded service"
        ),
        faults=FaultPlanConfig(
            machine_mtbf_s=45.0,
            machine_mttr_s=8.0,
            outage_interval_s=150.0,
            outage_duration_s=12.0,
            straggler_interval_s=180.0,
            straggler_slowdown=1.6,
            kv_degradation_interval_s=90.0,
            kv_degradation_duration_s=15.0,
            kv_degradation_factor=3.0,
            revocation_mtbf_s=90.0,
        ),
        reliability=ReliabilityConfig(
            window=32,
            ban_threshold=0.4,
            min_observations=12,
            cooldown_s=20.0,
            probation_requests=10,
            probation_threshold=0.4,
        ),
        admission=AdmissionConfig(
            max_outstanding=64,
            tenant_priorities={"conversation": 2},
            shed_headroom=0.5,
        ),
        # The goodput lever under a storm is serving, not dropping: a deep
        # retry budget with fast backoff re-lands displaced work, hedging
        # rescues stuck starts, degraded service converts shed traffic into
        # short answers, and deadlines stay loose enough that only requests
        # the storm has genuinely wedged expire.
        retry=RetryPolicy(max_retries=8, backoff_base_s=0.1, backoff_max_s=1.0),
        hedge=HedgeConfig(p99_multiplier=2.0, min_delay_s=2.0, max_delay_s=30.0),
        deadlines=DeadlineConfig(ttft_s=120.0, e2e_s=300.0),
        degraded=DegradedConfig(max_output_tokens=32, on_shed=True, on_ttft_deadline=False),
    ),
}


def get_chaos_preset(name: str) -> ChaosPreset:
    """Look up a chaos preset by name.

    Raises:
        KeyError: for an unknown name, listing the known presets.
    """
    try:
        return CHAOS_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(CHAOS_PRESETS))
        raise KeyError(f"unknown chaos preset {name!r}; known presets: {known}") from None
