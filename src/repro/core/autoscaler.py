"""Dynamic pool autoscaling: machine re-purposing driven by load signals.

The paper's cluster-level scheduler already moves machines into the mixed
pool *reactively*, when a request cannot be routed anywhere healthy.  The
:class:`PoolAutoscaler` adds the *proactive* loop the paper describes for
time-varying traffic (§IV-A): a recurring engine event samples queue depth,
KV headroom, and pool utilization, and — with hysteresis, so transient blips
don't thrash machines — re-purposes machines between the prompt and token
pools, or parks idle machines entirely, converting trough capacity into
saved machine-hours.  The shape of the loop (boot/retire workers off queued
pressure, drain before retiring) follows the classic cloud-scheduler
pattern.

All placement mechanics reuse the scheduler's mixed-pool machinery
(:meth:`~repro.core.cluster_scheduler.ClusterScheduler.retarget_home` drains
a busy machine through the mixed pool before it lands in its new home;
:meth:`~repro.core.cluster_scheduler.ClusterScheduler.park_machine` only
accepts fully drained machines), so no request is ever lost or double-owned
across a re-purpose.  Every action is recorded in a timeline for analysis.

Determinism: decisions read only machine queue counters (which are exact
under decode fast-forwarding) and pick machines by load with lexicographic
tie-breaks, so an autoscaled simulation remains bit-identical across runs
and across fast-forward on/off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cluster_scheduler import ClusterScheduler, total_queue_load
from repro.core.machine import MachineRole, SimulatedMachine
from repro.simulation.engine import RecurringTask, SimulationEngine
from repro.simulation.events import AUTOSCALER_TICK_PRIORITY


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs for the pool autoscaler.

    Attributes:
        interval_s: Seconds of simulated time between control ticks.
        prompt_high_tokens: Mean pending prompt tokens per prompt machine
            above which the prompt pool is considered pressured.
        prompt_low_tokens: Mean pending prompt tokens per prompt machine
            below which the prompt pool is considered idle.
        decode_high_tokens: Mean pending decode tokens per token machine
            above which the token pool is considered pressured.
        decode_low_tokens: Mean pending decode tokens per token machine
            below which the token pool is considered idle.
        min_headroom_fraction: Minimum KV headroom on the tightest token
            machine; less than this pressures the token pool regardless of
            queue depth.
        hysteresis_ticks: Consecutive pressured (or idle) ticks required
            before the autoscaler acts — the anti-thrashing guard.
        cooldown_s: Minimum simulated time between two autoscaler actions.
        min_prompt_machines: Prompt-home machines the autoscaler must leave
            routable (never re-purposed away or parked below this).
        min_token_machines: Token-home machines the autoscaler must leave
            routable.
        park_idle_machines: Whether fully drained machines may be parked
            (withdrawn from routing) when their pool is idle.
    """

    interval_s: float = 5.0
    prompt_high_tokens: float = 2048.0
    prompt_low_tokens: float = 128.0
    decode_high_tokens: float = 8192.0
    decode_low_tokens: float = 512.0
    min_headroom_fraction: float = 0.10
    hysteresis_ticks: int = 2
    cooldown_s: float = 10.0
    min_prompt_machines: int = 1
    min_token_machines: int = 1
    park_idle_machines: bool = True

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if self.hysteresis_ticks < 1:
            raise ValueError(f"hysteresis_ticks must be >= 1, got {self.hysteresis_ticks}")
        if self.min_prompt_machines < 1 or self.min_token_machines < 1:
            raise ValueError("minimum pool sizes must be >= 1")


@dataclass(frozen=True)
class RepurposeEvent:
    """One autoscaler action, recorded in the re-purposing timeline.

    Attributes:
        time_s: Simulated time of the action.
        machine: Machine acted on.
        action: ``"repurpose"``, ``"park"``, or ``"unpark"``.
        from_pool: Home pool (or ``"parked"``) before the action.
        to_pool: Home pool (or ``"parked"``) after the action.
        reason: Signal that triggered the action.
    """

    time_s: float
    machine: str
    action: str
    from_pool: str
    to_pool: str
    reason: str


@dataclass
class _PoolSignal:
    """Hysteresis state for one pool kind."""

    high_streak: int = 0
    low_streak: int = 0

    def update(self, high: bool, low: bool) -> None:
        self.high_streak = self.high_streak + 1 if high else 0
        self.low_streak = self.low_streak + 1 if low else 0


class PoolAutoscaler:
    """Recurring control loop that re-purposes and parks cluster machines.

    Attach to a running simulation with :meth:`attach` (done by
    :class:`~repro.core.cluster.ClusterSimulation` when constructed with an
    ``autoscaler=``).  After the run, :attr:`timeline` holds every action and
    :meth:`machine_hours_saved` / :meth:`active_machine_hours` quantify the
    capacity the autoscaler released versus static provisioning.
    """

    def __init__(self, config: AutoscalerConfig | None = None) -> None:
        self.config = config or AutoscalerConfig()
        self.timeline: list[RepurposeEvent] = []
        self.ticks = 0
        self._engine: SimulationEngine | None = None
        self._scheduler: ClusterScheduler | None = None
        self._task: RecurringTask | None = None
        self._signals = {"prompt": _PoolSignal(), "token": _PoolSignal()}
        self._last_action_time = float("-inf")
        #: machine name -> accumulated parked seconds (closed intervals).
        self._parked_seconds: dict[str, float] = {}
        #: machine name -> park start time of the currently open interval.
        self._park_started: dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------------------

    def attach(self, engine: SimulationEngine, scheduler: ClusterScheduler) -> None:
        """Start the control loop on ``engine``, managing ``scheduler``'s pools.

        Raises:
            RuntimeError: if already attached, or the cluster is not split
                (baseline clusters have a single mixed pool — nothing to
                re-purpose between).
        """
        if self._task is not None:
            raise RuntimeError("autoscaler is already attached to a simulation")
        if not scheduler.split:
            raise RuntimeError("the pool autoscaler requires a split (Splitwise) cluster")
        self._engine = engine
        self._scheduler = scheduler
        scheduler.on_machine_failed = self._handle_machine_failed
        self._task = engine.schedule_recurring(
            self.config.interval_s, self._tick, priority=AUTOSCALER_TICK_PRIORITY, tag="autoscaler"
        )

    def _handle_machine_failed(self, machine: SimulatedMachine) -> None:
        """Stop crediting a parked machine's saved hours once it fails.

        A dead machine is "off" in the static baseline too; leaving its park
        interval open would bill its remaining lifetime as autoscaler
        savings.
        """
        self._note_unparked(machine.name, self._engine.now)

    def finalize(self, end_time_s: float) -> None:
        """Close open park intervals at the end of the simulated window."""
        if self._task is not None:
            self._task.cancel()
        for name, started in list(self._park_started.items()):
            self._parked_seconds[name] = self._parked_seconds.get(name, 0.0) + (end_time_s - started)
            del self._park_started[name]

    # -- reporting ---------------------------------------------------------------------

    def machine_hours_saved(self) -> float:
        """Machine-hours released by parking, versus static provisioning.

        Only closed intervals count; call :meth:`finalize` (done by the
        cluster simulation) before reading.
        """
        return sum(self._parked_seconds.values()) / 3600.0

    def active_machine_hours(self, duration_s: float, num_machines: int) -> float:
        """Machine-hours actually consumed over a ``duration_s`` window."""
        return num_machines * duration_s / 3600.0 - self.machine_hours_saved()

    def repurpose_count(self) -> int:
        """Number of home-pool re-targets performed."""
        return sum(1 for event in self.timeline if event.action == "repurpose")

    def timeline_as_dicts(self) -> list[dict]:
        """JSON-friendly copy of the re-purposing timeline."""
        return [
            {
                "time_s": round(event.time_s, 3),
                "machine": event.machine,
                "action": event.action,
                "from": event.from_pool,
                "to": event.to_pool,
                "reason": event.reason,
            }
            for event in self.timeline
        ]

    # -- control loop ------------------------------------------------------------------

    def _tick(self) -> None:
        engine = self._engine
        scheduler = self._scheduler
        self.ticks += 1
        if engine.pending_events == 0:
            # The cluster is fully drained and no arrivals remain: the tick
            # would otherwise keep the event queue alive forever.
            self._task.cancel()
            return

        prompt_machines = self._home_machines(MachineRole.PROMPT)
        token_machines = self._home_machines(MachineRole.TOKEN)

        prompt_load = (
            sum(m.pending_prompt_tokens for m in prompt_machines) / len(prompt_machines)
            if prompt_machines
            else float("inf")
        )
        if token_machines:
            token_load = sum(m.pending_decode_tokens for m in token_machines) / len(token_machines)
            min_headroom = min(m.memory_headroom_fraction for m in token_machines)
        else:
            token_load = float("inf")
            min_headroom = 0.0

        cfg = self.config
        self._signals["prompt"].update(
            high=prompt_load > cfg.prompt_high_tokens, low=prompt_load < cfg.prompt_low_tokens
        )
        self._signals["token"].update(
            high=token_load > cfg.decode_high_tokens or min_headroom < cfg.min_headroom_fraction,
            low=token_load < cfg.decode_low_tokens and min_headroom > cfg.min_headroom_fraction,
        )

        if engine.now - self._last_action_time < cfg.cooldown_s:
            return
        h = cfg.hysteresis_ticks
        prompt_signal = self._signals["prompt"]
        token_signal = self._signals["token"]
        # One action per tick: relieve pressure first, then harvest idleness.
        if prompt_signal.high_streak >= h:
            acted = self._scale_up(MachineRole.PROMPT, reason=f"prompt queue {prompt_load:.0f} tok/machine")
        elif token_signal.high_streak >= h:
            acted = self._scale_up(
                MachineRole.TOKEN,
                reason=f"decode queue {token_load:.0f} tok/machine, headroom {min_headroom:.2f}",
            )
        elif cfg.park_idle_machines and prompt_signal.low_streak >= h and token_signal.high_streak == 0:
            acted = self._scale_down(MachineRole.PROMPT, reason="prompt pool idle")
        elif cfg.park_idle_machines and token_signal.low_streak >= h and prompt_signal.high_streak == 0:
            acted = self._scale_down(MachineRole.TOKEN, reason="token pool idle")
        else:
            acted = False
        if acted:
            self._last_action_time = engine.now
            self._signals["prompt"] = _PoolSignal()
            self._signals["token"] = _PoolSignal()

    def _home_machines(self, role: MachineRole) -> list[SimulatedMachine]:
        """Routable machines counted toward ``role`` (home view, mixed included)."""
        scheduler = self._scheduler
        home_pool = scheduler.prompt_pool if role is MachineRole.PROMPT else scheduler.token_pool
        machines = [m for m in home_pool if m.home_role is role]
        machines.extend(m for m in scheduler.mixed_pool if m.home_role is role)
        return machines

    def _scale_up(self, role: MachineRole, reason: str) -> bool:
        """Add capacity to ``role``: unpark first, then borrow from the other pool."""
        scheduler = self._scheduler
        now = self._engine.now
        # Cheapest capacity: a parked machine (prefer one already homed right).
        parked = sorted(scheduler.parked_pool, key=lambda m: (m.home_role is not role, m.name))
        if parked:
            machine = parked[0]
            previous_home = machine.home_role.value
            if machine.home_role is not role:
                scheduler.retarget_home(machine, role)
            scheduler.unpark_machine(machine)
            self._note_unparked(machine.name, now)
            self.timeline.append(
                RepurposeEvent(now, machine.name, "unpark", "parked", machine.home_role.value, reason)
            )
            if previous_home != machine.home_role.value:
                self.timeline.append(
                    RepurposeEvent(
                        now, machine.name, "repurpose", previous_home, machine.home_role.value, reason
                    )
                )
            return True
        # Borrow from the opposite pool, respecting its routable minimum.
        other = MachineRole.TOKEN if role is MachineRole.PROMPT else MachineRole.PROMPT
        floor = (
            self.config.min_token_machines if other is MachineRole.TOKEN else self.config.min_prompt_machines
        )
        if scheduler.count_home_machines(other) <= floor:
            return False
        other_pool = scheduler.token_pool if other is MachineRole.TOKEN else scheduler.prompt_pool
        donor = other_pool.least_loaded(total_queue_load)
        if donor is None:
            return False
        scheduler.retarget_home(donor, role)
        self.timeline.append(
            RepurposeEvent(now, donor.name, "repurpose", other.value, role.value, reason)
        )
        return True

    def _scale_down(self, role: MachineRole, reason: str) -> bool:
        """Park one fully idle ``role`` machine, respecting the routable minimum."""
        scheduler = self._scheduler
        floor = (
            self.config.min_prompt_machines if role is MachineRole.PROMPT else self.config.min_token_machines
        )
        if scheduler.count_home_machines(role) <= floor:
            return False
        pool = scheduler.prompt_pool if role is MachineRole.PROMPT else scheduler.token_pool
        candidates = [
            m
            for m in pool
            if m.home_role is role and not m.is_busy and not m.has_prompt_work() and not m.has_token_work()
        ]
        if not candidates:
            return False
        machine = min(candidates, key=lambda m: m.name)
        scheduler.park_machine(machine)
        now = self._engine.now
        self._park_started[machine.name] = now
        self.timeline.append(RepurposeEvent(now, machine.name, "park", role.value, "parked", reason))
        return True

    def _note_unparked(self, name: str, now: float) -> None:
        started = self._park_started.pop(name, None)
        if started is not None:
            self._parked_seconds[name] = self._parked_seconds.get(name, 0.0) + (now - started)
