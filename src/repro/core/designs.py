"""Cluster designs evaluated in the paper (Table V).

Two baselines and four Splitwise variants are studied.  The naming follows
the paper: the first letter is the prompt-pool machine type, the second the
token-pool machine type ("A" = DGX-A100, "H" = DGX-H100, "Hcap" =
power-capped DGX-H100).

=================  ===================  ====================
Design             Prompt machines      Token machines
=================  ===================  ====================
Baseline-A100      DGX-A100 (mixed batching on every machine)
Baseline-H100      DGX-H100 (mixed batching on every machine)
Splitwise-AA       DGX-A100             DGX-A100
Splitwise-HH       DGX-H100             DGX-H100
Splitwise-HHcap    DGX-H100             DGX-H100 @ 50% GPU power cap
Splitwise-HA       DGX-H100             DGX-A100
=================  ===================  ====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hardware.machine import DGX_A100, DGX_H100, DGX_H100_CAPPED, MachineSpec


@dataclass(frozen=True)
class ClusterDesign:
    """A sized cluster configuration.

    Attributes:
        name: Design family name, e.g. ``"Splitwise-HA"``.
        prompt_machine: Machine spec used for the prompt pool (or for every
            machine in a baseline design).
        token_machine: Machine spec used for the token pool.
        num_prompt: Number of prompt-pool machines (or total machines for a
            baseline design).
        num_token: Number of token-pool machines (0 for baseline designs).
        split: Whether the design separates prompt and token pools
            (Splitwise) or runs mixed batching everywhere (baseline).
    """

    name: str
    prompt_machine: MachineSpec
    token_machine: MachineSpec
    num_prompt: int
    num_token: int
    split: bool = True

    def __post_init__(self) -> None:
        if self.num_prompt < 0 or self.num_token < 0:
            raise ValueError("machine counts must be non-negative")
        if self.num_prompt + self.num_token == 0:
            raise ValueError("a cluster design needs at least one machine")
        if not self.split and self.num_token != 0:
            raise ValueError("baseline (non-split) designs must place all machines in num_prompt")

    # -- aggregates -----------------------------------------------------------------

    @property
    def num_machines(self) -> int:
        """Total number of machines in the cluster."""
        return self.num_prompt + self.num_token

    @property
    def cost_per_hour(self) -> float:
        """Total cluster rental cost in $/hr."""
        return self.num_prompt * self.prompt_machine.cost_per_hour + self.num_token * self.token_machine.cost_per_hour

    @property
    def provisioned_power_kw(self) -> float:
        """Total provisioned (peak) power in kW."""
        watts = (
            self.num_prompt * self.prompt_machine.provisioned_power_watts
            + self.num_token * self.token_machine.provisioned_power_watts
        )
        return watts / 1e3

    @property
    def label(self) -> str:
        """Human-readable label in the paper's style, e.g. ``"Splitwise-HH (25P, 15T)"``."""
        if not self.split:
            return f"{self.name} ({self.num_prompt}P/T)"
        return f"{self.name} ({self.num_prompt}P, {self.num_token}T)"

    # -- derivation ------------------------------------------------------------------


# -- factories -------------------------------------------------------------------------


def baseline_a100(num_machines: int) -> ClusterDesign:
    """Baseline-A100: DGX-A100 machines with mixed continuous batching."""
    return ClusterDesign(
        name="Baseline-A100",
        prompt_machine=DGX_A100,
        token_machine=DGX_A100,
        num_prompt=num_machines,
        num_token=0,
        split=False,
    )


def baseline_h100(num_machines: int) -> ClusterDesign:
    """Baseline-H100: DGX-H100 machines with mixed continuous batching."""
    return ClusterDesign(
        name="Baseline-H100",
        prompt_machine=DGX_H100,
        token_machine=DGX_H100,
        num_prompt=num_machines,
        num_token=0,
        split=False,
    )


def splitwise_aa(num_prompt: int, num_token: int) -> ClusterDesign:
    """Splitwise-AA: DGX-A100 prompt pool and DGX-A100 token pool."""
    return ClusterDesign(
        name="Splitwise-AA",
        prompt_machine=DGX_A100,
        token_machine=DGX_A100,
        num_prompt=num_prompt,
        num_token=num_token,
    )


def splitwise_hh(num_prompt: int, num_token: int) -> ClusterDesign:
    """Splitwise-HH: DGX-H100 prompt pool and DGX-H100 token pool."""
    return ClusterDesign(
        name="Splitwise-HH",
        prompt_machine=DGX_H100,
        token_machine=DGX_H100,
        num_prompt=num_prompt,
        num_token=num_token,
    )


def splitwise_hhcap(num_prompt: int, num_token: int) -> ClusterDesign:
    """Splitwise-HHcap: DGX-H100 prompts, power-capped DGX-H100 tokens."""
    return ClusterDesign(
        name="Splitwise-HHcap",
        prompt_machine=DGX_H100,
        token_machine=DGX_H100_CAPPED,
        num_prompt=num_prompt,
        num_token=num_token,
    )


def splitwise_ha(num_prompt: int, num_token: int) -> ClusterDesign:
    """Splitwise-HA: DGX-H100 prompt pool and DGX-A100 token pool."""
    return ClusterDesign(
        name="Splitwise-HA",
        prompt_machine=DGX_H100,
        token_machine=DGX_A100,
        num_prompt=num_prompt,
        num_token=num_token,
    )


#: Design family name -> factory, in the order the CLI lists them.
_FAMILIES: dict[str, Callable[..., ClusterDesign]] = {
    "Baseline-A100": baseline_a100,
    "Baseline-H100": baseline_h100,
    "Splitwise-AA": splitwise_aa,
    "Splitwise-HH": splitwise_hh,
    "Splitwise-HA": splitwise_ha,
    "Splitwise-HHcap": splitwise_hhcap,
}

#: The family names :func:`get_design_family` and :func:`build_design` accept.
DESIGN_FAMILIES = tuple(_FAMILIES)

_BY_KEY = {name.upper(): factory for name, factory in _FAMILIES.items()}


def get_design_family(name: str) -> Callable[..., ClusterDesign]:
    """Look up a design factory by family name (case-insensitive).

    Baseline factories take ``(num_machines)``; Splitwise factories take
    ``(num_prompt, num_token)``.

    Raises:
        KeyError: if the family is unknown.
    """
    factory = _BY_KEY.get(name.upper())
    if factory is None:
        known = ", ".join(DESIGN_FAMILIES)
        raise KeyError(f"Unknown design family {name!r}; known families: {known}")
    return factory


def build_design(family: str, num_prompt: int, num_token: int = 0) -> ClusterDesign:
    """Size a design family by name (case-insensitive).

    A Splitwise family gets its prompt and token pools as given; a baseline
    runs mixed batching on one pool of ``num_prompt + num_token`` machines.

    Raises:
        KeyError: if the family is unknown.
    """
    factory = get_design_family(family)
    if factory in (baseline_a100, baseline_h100):
        return factory(num_prompt + num_token)
    return factory(num_prompt, num_token)
