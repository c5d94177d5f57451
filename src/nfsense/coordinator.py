"""User-registration state machine.

Admission enforces the near-field separation guarantees: a candidate joins
only if every admitted user (candidate included) keeps a variation-to-
interference ratio of at least beta at its own UE, and the resulting count
stays within the exact capacity bound for the occupied radius.  The motion
types and each one's low-pass cut-off come from ``sra.SRA_BY_MOTION``: a
user declares one of its keys and is recorded with that setting's f_cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import kvtext
from .capacity import CapacityQuery, n_max_exact
from .geometry import Mover, Point2D, RadioConfig, vir
from .sra import SRA_BY_MOTION
from .traffic import KINDS

MOTION_TYPES = tuple(SRA_BY_MOTION)


@dataclass(frozen=True)
class Registration:
    user_id: str
    position: Point2D
    motion_type: str = MOTION_TYPES[0]
    strategy: str = "ul_csi"

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("user_id must be non-empty")
        if self.motion_type not in MOTION_TYPES:
            raise ValueError(f"motion_type must be one of {MOTION_TYPES}, got {self.motion_type!r}")
        if self.strategy not in KINDS:
            raise ValueError(f"strategy must be one of {KINDS}, got {self.strategy!r}")


@dataclass(frozen=True)
class Decision:
    admitted: bool
    reason: str = ""
    f_cut_hz: float = 0.0


@dataclass
class Registry:
    """Admitted users plus the geometry/threshold they were admitted under."""

    ap: Point2D
    cfg: RadioConfig
    beta: float
    delta_r: float = 0.1
    members: dict[str, Registration] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if not (self.delta_r > 0):
            raise ValueError(f"delta_r must be > 0, got {self.delta_r}")

    def _ue_of(self, position: Point2D) -> Point2D:
        """UE placed delta_r past the subject on the ray from the AP."""
        d = self.ap.distance(position)
        ux = (position.x - self.ap.x) / d
        uy = (position.y - self.ap.y) / d
        return Point2D(position.x + self.delta_r * ux, position.y + self.delta_r * uy)

    def _virs(self, population: list[Registration]):
        """(registration, its VIR against every other user id), in population order.

        Each Mover is built once per call, and a UE only when its VIR is asked for.
        """
        movers = [Mover(reg.position, 1.0) for reg in population]
        for reg, mover in zip(population, movers):
            yield reg, vir(self.cfg, self.ap, self._ue_of(reg.position), mover,
                           [m for o, m in zip(population, movers) if o.user_id != reg.user_id])

    def pairwise_feasible(self, candidate: Registration) -> str:
        """Why some member (or the candidate) fails its VIR with the candidate added, or ""."""
        population = list(self.members.values()) + [candidate]
        for reg, ratio in self._virs(population):
            if ratio < self.beta:
                return (f"pairwise VIR: user {reg.user_id!r} would see VIR "
                        f"{ratio:.3g} < beta {self.beta:.3g}")
        return ""

    def capacity_limit(self, candidate: Registration) -> int:
        """Exact radial-layout bound at the farthest occupied radius."""
        radius = max(self.ap.distance(reg.position)
                     for reg in list(self.members.values()) + [candidate])
        if radius <= self.delta_r:
            return 0
        q = CapacityQuery(r=radius, delta_r=self.delta_r, beta=self.beta, cfg=self.cfg)
        return n_max_exact(q)

    def register(self, reg: Registration) -> Decision:
        """Admit or reject a candidate; the registry mutates only on admission."""
        if reg.user_id in self.members:
            raise ValueError(f"duplicate user_id {reg.user_id!r}")
        d = self.ap.distance(reg.position)
        if d <= 0:
            raise ValueError("candidate position coincides with the AP")
        why = self.pairwise_feasible(reg)
        if why:
            return Decision(admitted=False, reason=why)
        limit = self.capacity_limit(reg)
        count_after = len(self.members) + 1
        # The radial-layout bound only constrains populations of >= 3.
        if count_after >= 3 and count_after > limit:
            return Decision(admitted=False, reason=f"capacity: {count_after} users exceed "
                                                   f"N_max={limit} at radius {d:.3g} m")
        self.members[reg.user_id] = reg
        return Decision(admitted=True, f_cut_hz=SRA_BY_MOTION[reg.motion_type].f_cut)

    def deregister(self, user_id: str) -> None:
        if user_id not in self.members:
            raise KeyError(f"unknown user_id {user_id!r}")
        del self.members[user_id]

    def min_pairwise_vir(self) -> float:
        """Worst VIR over admitted members (inf when fewer than one member)."""
        return min((ratio for _, ratio in self._virs(list(self.members.values()))),
                   default=math.inf)

    def dump_csv(self, path) -> None:
        kvtext.write_csv(path, ("user_id", "x_m", "y_m", "motion_type", "strategy", "f_cut_hz"),
                         ((reg.user_id, f"{reg.position.x:.6f}", f"{reg.position.y:.6f}",
                           reg.motion_type, reg.strategy,
                           f"{SRA_BY_MOTION[reg.motion_type].f_cut:.1f}")
                          for reg in self.members.values()))
