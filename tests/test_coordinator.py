"""Registration state-machine tests: admission, rejection, invariants."""

import math

import numpy as np
import pytest

from nfsense.coordinator import MOTION_TYPES, Decision, Registration, Registry
from nfsense.capacity import CapacityQuery
from nfsense.geometry import Mover, Point2D, RadioConfig, vir
from nfsense.scene import MOTION_KINDS
from nfsense.sra import SRA_BY_MOTION
from nfsense.traffic import KINDS

import capacity_reference


def new_registry(beta=50.0, delta_r=0.15):
    return Registry(ap=Point2D(0.0, 0.0), cfg=RadioConfig(), beta=beta,
                    delta_r=delta_r)


def reg(user_id, x, y, motion="respiration", strategy="ul_csi"):
    return Registration(user_id=user_id, position=Point2D(x, y),
                        motion_type=motion, strategy=strategy)


FIG6_POSITIONS = [(1.41, 0.0), (0.0, 1.41), (-1.41, 0.0), (0.0, -1.41)]


class TestRegister:
    def test_first_user_admitted(self):
        registry = new_registry()
        decision = registry.register(reg("u0", 1.41, 0.0))
        assert decision.admitted
        assert decision.f_cut_hz == 1.0

    def test_f_cut_follows_motion_type(self):
        # the cut-offs the sensing pipeline filters each motion type with
        assert {m: cfg.f_cut for m, cfg in SRA_BY_MOTION.items()} == \
            {"respiration": 1.0, "gesture": 20.0, "activity": 20.0}
        registry = new_registry()
        for motion, (x, y) in zip(MOTION_TYPES, FIG6_POSITIONS):
            assert registry.register(reg(motion, x, y, motion)).f_cut_hz == \
                SRA_BY_MOTION[motion].f_cut

    def test_motion_types_are_the_table_keys(self):
        # one vocabulary: every scene motion kind but "still" has a pipeline setting
        assert set(SRA_BY_MOTION) == set(MOTION_KINDS) - {"still"}
        assert MOTION_TYPES == tuple(SRA_BY_MOTION) == ("respiration", "gesture", "activity")

    def test_unlisted_intensity_counts_as_one(self):
        listed = Registry(ap=Point2D(0.0, 0.0), cfg=RadioConfig(), beta=50.0, delta_r=0.15,
                          intensities=dict.fromkeys(MOTION_TYPES, 1.0))
        default = new_registry()
        assert default.intensities == {}
        for i, (x, y) in enumerate(FIG6_POSITIONS):
            cand = reg(f"u{i}", x, y, MOTION_TYPES[i % len(MOTION_TYPES)])
            assert default.register(cand) == listed.register(cand)
        assert default.min_pairwise_vir() == listed.min_pairwise_vir()

    def test_four_user_layout_all_admitted(self):
        registry = new_registry()
        for i, (x, y) in enumerate(FIG6_POSITIONS):
            decision = registry.register(reg(f"u{i}", x, y))
            assert decision.admitted, decision.reason
        assert len(registry.members) == 4
        assert registry.min_pairwise_vir() >= 50.0

    def test_candidate_too_close_rejected_with_pairwise_reason(self):
        registry = new_registry()
        assert registry.register(reg("u0", 1.41, 0.0)).admitted
        # 12 cm from the existing subject: inside its UE's near field
        decision = registry.register(reg("u1", 1.41 + 0.12, 0.0))
        assert not decision.admitted
        assert "pairwise VIR" in decision.reason
        assert len(registry.members) == 1

    def test_duplicate_id_rejected(self):
        registry = new_registry()
        registry.register(reg("u0", 1.41, 0.0))
        with pytest.raises(ValueError, match="duplicate"):
            registry.register(reg("u0", 0.0, 1.41))

    def test_capacity_reason_for_energetic_users(self):
        # The envelope bound is intensity-independent while pairwise VIR
        # scales with v^2, so fast movers keep pairwise ratios high and run
        # into the capacity guard instead.  One user at the outer boundary
        # pins the radius envelope where N_max is small.
        registry = Registry(ap=Point2D(0.0, 0.0), cfg=RadioConfig(), beta=50.0,
                            delta_r=0.1, intensities={"respiration": 10.0,
                                                      "gesture": 10.0,
                                                      "activity": 10.0})
        n_inner = 32
        for i in range(n_inner):
            ang = 2 * math.pi * i / n_inner
            d = registry.register(reg(f"u{i}", 2.0 * math.cos(ang), 2.0 * math.sin(ang)))
            assert d.admitted, d.reason
        decision = registry.register(reg("far", 3.73, 0.0))
        assert not decision.admitted
        assert "capacity" in decision.reason
        assert decision.min_vir >= registry.beta  # pairwise alone would admit


class TestDeregister:
    def test_round_trip(self):
        registry = new_registry()
        registry.register(reg("u0", 1.41, 0.0))
        registry.register(reg("u1", 0.0, 1.41))
        registry.deregister("u1")
        assert list(registry.members) == ["u0"]

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            new_registry().deregister("ghost")

    def test_rejected_candidate_admitted_after_departure(self):
        registry = new_registry()
        registry.register(reg("a", 1.41, 0.0))
        registry.register(reg("b", 1.41 * math.cos(0.5), 1.41 * math.sin(0.5)))
        # near enough to b to violate VIR while b is present, far enough
        # from a to be feasible once b leaves
        ang = 0.30
        candidate = reg("c", 1.41 * math.cos(ang), 1.41 * math.sin(ang))
        assert not registry.register(candidate).admitted
        registry.deregister("b")
        assert registry.register(candidate).admitted


class TestInvariant:
    def test_random_sequences_preserve_pairwise_vir(self):
        rng = np.random.default_rng(12)
        registry = new_registry(beta=30.0)
        alive = []
        for step in range(60):
            if alive and rng.random() < 0.3:
                registry.deregister(alive.pop(rng.integers(len(alive))))
            else:
                r = rng.uniform(0.8, 3.0)
                ang = rng.uniform(0, 2 * math.pi)
                candidate = reg(f"s{step}", r * math.cos(ang), r * math.sin(ang))
                if registry.register(candidate).admitted:
                    alive.append(candidate.user_id)
            if len(registry.members) >= 2:
                assert registry.min_pairwise_vir() >= registry.beta

    def test_mutually_feasible_set_admits_in_any_order(self):
        for perm in ([0, 1, 2, 3], [3, 1, 0, 2], [2, 0, 3, 1]):
            registry = new_registry()
            for i in perm:
                x, y = FIG6_POSITIONS[i]
                assert registry.register(reg(f"u{i}", x, y)).admitted
            assert len(registry.members) == 4


class TestValidationAndDump:
    def test_registration_validation(self):
        with pytest.raises(ValueError):
            Registration(user_id="", position=Point2D(1, 0))
        with pytest.raises(ValueError):
            Registration(user_id="x", position=Point2D(1, 0), motion_type="dance")
        # a scene kind with no pipeline setting, and the old scene spelling
        for motion in ("still", "gesture_like", "activity_like"):
            with pytest.raises(ValueError, match="motion_type must be one of"):
                Registration(user_id="x", position=Point2D(1, 0), motion_type=motion)
        with pytest.raises(ValueError):
            Registration(user_id="x", position=Point2D(1, 0), strategy="carrier_pigeon")

    def test_dump_csv(self, tmp_path):
        registry = new_registry()
        registry.register(reg("u0", 1.41, 0.0, "gesture", "ul_bfi"))
        path = tmp_path / "registry.csv"
        registry.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "user_id,x_m,y_m,motion_type,strategy,f_cut_hz"
        assert lines[1].startswith("u0,1.410000,0.000000,gesture,ul_bfi,20.0")


def pair_virs(registry, population):
    """Each user's VIR by scalar geometry.vir(), every Mover and UE built afresh."""
    def mover(reg):
        return Mover(reg.position, registry.intensities.get(reg.motion_type, 1.0))

    out = []
    for reg in population:
        d = registry.ap.distance(reg.position)
        ux, uy = (reg.position.x - registry.ap.x) / d, (reg.position.y - registry.ap.y) / d
        ue = Point2D(reg.position.x + registry.delta_r * ux,
                     reg.position.y + registry.delta_r * uy)
        out.append((reg, vir(registry.cfg, registry.ap, ue, mover(reg),
                             [mover(o) for o in population if o.user_id != reg.user_id])))
    return out


def expected_decision(registry, cand):
    """The admission rule recomputed pair by pair, with the scalar capacity search."""
    worst = math.inf
    for reg, ratio in pair_virs(registry, list(registry.members.values()) + [cand]):
        worst = min(worst, ratio)
        if ratio < registry.beta:
            return Decision(admitted=False, min_vir=worst, reason=(
                f"pairwise VIR: user {reg.user_id!r} would see VIR "
                f"{ratio:.3g} < beta {registry.beta:.3g}"))
    radius = max(registry.ap.distance(r.position)
                 for r in list(registry.members.values()) + [cand])
    limit = 0 if radius <= registry.delta_r else capacity_reference.n_max_exact(
        CapacityQuery(r=radius, delta_r=registry.delta_r, beta=registry.beta,
                      cfg=registry.cfg))
    count_after = len(registry.members) + 1
    if count_after >= 3 and count_after > limit:
        return Decision(admitted=False, min_vir=worst,
                        reason=f"capacity: {count_after} users exceed N_max={limit} "
                               f"at radius {registry.ap.distance(cand.position):.3g} m")
    return Decision(admitted=True, f_cut_hz=SRA_BY_MOTION[cand.motion_type].f_cut, min_vir=worst)


class TestMatchesScalarRecomputation:
    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_event_stream(self, seed):
        rng = np.random.default_rng(seed)
        registry = Registry(ap=Point2D(0.2, -0.1), cfg=RadioConfig(),
                            beta=float(rng.choice([10.0, 30.0, 50.0])), delta_r=0.15,
                            intensities={"respiration": 0.5, "gesture": 2.0, "activity": 1.0})
        admitted = 0
        for k in range(40):
            if registry.members and rng.random() < 0.25:
                registry.deregister(sorted(registry.members)[rng.integers(len(registry.members))])
                continue
            r, ang = rng.uniform(0.6, 3.5), rng.uniform(0.0, 2.0 * math.pi)
            cand = Registration(f"u{k}", Point2D(0.2 + r * math.cos(ang), -0.1 + r * math.sin(ang)),
                                motion_type=str(rng.choice(MOTION_TYPES)),
                                strategy=str(rng.choice(KINDS)))
            want = expected_decision(registry, cand)
            got = registry.register(cand)
            assert got == want
            admitted += got.admitted
            assert registry.min_pairwise_vir() == min(
                (ratio for _, ratio in pair_virs(registry, list(registry.members.values()))),
                default=math.inf)
        assert admitted >= 2
