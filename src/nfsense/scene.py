"""Synthetic multi-subject scenes and CSI time-series rendering.

A scene is an AP, a set of (UE, subject, motion) users, and an optional
baseline observer sitting on the AP's line of sight away from every subject.
Each subject's reflecting point moves along the subject-to-UE axis according
to its motion profile; rendering superposes every subject's reflected path
with a static direct-path gain, an Ornstein-Uhlenbeck dynamic term, and
observation noise.  Everything is deterministic given the scene seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import kvtext
from .geometry import Point2D, RadioConfig, reflection_gain_array

MOTION_KINDS = ("respiration", "gesture_like", "activity_like", "still")

NEAR_FIELD_MAX_M = 0.3
RESPIRATION_RATE_BOUNDS_BPM = (6.0, 40.0)

# Correlation time of the direct-path dynamic channel.
_OU_TAU_S = 0.5
# Number of sinusoids in the band-limited gesture/activity displacement.
_BANDLIMITED_COMPONENTS = 48


@dataclass(frozen=True)
class MotionProfile:
    """Displacement model of one subject's reflecting point.

    respiration: sinusoid at ``rate_bpm`` with amplitude ``amplitude_m``,
    frozen at its entry value inside ``holds`` intervals.  gesture_like /
    activity_like: seeded band-limited Gaussian-like displacement with RMS
    speed ``rms_speed`` and bandwidth ``bandwidth_hz``.  still: zero.
    """

    kind: str = "still"
    rate_bpm: float = 15.0
    amplitude_m: float = 0.005
    holds: tuple[tuple[float, float], ...] = ()
    rms_speed: float = 0.3
    bandwidth_hz: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MOTION_KINDS:
            raise ValueError(f"kind must be one of {MOTION_KINDS}, got {self.kind!r}")
        if self.amplitude_m < 0 or self.rms_speed < 0:
            raise ValueError("amplitudes and speeds must be >= 0")
        if self.kind == "respiration":
            lo, hi = RESPIRATION_RATE_BOUNDS_BPM
            if not (lo <= self.rate_bpm <= hi):
                raise ValueError(f"rate_bpm must be in [{lo}, {hi}], got {self.rate_bpm}")
        prev_stop = -math.inf
        for start, stop in self.holds:
            if not (stop > start >= prev_stop):
                raise ValueError(f"hold intervals must be ordered and non-overlapping: {self.holds}")
            prev_stop = stop

    @classmethod
    def respiration(cls, rate_bpm: float, amplitude_m: float = 0.005,
                    holds: Sequence[tuple[float, float]] = ()) -> "MotionProfile":
        return cls(kind="respiration", rate_bpm=rate_bpm, amplitude_m=amplitude_m,
                   holds=tuple(tuple(h) for h in holds))

    @classmethod
    def still(cls) -> "MotionProfile":
        return cls(kind="still")

    @classmethod
    def gesture_like(cls, rms_speed: float = 0.3, bandwidth_hz: float = 5.0,
                     seed: int = 0) -> "MotionProfile":
        return cls(kind="gesture_like", rms_speed=rms_speed,
                   bandwidth_hz=bandwidth_hz, seed=seed)

    @classmethod
    def activity_like(cls, rms_speed: float = 1.0, bandwidth_hz: float = 15.0,
                      seed: int = 0) -> "MotionProfile":
        return cls(kind="activity_like", rms_speed=rms_speed,
                   bandwidth_hz=bandwidth_hz, seed=seed)


def _bandlimited_components(profile: MotionProfile) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded sinusoid bank realizing the band-limited displacement process."""
    rng = np.random.default_rng(np.random.SeedSequence((profile.seed, 0x6D6F)))
    m = _BANDLIMITED_COMPONENTS
    freqs = rng.uniform(0.05, profile.bandwidth_hz, size=m)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=m)
    # Unit amplitudes scaled so the derivative has the requested RMS.
    omega = 2.0 * np.pi * freqs
    scale = profile.rms_speed / math.sqrt(float(np.sum(omega ** 2)) / 2.0)
    amps = np.full(m, scale)
    return freqs, phases, amps


def displacement(profile: MotionProfile, t) -> np.ndarray:
    """Signed radial displacement of the reflecting point at time(s) t (seconds)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    if profile.kind == "still":
        return np.zeros_like(t)
    if profile.kind == "respiration":
        f = profile.rate_bpm / 60.0
        t_eff = t.copy()
        for start, stop in profile.holds:
            inside = (t >= start) & (t < stop)
            t_eff[inside] = start
        return profile.amplitude_m * np.sin(2.0 * np.pi * f * t_eff)
    freqs, phases, amps = _bandlimited_components(profile)
    # sum_m a_m sin(2 pi f_m t + theta_m), evaluable at arbitrary t
    arg = 2.0 * np.pi * np.outer(t, freqs) + phases
    return (np.sin(arg) * amps).sum(axis=1).reshape(t.shape)


@dataclass(frozen=True)
class SceneUser:
    ue: Point2D
    subject: Point2D
    motion: MotionProfile
    user_id: str = ""


@dataclass(frozen=True)
class Scene:
    ap: Point2D
    users: tuple[SceneUser, ...]
    cfg: RadioConfig
    baseline_observer: Point2D | None = None
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        users = tuple(
            replace(u, user_id=u.user_id or f"ue{i}") for i, u in enumerate(self.users)
        )
        object.__setattr__(self, "users", users)
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        positions = [self.ap] + [u.ue for u in users] + [u.subject for u in users]
        if self.baseline_observer is not None:
            positions.append(self.baseline_observer)
        for i, a in enumerate(positions):
            for b in positions[i + 1:]:
                if a.distance(b) < 1e-9:
                    raise ValueError(f"positions must not coincide: {a} vs {b}")
        for u in users:
            if u.ue.distance(u.subject) > NEAR_FIELD_MAX_M:
                raise ValueError(
                    f"subject of {u.user_id!r} is {u.ue.distance(u.subject):.3f} m from its UE; "
                    f"near-field placement requires <= {NEAR_FIELD_MAX_M} m")
        ids = [u.user_id for u in users]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate user ids: {ids}")

    def link_ids(self) -> list[str]:
        return [u.user_id for u in self.users]


@dataclass(frozen=True)
class CsiSeries:
    """Irregularly sampled complex channel gains of one link."""

    timestamps: np.ndarray
    values: np.ndarray
    link_id: str

    def __post_init__(self) -> None:
        t = np.asarray(self.timestamps, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "timestamps", t)
        object.__setattr__(self, "values", v)
        if t.shape != v.shape:
            raise ValueError(f"timestamps {t.shape} and values {v.shape} differ in length")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def phase(self) -> np.ndarray:
        """Unwrapped phase track (nearest-multiple-of-2pi continuation)."""
        return np.unwrap(np.angle(self.values))


def _subject_axis(user: SceneUser) -> np.ndarray:
    d = user.ue.as_array() - user.subject.as_array()
    return d / np.linalg.norm(d)


def _reflection_track(scene: Scene, user: SceneUser, rx: Point2D,
                      times: np.ndarray) -> np.ndarray:
    """Complex gain contribution of one subject toward receiver ``rx``."""
    disp = displacement(user.motion, times)
    point = user.subject.as_array()[None, :] + disp[:, None] * _subject_axis(user)[None, :]
    d_as = np.linalg.norm(point - scene.ap.as_array(), axis=1)
    d_se = np.linalg.norm(point - rx.as_array(), axis=1)
    return reflection_gain_array(scene.cfg, d_as, d_se)


def _static_gain(cfg: RadioConfig, d_ae: float) -> complex:
    amp = cfg.lambda_m / (4.0 * math.pi) * d_ae ** (-cfg.alpha / 2.0)
    return amp * np.exp(-2j * math.pi * d_ae / cfg.lambda_m)


def _ou_track(cfg: RadioConfig, d_ae: float, times: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """Complex Ornstein-Uhlenbeck process with variance eta lambda^2 d^-alpha.

    Decay factors and kicks are arrays; only the recurrence x = x*rho + kick
    runs per sample, on Python scalars.  ``math.exp`` (libm) is used on
    purpose: ``np.exp`` may take a SIMD path whose last bit differs.
    """
    var = cfg.eta * cfg.lambda_m ** 2 * d_ae ** (-cfg.alpha)
    n = times.size
    if n == 0:
        return np.empty(0, dtype=complex)
    sigma = math.sqrt(var / 2.0)
    draw = rng.standard_normal((n, 2))
    rho = np.fromiter(map(math.exp, (-np.diff(times) / _OU_TAU_S).tolist()), float, n - 1)
    s = sigma * np.sqrt(np.maximum(1.0 - rho * rho, 0.0))
    kick = (s[:, None] * draw[1:]).view(complex)[:, 0]
    x = complex(sigma * (draw[0, 0] + 1j * draw[0, 1]))
    out = [x]
    for r, k in zip(rho.tolist(), kick.tolist()):
        x = x * r + k
        out.append(x)
    return np.array(out)


def _link_rx(scene: Scene, link: str) -> tuple[Point2D, int]:
    for i, u in enumerate(scene.users):
        if u.user_id == link:
            return u.ue, i
    if link == "baseline":
        if scene.baseline_observer is None:
            raise ValueError("scene has no baseline observer")
        return scene.baseline_observer, len(scene.users)
    raise KeyError(f"unknown link id {link!r}; known: {scene.link_ids() + ['baseline']}")


def render_components(scene: Scene, link: str, sample_times) -> dict[str, np.ndarray]:
    """Per-term breakdown of the rendered series (superposition diagnostics).

    Returns arrays keyed ``reflection:<user_id>``, ``static``, ``dynamic``,
    ``noise``; their elementwise sum is exactly the rendered series.
    """
    times = np.asarray(sample_times, dtype=float)
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    rx, link_index = _link_rx(scene, link)
    d_ae = scene.ap.distance(rx)

    parts: dict[str, np.ndarray] = {}
    for user in scene.users:
        parts[f"reflection:{user.user_id}"] = _reflection_track(scene, user, rx, times)
    parts["static"] = np.full(times.shape, _static_gain(scene.cfg, d_ae))
    dyn_rng = np.random.default_rng(np.random.SeedSequence((scene.seed, link_index, 0)))
    parts["dynamic"] = _ou_track(scene.cfg, d_ae, times, dyn_rng)
    noise_rng = np.random.default_rng(np.random.SeedSequence((scene.seed, link_index, 1)))
    draw = noise_rng.standard_normal((times.size, 2))
    parts["noise"] = scene.noise_std / math.sqrt(2.0) * (draw[:, 0] + 1j * draw[:, 1])
    return parts


def render_csi(scene: Scene, link: str, sample_times) -> CsiSeries:
    """Render the complex channel of one AP-UE link at the given times."""
    parts = render_components(scene, link, sample_times)
    total = sum(parts.values())
    return CsiSeries(timestamps=np.asarray(sample_times, dtype=float),
                     values=total, link_id=link)


def render_baseline(scene: Scene, sample_times) -> CsiSeries:
    """Render the non-near-field observer; every subject contributes comparably."""
    return render_csi(scene, "baseline", sample_times)


def save_csi_csv(series: CsiSeries, path) -> None:
    with open(path, "w") as fh:
        fh.write("t_s,re,im\n")
        table = np.column_stack([series.timestamps, series.values.real, series.values.imag])
        fh.write(kvtext.format_table(table, "%.9f,%.12e,%.12e\n"))


def load_csi_csv(path, link_id: str = "") -> CsiSeries:
    """Read a series written by :func:`save_csi_csv` (header ``t_s,re,im``)."""
    try:
        with open(path) as fh:   # an OSError names the path, as np.loadtxt's does not
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: expected numeric columns t_s,re,im: {exc}") from None
    if data.size == 0:
        return CsiSeries(timestamps=np.array([]), values=np.array([], dtype=complex),
                         link_id=link_id)
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected 3 columns t_s,re,im, got {data.shape[1]}")
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: non-finite value")
    if np.any(np.diff(data[:, 0]) <= 0):
        raise ValueError(f"{path}: timestamps must be strictly increasing")
    # the (re, im) pairs viewed as complex: re + 1j * im would turn -0.0 into 0.0
    return CsiSeries(timestamps=data[:, 0], link_id=link_id,
                     values=np.ascontiguousarray(data[:, 1:]).view(complex).ravel())


def _scene_lines(scene: Scene) -> list[str]:
    lines = [*kvtext.lines("ap.", scene.ap), *kvtext.lines("radio.", scene.cfg),
             *kvtext.lines("", scene, ("noise_std", "seed"))]
    if scene.baseline_observer is not None:
        lines += kvtext.lines("baseline.", scene.baseline_observer)
    for i, u in enumerate(scene.users):
        p = f"user.{i}."
        lines += [f"{p}id={u.user_id}", *kvtext.lines(p + "ue.", u.ue),
                  *kvtext.lines(p + "subject.", u.subject),
                  *kvtext.lines(p + "motion.", u.motion)]
    return lines


def save_scene(scene: Scene, path) -> None:
    """Write a scene as a key=value text file with repeated ``user.N.*`` groups."""
    with open(path, "w") as fh:
        fh.write("\n".join(_scene_lines(scene)) + "\n")


def load_scene(path) -> Scene:
    """Read a scene written by :func:`save_scene`.

    ``ap.*``, ``baseline.*`` (when present) and each user's ``ue.*`` and
    ``subject.*`` are required; a missing ``radio.*``, ``motion.*``,
    ``noise_std`` or ``seed`` key takes its dataclass default.  A malformed
    line, a repeated, missing or unknown key, a non-finite value or a scene the
    dataclasses reject raises a ValueError naming the file.
    """
    kv = kvtext.read(path)

    def point(prefix: str) -> Point2D:
        return kvtext.build(Point2D, kv, prefix, path)

    users: list[SceneUser] = []
    while any(key.startswith(f"user.{len(users)}.") for key in kv):
        p = f"user.{len(users)}."
        users.append(SceneUser(ue=point(p + "ue."), subject=point(p + "subject."),
                               motion=kvtext.build(MotionProfile, kv, p + "motion.", path),
                               user_id=kv.get(p + "id", "")))
    baseline = point("baseline.") if any(k.startswith("baseline.") for k in kv) else None
    scene = kvtext.build(Scene, kv, "", path, ap=point("ap."), users=tuple(users),
                         cfg=kvtext.build(RadioConfig, kv, "radio.", path),
                         baseline_observer=baseline)
    unknown = kv.keys() - {line.partition("=")[0] for line in _scene_lines(scene)}
    if unknown:
        raise ValueError(f"{path}: unknown scene key {min(unknown)!r}")
    return scene
