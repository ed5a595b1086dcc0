"""Rule-based person-following state machine.

The controller consumes one :class:`Observation` per captured frame and
emits one :class:`ActionCommand`. While a person is visible it keeps the
face near the upper-center of the frame and closes in to a stop distance;
when the person is lost it turns in 30-degree steps toward the side the
person was last seen, raises its head after one fruitless revolution, and
falls idle after a second. It is a pure function of (state, observation,
config), so traces are reproducible by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import PipelineError
from .model import (
    FACIAL_INDICES,
    FLOAT_MAX,
    L_EYE,
    L_HIP,
    NECK,
    NOSE,
    R_EYE,
    R_HIP,
    FrameRecord,
    FrameTable,
    LandmarkSet,
    Rows,
    check_config_fields,
    confident_mask,
    confident_subset,
    visible_span,
)

#: Hard cap on a single rotation command, degrees.
MAX_ROTATE_DEG = 30.0


class Mode(Enum):
    FOLLOWING = "following"
    SEARCHING = "searching"
    IDLE = "idle"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"
    UNKNOWN = "unknown"


class Expression(Enum):
    DEFAULT_STILL = "default_still"
    EXPECTING = "expecting"
    ACTIVE = "active"
    AWARE_LEFT = "aware_left"
    AWARE_RIGHT = "aware_right"


@dataclass(frozen=True)
class Observation:
    """One frame's worth of sensing: dimensions plus the target's landmarks."""

    timestamp: float
    width: int
    height: int
    landmarks: LandmarkSet | None = None


@dataclass(frozen=True)
class ControllerConfig:
    """Movement and gaze parameters.

    ``calibration_alpha_px_m`` converts torso pixel length to meters via
    distance = alpha / torso_px and must be calibrated per camera. A search
    revolution is 360 / ``search_turn_deg`` turns, which must be a whole number.
    """

    stop_distance_m: float = 2.0
    forward_step_m: float = 0.3
    search_turn_deg: float = 30.0
    search_pitch_deg: float = 15.0
    idle_duration_s: float = 900.0
    gaze_target_x_frac: float = 0.5
    gaze_target_y_frac: float = 0.25
    fov_h_deg: float = 62.0
    fov_v_deg: float = 38.0
    calibration_alpha_px_m: float = 300.0
    face_raise_pitch_deg: float = 10.0
    max_pitch_deg: float = 45.0

    def __post_init__(self):
        check_config_fields(self, finite=True)
        if any(getattr(self, f.name) <= 0 for f in fields(self)):
            raise ValueError("all controller parameters must be positive")
        # round() cannot take the 360 / turn = inf of a tiny turn.
        if not 360 / self.search_turn_deg <= FLOAT_MAX or self.turns_per_revolution * self.search_turn_deg != 360.0:
            raise ValueError("360 / search_turn_deg must be a whole number of turns")
        if self.search_turn_deg > MAX_ROTATE_DEG:
            raise ValueError(f"search_turn_deg must not exceed {MAX_ROTATE_DEG}")

    @property
    def turns_per_revolution(self) -> int:
        """Search turns in one full revolution."""
        return round(360 / self.search_turn_deg)


@dataclass(frozen=True)
class ControllerState:
    """What the rules read between steps: the ``mode`` last entered, the ``turns_done`` of the search under
    way (0 outside one), the ``last_seen_side`` a search turns toward, the neck's absolute ``current_pitch``
    in degrees, and ``idle_until``, when an idle period ends (0.0 outside one). A step builds a new one."""

    mode: Mode = Mode.SEARCHING
    turns_done: int = 0
    last_seen_side: Side = Side.UNKNOWN
    current_pitch: float = 0.0
    idle_until: float = 0.0

    def __post_init__(self):
        if self.turns_done < 0:
            raise ValueError("turns_done must be non-negative")


def initial_state() -> ControllerState:
    """State at session start: searching, untouched head, no history."""
    return ControllerState()


@dataclass(frozen=True)
class ActionCommand:
    """One step's actuation: rotation, optional absolute pitch, forward motion.

    Positive ``rotate_deg`` turns right; ``pitch_deg`` is an absolute neck
    target (``None`` when unchanged); ``new_mode`` echoes the state the
    controller entered.
    """

    rotate_deg: float
    pitch_deg: float | None
    forward_m: float
    expression: Expression
    new_mode: Mode

    def __post_init__(self):
        if abs(self.rotate_deg) > MAX_ROTATE_DEG:
            raise ValueError(f"|rotate_deg| must not exceed {MAX_ROTATE_DEG}")
        if self.forward_m < 0:
            raise ValueError("forward_m must be non-negative")


def _distance_m(pts: Rows, cfg: ControllerConfig) -> float:
    """:func:`estimate_distance_m` given the set's rows."""
    neck = pts[NECK]
    hips = [p for p in (pts[R_HIP], pts[L_HIP]) if p is not None]
    if neck is None or not hips:
        raise PipelineError("need the neck and at least one hip")
    torso_px = sum(math.hypot(h[0] - neck[0], h[1] - neck[1]) for h in hips) / len(hips)
    if torso_px <= 0:
        raise PipelineError("neck and hip coincide; torso length is zero")
    return cfg.calibration_alpha_px_m / torso_px


def estimate_distance_m(lm: LandmarkSet, cfg: ControllerConfig) -> float:
    """Camera-to-person distance from torso pixel length.

    The torso length is the mean of the neck-to-hip pixel distances over
    the present hips; distance is calibration_alpha_px_m / torso_px.
    """
    return _distance_m(lm.rows(), cfg)


def _clamp(value: float, lo: float, hi: float) -> float:
    """``max(lo, min(hi, value))``: NaN gives ``hi``, and a value equal to a bound gives the bound."""
    value = value if value < hi else hi
    return value if value > lo else lo


#: The command of every idle step: stand still, show the default face.
IDLE_COMMAND = ActionCommand(0.0, None, 0.0, Expression.DEFAULT_STILL, Mode.IDLE)


#: What a frame shows the controller, whatever its state: None when no person is visible, else (side,
#: rotate_deg, pitch_delta or None when no facial point is visible, forward_m, neck seen, an eye seen).
Sensing = tuple[Side, float, "float | None", float, bool, bool] | None


def sense(obs: Observation | FrameRecord, cfg: ControllerConfig) -> Sensing:
    """One frame's :data:`Sensing`.

    The gaze turns the face toward upper-center: it aims at the nose, else
    at the centroid of the visible facial points; positive pitch tilts up.
    """
    pts = confident_subset(obs.landmarks)
    if pts is None:
        return None
    xs = [p[0] for p in pts if p is not None]
    side = Side.LEFT if (min(xs) + max(xs)) / 2.0 < obs.width / 2.0 else Side.RIGHT
    face = [pts[i] for i in FACIAL_INDICES if pts[i] is not None]
    rotate, pitch_delta, forward = 0.0, None, 0.0
    if face:
        if pts[NOSE] is not None:
            ref_x, ref_y = pts[NOSE][0], pts[NOSE][1]
        else:  # added one by one: sum() compensates rounding from Python 3.12 on
            ref_x = ref_y = 0.0
            for p in face:
                ref_x, ref_y = ref_x + p[0], ref_y + p[1]
            ref_x, ref_y = ref_x / len(face), ref_y / len(face)
        pan = (ref_x / obs.width - cfg.gaze_target_x_frac) * cfg.fov_h_deg
        rotate = _clamp(pan, -MAX_ROTATE_DEG, MAX_ROTATE_DEG)
        pitch_delta = (cfg.gaze_target_y_frac - ref_y / obs.height) * cfg.fov_v_deg
        try:
            forward = min(max(_distance_m(pts, cfg) - cfg.stop_distance_m, 0.0), cfg.forward_step_m)
        except PipelineError:
            pass  # No torso to measure (no neck or hip, or the neck on every hip): stay put.
    return side, rotate, pitch_delta, forward, pts[NECK] is not None, pts[R_EYE] is not None or pts[L_EYE] is not None


@np.errstate(all="ignore")  # overflow gives inf without a word, as in Python's float arithmetic
def sense_table(table: FrameTable, cfg: ControllerConfig) -> Iterator[Sensing]:
    """Every frame's :data:`Sensing` at once, with :func:`sense`'s float operations in its order."""
    seen, x, y = confident_mask(table.points), table.points[:, :, 0], table.points[:, :, 1]
    x_lo, x_hi = visible_span(x, seen)
    face = np.count_nonzero(seen[:, FACIAL_INDICES], axis=1)
    ref_x = ref_y = 0.0  # the facial points summed in index order; adding 0.0 for an unseen one changes nothing
    for i in FACIAL_INDICES:
        ref_x, ref_y = ref_x + np.where(seen[:, i], x[:, i], 0.0), ref_y + np.where(seen[:, i], y[:, i], 0.0)
    ref_x = np.where(seen[:, NOSE], x[:, NOSE], ref_x / np.maximum(face, 1))
    ref_y = np.where(seen[:, NOSE], y[:, NOSE], ref_y / np.maximum(face, 1))
    pan = (ref_x / table.w - cfg.gaze_target_x_frac) * cfg.fov_h_deg
    pan = np.where(pan < MAX_ROTATE_DEG, pan, MAX_ROTATE_DEG)  # _clamp, NaN rule included
    rotate = np.where(face > 0, np.where(pan > -MAX_ROTATE_DEG, pan, -MAX_ROTATE_DEG), 0.0)
    pitch_delta = (cfg.gaze_target_y_frac - ref_y / table.h) * cfg.fov_v_deg
    torso = 0.0  # the mean neck-to-hip length over the seen hips, each by math.hypot as in _distance_m
    for hip in (R_HIP, L_HIP):
        lengths = map(math.hypot, (x[:, hip] - x[:, NECK]).tolist(), (y[:, hip] - y[:, NECK]).tolist())
        torso = torso + np.where(seen[:, hip], list(lengths), 0.0)
    hips = np.count_nonzero(seen[:, (R_HIP, L_HIP)], axis=1)
    torso = torso / np.maximum(hips, 1)
    step = cfg.calibration_alpha_px_m / torso - cfg.stop_distance_m
    step = np.where(0.0 > step, 0.0, step)  # max(step, 0.0)
    # min(step, forward_step_m) gives forward_step_m itself, an int if it is one; the test is exact as Python's.
    cap = float(cfg.forward_step_m)
    capped = (step >= cap if cap > cfg.forward_step_m else step > cap).tolist()
    measured = ((face > 0) & seen[:, NECK] & (hips > 0) & (torso > 0)).tolist()
    forward = [(cfg.forward_step_m if c else s) if m else 0.0 for s, c, m in zip(step.tolist(), capped, measured)]
    sides = [Side.LEFT if v else Side.RIGHT for v in ((x_lo + x_hi) / 2.0 < table.w / 2.0).tolist()]
    pitches = [p if f else None for p, f in zip(pitch_delta.tolist(), face.tolist())]
    eye = (seen[:, R_EYE] | seen[:, L_EYE]).tolist()
    rows = zip(sides, rotate.tolist(), pitches, forward, seen[:, NECK].tolist(), eye)
    return (row if v else None for row, v in zip(rows, seen.any(axis=1).tolist()))


def _search(state: ControllerState, timestamp: float, cfg: ControllerConfig) -> tuple[ControllerState, ActionCommand]:
    turns = state.turns_done if state.mode is Mode.SEARCHING else 0
    if turns >= 2 * cfg.turns_per_revolution:
        idle_until = timestamp + cfg.idle_duration_s
        return ControllerState(Mode.IDLE, 0, state.last_seen_side, state.current_pitch, idle_until), IDLE_COMMAND

    direction = Side.RIGHT if state.last_seen_side is Side.UNKNOWN else state.last_seen_side
    rotate = cfg.search_turn_deg if direction is Side.RIGHT else -cfg.search_turn_deg
    pitch_target, new_pitch = None, state.current_pitch
    if turns == cfg.turns_per_revolution:  # One full fruitless revolution: raise the neck to spot distant people.
        pitch_target = new_pitch = cfg.search_pitch_deg

    expression = Expression.AWARE_LEFT if direction is Side.LEFT else Expression.AWARE_RIGHT
    return (
        ControllerState(Mode.SEARCHING, turns + 1, state.last_seen_side, new_pitch, 0.0),
        ActionCommand(rotate, pitch_target, 0.0, expression, Mode.SEARCHING),
    )


def advance(
    state: ControllerState, sensing: Sensing, timestamp: float, cfg: ControllerConfig
) -> tuple[ControllerState, ActionCommand]:
    """The one step of the state machine: the next state and the command, given a frame's sensing and time.

    Total over valid inputs: every frame yields exactly one command. A step
    builds at most one new state and one command, each positionally in field order.
    """
    if sensing is not None:
        side, rotate, pitch_delta, forward, neck, eye = sensing
        pitch = state.current_pitch
        if pitch_delta is not None:
            pitch = _clamp(pitch + pitch_delta, -cfg.max_pitch_deg, cfg.max_pitch_deg)
        elif neck:  # Face hidden but neck seen: raise the head to look for the face.
            pitch = min(pitch + cfg.face_raise_pitch_deg, cfg.max_pitch_deg)
        target = pitch if pitch != state.current_pitch else None
        expression = Expression.ACTIVE if eye else Expression.EXPECTING
        return (
            ControllerState(Mode.FOLLOWING, 0, side, pitch, 0.0),
            ActionCommand(rotate, target, forward, expression, Mode.FOLLOWING),
        )
    if state.mode is Mode.IDLE and timestamp < state.idle_until:  # once it expires, a search starts at turn 0
        return state, IDLE_COMMAND
    return _search(state, timestamp, cfg)


def controller_step(
    state: ControllerState, obs: Observation | FrameRecord, cfg: ControllerConfig | None = None
) -> tuple[ControllerState, ActionCommand]:
    """Advance the state machine by one observation (or frame record, which has the same fields)."""
    cfg = cfg or ControllerConfig()
    return advance(state, sense(obs, cfg), obs.timestamp, cfg)
