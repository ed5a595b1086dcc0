"""State machine behavior: following, searching, idling, and expressions."""

import math
import re
from dataclasses import dataclass, fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import frame, landmarks
from robosum import controller
from robosum.content_filter import FilterConfig, classify_frame
from robosum.controller import (
    MAX_ROTATE_DEG,
    ActionCommand,
    ControllerConfig,
    ControllerState,
    Expression,
    Mode,
    Observation,
    Side,
    controller_step,
    estimate_distance_m,
    initial_state,
)
from robosum.errors import PipelineError
from robosum.model import ABSENT, MIN_POINT_CONFIDENCE, NUM_LANDMARKS, IllPosedReason, LandmarkSet, confident_subset

CFG = ControllerConfig()
W, H = 640, 480


def obs(t, lm=None):
    return Observation(timestamp=t, width=W, height=H, landmarks=lm)


def full_person(cx=W / 2, face_y=H * 0.25, torso=150.0):
    """Face at (cx, face_y), neck below it, hips a torso-length below the neck."""
    neck_y = face_y + 40
    return landmarks(
        nose=(cx, face_y),
        r_eye=(cx - 10, face_y - 5),
        l_eye=(cx + 10, face_y - 5),
        neck=(cx, neck_y),
        r_hip=(cx, neck_y + torso),
        l_hip=(cx, neck_y + torso),
    )


class TestEstimateDistance:
    def test_both_hips(self):
        lm = landmarks(neck=(100, 100), r_hip=(100, 250), l_hip=(100, 250))
        assert estimate_distance_m(lm, CFG) == pytest.approx(2.0)

    def test_single_hip_fallback(self):
        lm = landmarks(neck=(0, 0), l_hip=(0, 300))
        assert estimate_distance_m(lm, CFG) == pytest.approx(1.0)

    def test_missing_hips(self):
        lm = landmarks(neck=(100, 100))
        with pytest.raises(PipelineError, match="need the neck and at least one hip"):
            estimate_distance_m(lm, CFG)

    def test_missing_neck(self):
        lm = landmarks(r_hip=(100, 250))
        with pytest.raises(PipelineError, match="need the neck and at least one hip"):
            estimate_distance_m(lm, CFG)

    def test_neck_on_hip(self):
        lm = landmarks(neck=(320, 200), r_hip=(320, 200))
        with pytest.raises(PipelineError, match="torso length is zero"):
            estimate_distance_m(lm, CFG)


class TestGazeAdjustment:
    """The pan and pitch a step commands toward a face at upper-center."""

    def test_on_target_is_zero(self):
        state, cmd = controller_step(initial_state(), obs(0.0, landmarks(nose=(0.5 * W, 0.25 * H))))
        assert cmd.rotate_deg == 0.0
        assert cmd.pitch_deg is None
        assert state.current_pitch == 0.0

    def test_pan_right_quarter(self):
        _, cmd = controller_step(initial_state(), obs(0.0, landmarks(nose=(0.75 * W, 0.25 * H))))
        assert cmd.rotate_deg == pytest.approx(15.5)
        assert cmd.pitch_deg is None

    def test_pitch_down_for_low_face(self):
        state, cmd = controller_step(initial_state(), obs(0.0, landmarks(nose=(0.5 * W, 0.75 * H))))
        assert cmd.rotate_deg == 0.0
        assert cmd.pitch_deg == pytest.approx(-19.0)
        assert state.current_pitch == cmd.pitch_deg

    def test_centroid_fallback_without_nose(self):
        lm = landmarks(r_ear=(100, 60), l_ear=(200, 100))
        _, cmd = controller_step(initial_state(), obs(0.0, lm))
        assert cmd.rotate_deg == pytest.approx((150 / W - 0.5) * CFG.fov_h_deg)
        assert cmd.pitch_deg == pytest.approx((0.25 - 80 / H) * CFG.fov_v_deg)

    def test_no_facial_points(self):
        # No face to aim at: no pan, and the neck raises the head to look for one.
        state, cmd = controller_step(initial_state(), obs(0.0, landmarks(neck=(100, 100))))
        assert cmd.rotate_deg == 0.0
        assert cmd.pitch_deg == CFG.face_raise_pitch_deg
        assert state.current_pitch == CFG.face_raise_pitch_deg


class TestSelectExpression:
    """The expression each step shows for the mode it enters and the view."""

    def test_active_with_eyes(self):
        _, cmd = controller_step(initial_state(), obs(0.0, full_person()))
        assert cmd.expression is Expression.ACTIVE

    def test_expecting_for_back_view(self):
        lm = landmarks(neck=(320, 200), r_hip=(310, 350), l_hip=(330, 350))
        _, cmd = controller_step(initial_state(), obs(0.0, lm))
        assert cmd.expression is Expression.EXPECTING

    def test_idle_is_default_still(self):
        state = ControllerState(mode=Mode.IDLE, idle_until=100.0)
        _, cmd = controller_step(state, obs(0.0, None))
        assert cmd.new_mode is Mode.IDLE
        assert cmd.expression is Expression.DEFAULT_STILL

    def test_searching_matches_direction(self):
        for side, expression in ((Side.LEFT, Expression.AWARE_LEFT), (Side.RIGHT, Expression.AWARE_RIGHT)):
            state, cmd = controller_step(ControllerState(last_seen_side=side), obs(0.0, None))
            assert cmd.rotate_deg == (CFG.search_turn_deg if side is Side.RIGHT else -CFG.search_turn_deg)
            assert cmd.expression is expression


class TestFollowing:
    def test_centered_face_at_stop_distance_is_motionless(self):
        state, cmd = controller_step(initial_state(), obs(0.0, full_person(torso=150.0)))
        assert state.mode is Mode.FOLLOWING
        assert cmd.rotate_deg == 0.0
        assert cmd.pitch_deg is None
        assert cmd.forward_m == 0.0
        assert cmd.expression is Expression.ACTIVE

    def test_forward_step_clamped(self):
        # torso 60 px -> 5 m away; the 3 m surplus is clamped to one step.
        state, cmd = controller_step(initial_state(), obs(0.0, full_person(torso=60.0)))
        assert cmd.forward_m == pytest.approx(CFG.forward_step_m)

    def test_neck_on_every_hip_stands_still(self):
        # Zero torso length: no distance to close, as with no hip at all.
        on_hip = landmarks(nose=(300, 100), neck=(320, 200), r_hip=(320, 200))
        no_hip = landmarks(nose=(300, 100), neck=(320, 200))
        state, cmd = controller_step(initial_state(), obs(0.0, on_hip))
        assert state.mode is Mode.FOLLOWING
        assert cmd.forward_m == 0.0
        assert (state, cmd) == controller_step(initial_state(), obs(0.0, no_hip))

    def test_partial_forward_inside_one_step(self):
        # torso 140 px -> ~2.1429 m; surplus under one step is commanded as-is.
        state, cmd = controller_step(initial_state(), obs(0.0, full_person(torso=140.0)))
        assert cmd.forward_m == pytest.approx(300.0 / 140.0 - 2.0)

    def test_rotation_follows_face(self):
        state, cmd = controller_step(initial_state(), obs(0.0, full_person(cx=0.75 * W)))
        assert cmd.rotate_deg == pytest.approx(15.5)
        assert state.last_seen_side is Side.RIGHT

    def test_rotation_clamped_to_limit(self):
        state, cmd = controller_step(initial_state(), obs(0.0, full_person(cx=W - 1)))
        assert cmd.rotate_deg == MAX_ROTATE_DEG

    def test_neck_only_raises_head(self):
        lm = landmarks(neck=(320, 200), r_hip=(310, 350), l_hip=(330, 350))
        state, cmd = controller_step(initial_state(), obs(0.0, lm))
        assert state.mode is Mode.FOLLOWING
        assert cmd.pitch_deg == pytest.approx(CFG.face_raise_pitch_deg)
        assert cmd.forward_m == 0.0
        assert cmd.expression is Expression.EXPECTING
        assert state.current_pitch == pytest.approx(CFG.face_raise_pitch_deg)

    def test_repeated_head_raise_caps_at_max_pitch(self):
        lm = landmarks(neck=(320, 200))
        state = initial_state()
        for i in range(8):
            state, cmd = controller_step(state, obs(float(i), lm))
        assert state.current_pitch == CFG.max_pitch_deg

    def test_gaze_pitch_floors_at_negative_max(self):
        low_face = landmarks(nose=(320, 470), r_eye=(310, 465), l_eye=(330, 465))
        state = initial_state()
        for i in range(6):
            state, cmd = controller_step(state, obs(float(i), low_face))
        assert state.current_pitch == -CFG.max_pitch_deg
        assert cmd.pitch_deg is None or cmd.pitch_deg >= -CFG.max_pitch_deg

    def test_person_without_face_or_neck_still_counts_as_detection(self):
        lm = landmarks(r_knee=(300, 300), l_knee=(340, 300))
        state, cmd = controller_step(initial_state(), obs(0.0, lm))
        assert state.mode is Mode.FOLLOWING
        assert cmd.rotate_deg == 0.0 and cmd.forward_m == 0.0 and cmd.pitch_deg is None
        assert cmd.expression is Expression.EXPECTING
        assert state.turns_done == 0

    def test_low_confidence_points_are_ignored(self):
        lm = landmarks(nose=(320, 120, 0.05), neck=(320, 200, 0.05))
        state, cmd = controller_step(initial_state(), obs(0.0, lm))
        assert state.mode is Mode.SEARCHING


class TestSearchCycle:
    def lose_person_after_following(self, side_x):
        state, _ = controller_step(initial_state(), obs(0.0, full_person(cx=side_x)))
        assert state.mode is Mode.FOLLOWING
        return state

    def test_turns_toward_last_seen_left(self):
        state = self.lose_person_after_following(side_x=100.0)
        assert state.last_seen_side is Side.LEFT
        state, cmd = controller_step(state, obs(1.0, None))
        assert state.mode is Mode.SEARCHING
        assert state.turns_done == 1
        assert cmd.rotate_deg == -CFG.search_turn_deg
        assert cmd.expression is Expression.AWARE_LEFT

    def test_unknown_side_turns_right(self):
        state, cmd = controller_step(initial_state(), obs(0.0, None))
        assert cmd.rotate_deg == CFG.search_turn_deg
        assert cmd.expression is Expression.AWARE_RIGHT

    def test_full_cycle_pitch_then_idle(self):
        state = self.lose_person_after_following(side_x=100.0)
        t = 1.0
        commands = []
        for _ in range(25):
            state, cmd = controller_step(state, obs(t, None))
            commands.append(cmd)
            t += 1.0
        # Turns 1..12: plain rotation; turn 13 carries the absolute pitch;
        # turns 14..24: plain rotation; step 25 enters idle.
        for i in range(24):
            assert commands[i].rotate_deg == -CFG.search_turn_deg
            assert commands[i].expression is Expression.AWARE_LEFT
        assert all(commands[i].pitch_deg is None for i in range(12))
        assert commands[12].pitch_deg == CFG.search_pitch_deg
        assert all(commands[i].pitch_deg is None for i in range(13, 24))
        idle_entry = commands[24]
        assert idle_entry.new_mode is Mode.IDLE
        assert idle_entry.rotate_deg == 0.0
        assert idle_entry.expression is Expression.DEFAULT_STILL
        assert state.mode is Mode.IDLE
        assert state.idle_until == pytest.approx(25.0 + CFG.idle_duration_s)

    def test_detection_resets_turn_count(self):
        state = self.lose_person_after_following(side_x=100.0)
        for t in range(1, 6):
            state, _ = controller_step(state, obs(float(t), None))
        assert state.turns_done == 5
        state, _ = controller_step(state, obs(6.0, full_person()))
        assert state.turns_done == 0
        state, cmd = controller_step(state, obs(7.0, None))
        assert state.turns_done == 1
        # A detection also re-arms the head raise after one fruitless revolution.
        for t in range(8, 20):
            state, cmd = controller_step(state, obs(float(t), None))
        assert state.turns_done == 13 and cmd.pitch_deg == CFG.search_pitch_deg
        state, _ = controller_step(state, obs(20.0, full_person()))
        for t in range(21, 34):
            state, cmd = controller_step(state, obs(float(t), None))
        assert state.turns_done == 13 and cmd.pitch_deg == CFG.search_pitch_deg

    def test_cumulative_rotation_bounded_by_two_revolutions(self):
        state = initial_state()
        total = 0.0
        for t in range(200):
            state, cmd = controller_step(state, obs(float(t), None))
            total += abs(cmd.rotate_deg)
            if state.mode is Mode.IDLE:
                break
        assert total == pytest.approx(720.0)


class TestIdle:
    def make_idle(self):
        state = initial_state()
        t = 0.0
        while state.mode is not Mode.IDLE:
            state, _ = controller_step(state, obs(t, None))
            t += 1.0
        return state, t

    def test_waits_quietly(self):
        state, t = self.make_idle()
        next_state, cmd = controller_step(state, obs(t + 10.0, None))
        assert next_state == state
        assert cmd.rotate_deg == 0.0 and cmd.forward_m == 0.0 and cmd.pitch_deg is None
        assert cmd.expression is Expression.DEFAULT_STILL
        assert cmd.new_mode is Mode.IDLE

    def test_person_appearing_exits_idle_immediately(self):
        state, t = self.make_idle()
        next_state, cmd = controller_step(state, obs(t + 10.0, full_person()))
        assert next_state.mode is Mode.FOLLOWING
        assert cmd.expression is Expression.ACTIVE

    def test_expiry_restarts_search(self):
        state, t = self.make_idle()
        wake = state.idle_until + 1.0
        next_state, cmd = controller_step(state, obs(wake, None))
        assert next_state.mode is Mode.SEARCHING
        assert next_state.turns_done == 1
        assert cmd.rotate_deg != 0.0
        # The fresh cycle raises the head again, on its 13th turn and on no other.
        pitches = [cmd.pitch_deg]
        for i in range(1, 24):
            next_state, cmd = controller_step(next_state, obs(wake + i, None))
            pitches.append(cmd.pitch_deg)
        assert pitches == [None] * 12 + [CFG.search_pitch_deg] + [None] * 11


class TestApproach:
    def test_one_dimensional_approach_stops_in_band(self):
        cfg = CFG
        distance = 5.0
        state = initial_state()
        for step in range(60):
            torso = cfg.calibration_alpha_px_m / distance
            person = full_person(torso=torso)
            estimated = estimate_distance_m(
                landmarks(
                    neck=(W / 2, H * 0.25 + 40),
                    r_hip=(W / 2, H * 0.25 + 40 + torso),
                    l_hip=(W / 2, H * 0.25 + 40 + torso),
                ),
                cfg,
            )
            state, cmd = controller_step(state, obs(float(step), person))
            if estimated <= cfg.stop_distance_m:
                assert cmd.forward_m == 0.0
            distance -= cmd.forward_m
        assert cfg.stop_distance_m - 1e-9 <= distance < cfg.stop_distance_m + cfg.forward_step_m


class TestInvariants:
    def test_aware_expression_iff_turning_in_search(self):
        state = initial_state()
        script = [full_person(), None, None, full_person(cx=100), None, None, None]
        t = 0.0
        for lm in script * 10:
            state, cmd = controller_step(state, obs(t, lm))
            aware = cmd.expression in (Expression.AWARE_LEFT, Expression.AWARE_RIGHT)
            assert aware == (cmd.new_mode is Mode.SEARCHING and cmd.rotate_deg != 0.0)
            if cmd.new_mode is Mode.SEARCHING:
                assert cmd.rotate_deg != 0.0
            t += 1.0

    def test_scripted_sequence_is_deterministic(self):
        script = [full_person(), None, full_person(cx=500), None, None] * 12
        traces = []
        for _ in range(2):
            state = initial_state()
            out = []
            for t, lm in enumerate(script):
                state, cmd = controller_step(state, obs(float(t), lm))
                out.append(cmd)
            traces.append(out)
        assert traces[0] == traces[1]

    def test_action_command_validation(self):
        with pytest.raises(ValueError):
            ActionCommand(rotate_deg=31.0, pitch_deg=None, forward_m=0.0,
                          expression=Expression.ACTIVE, new_mode=Mode.FOLLOWING)
        with pytest.raises(ValueError):
            ActionCommand(rotate_deg=0.0, pitch_deg=None, forward_m=-0.5,
                          expression=Expression.ACTIVE, new_mode=Mode.FOLLOWING)

    def test_config_validation(self):
        # The turn count is 360 / search_turn_deg, so the turn must divide 360.
        with pytest.raises(ValueError, match="whole number of turns"):
            ControllerConfig(search_turn_deg=7.0)
        with pytest.raises(ValueError, match="whole number of turns"):
            ControllerConfig(search_turn_deg=5e-324)
        with pytest.raises(ValueError, match="must not exceed"):
            ControllerConfig(search_turn_deg=45.0)
        assert ControllerConfig(search_turn_deg=20.0).turns_per_revolution == 18
        assert ControllerConfig().turns_per_revolution == 12

    @pytest.mark.parametrize("name", [f.name for f in fields(ControllerConfig)])
    def test_config_values_must_be_finite(self, name):
        # fov_h_deg=inf, for one, made every pan NaN.
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be a finite number, got "):
                ControllerConfig(**{name: value})
        # An int setting is an integer field's value: no further from 0 than 2**53 - 1.
        for value in (2**53, 10**400):
            with pytest.raises(ValueError, match=f"^{name} " + re.escape("must lie in [-(2**53 - 1), 2**53 - 1]") + "$"):
                ControllerConfig(**{name: value})


#: Confidences at the visibility floor and one float either side of it.
AROUND_THE_FLOOR = (
    math.nextafter(MIN_POINT_CONFIDENCE, 0.0),
    MIN_POINT_CONFIDENCE,
    math.nextafter(MIN_POINT_CONFIDENCE, 1.0),
)


@st.composite
def landmark_sets(draw):
    """Random 18-slot sets (or none).

    Confidences are drawn in [0, 1], many of them at the floor or one float
    either side of it. Coordinates often repeat, so points coincide, the
    neck on a hip too.
    """
    if draw(st.integers(0, 3)) == 0:
        return None
    confidence = st.sampled_from([*AROUND_THE_FLOOR, 0.0, 1.0]) | st.floats(0.0, 1.0)
    points = []
    for i in range(NUM_LANDMARKS):
        if draw(st.booleans()):
            points.append(ABSENT)
            continue
        x = draw(st.sampled_from([0.0, 320.0]) | st.floats(0.0, W))
        y = draw(st.sampled_from([0.0, 200.0]) | st.floats(0.0, H))
        points.append((x, y, draw(confidence)))
    return LandmarkSet(points=points)


@settings(max_examples=300, deadline=None)
@given(landmark_sets())
def test_filter_and_controller_share_one_visibility_rule(lm):
    visible = confident_subset(lm)
    reason = classify_frame(frame(0, 0.0, lm=lm, blur=500.0), FilterConfig())
    assert (reason is IllPosedReason.PEOPLE_ABSENT) == (visible is None)
    _, cmd = controller_step(initial_state(), obs(0.0, lm), ControllerConfig())
    assert (cmd.new_mode is Mode.FOLLOWING) == (visible is not None)


clamp_value = st.floats() | st.integers(-50, 50) | st.sampled_from([45, 45.0, -45, -45.0, 30.0, -30.0])


@settings(max_examples=400, deadline=None)
@given(clamp_value, st.sampled_from([-45, -45.0, -30.0]), st.sampled_from([45, 45.0, 30.0]))
def test_clamp_is_max_of_min(value, lo, hi):
    # The arithmetic of the step is pinned to max(lo, min(hi, value)): NaN
    # gives hi, and a value equal to a bound gives the bound itself, so an
    # int bound from the config stays an int on the wire.
    expected = max(lo, min(hi, value))
    got = controller._clamp(value, lo, hi)
    assert type(got) is type(expected) and got == expected


# --- The seven-field reference machine ---------------------------------------------------------------------------
# ControllerState holds only what the rules read. This is the step as it was written with two more fields: the
# search direction, written on every step and read by no rule, and a flag that the head was raised in this search,
# which a search start, a sighting and an idle expiry reset by hand.


@dataclass(frozen=True)
class _ReferenceState:
    mode: Mode = Mode.SEARCHING
    turns_done: int = 0
    pitch_raised: bool = False
    search_direction: Side = Side.RIGHT
    last_seen_side: Side = Side.UNKNOWN
    current_pitch: float = 0.0
    idle_until: float = 0.0


def _reference_search(state, timestamp, cfg):
    turns = state.turns_done if state.mode is Mode.SEARCHING else 0
    if turns >= 2 * cfg.turns_per_revolution:
        idle_until = timestamp + cfg.idle_duration_s
        new_state = _ReferenceState(
            Mode.IDLE, 0, False, state.search_direction, state.last_seen_side, state.current_pitch, idle_until
        )
        return new_state, controller.IDLE_COMMAND

    direction = Side.RIGHT if state.last_seen_side is Side.UNKNOWN else state.last_seen_side
    rotate = cfg.search_turn_deg if direction is Side.RIGHT else -cfg.search_turn_deg
    pitch_target = None
    pitch_raised = state.pitch_raised
    new_pitch = state.current_pitch
    if turns >= cfg.turns_per_revolution and not pitch_raised:
        pitch_target = cfg.search_pitch_deg
        new_pitch = cfg.search_pitch_deg
        pitch_raised = True

    expression = Expression.AWARE_LEFT if direction is Side.LEFT else Expression.AWARE_RIGHT
    return (
        _ReferenceState(Mode.SEARCHING, turns + 1, pitch_raised, direction, state.last_seen_side, new_pitch, 0.0),
        ActionCommand(rotate, pitch_target, 0.0, expression, Mode.SEARCHING),
    )


def reference_advance(state, sensing, timestamp, cfg):
    if sensing is not None:
        side, rotate, pitch_delta, forward, neck, eye = sensing
        pitch = state.current_pitch
        if pitch_delta is not None:
            pitch = controller._clamp(pitch + pitch_delta, -cfg.max_pitch_deg, cfg.max_pitch_deg)
        elif neck:
            pitch = min(pitch + cfg.face_raise_pitch_deg, cfg.max_pitch_deg)
        target = pitch if pitch != state.current_pitch else None
        expression = Expression.ACTIVE if eye else Expression.EXPECTING
        return (
            _ReferenceState(Mode.FOLLOWING, 0, False, state.search_direction, side, pitch, 0.0),
            ActionCommand(rotate, target, forward, expression, Mode.FOLLOWING),
        )
    if state.mode is Mode.IDLE:
        if timestamp < state.idle_until:
            return state, controller.IDLE_COMMAND
        state = _ReferenceState(
            Mode.SEARCHING, 0, False, state.search_direction, state.last_seen_side, state.current_pitch, 0.0
        )
    return _reference_search(state, timestamp, cfg)


#: A frame with a person in view: either side, with or without facial points (pitch_delta None), a neck or an eye.
sightings = st.tuples(
    st.sampled_from([Side.LEFT, Side.RIGHT]),
    st.floats(-MAX_ROTATE_DEG, MAX_ROTATE_DEG),
    st.none() | st.floats(-60.0, 60.0),
    st.floats(0.0, 0.3),
    st.booleans(),
    st.booleans(),
)


@st.composite
def sensing_scripts(draw):
    """A config and a list of (sensing, seconds since the last frame).

    Turns are 30, 15 or 7.5 degrees (2 x 12, 24 or 48 turns to idle), and the idle period is 5 s or the default
    900 s. Runs of empty frames reach up to 250 frames, at 1 s or 60 s apart, so they pass two revolutions and
    the idle deadline (at 1 s, exactly on it) and start a fresh cycle; runs of sightings come between them.
    """
    cfg = ControllerConfig(
        search_turn_deg=draw(st.sampled_from([30.0, 15.0, 7.5])), idle_duration_s=draw(st.sampled_from([5.0, 900.0]))
    )
    script = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            dt = draw(st.sampled_from([1.0, 60.0]))
            script += [(None, dt)] * draw(st.integers(1, 250))
        else:
            script += [(s, 1.0) for s in draw(st.lists(sightings, min_size=1, max_size=4))]
    return cfg, script


@settings(max_examples=200, deadline=None)
@given(sensing_scripts())
@example((ControllerConfig(idle_duration_s=5.0), [(None, 1.0)] * 70))  # two cycles, the second from an exact expiry
@example((  # a neck seen on the left, then 48-turn revolutions 60 s apart, through the 900 s idle and on
    ControllerConfig(search_turn_deg=7.5), [((Side.LEFT, 0.0, None, 0.0, True, False), 1.0), *[(None, 60.0)] * 130]
))
def test_step_matches_the_seven_field_reference(case):
    cfg, script = case
    state, ref, t = initial_state(), _ReferenceState(), 0.0
    for sensing, dt in script:
        t += dt
        state, cmd = controller.advance(state, sensing, t, cfg)
        ref, ref_cmd = reference_advance(ref, sensing, t, cfg)
        assert cmd == ref_cmd
        assert state == ControllerState(ref.mode, ref.turns_done, ref.last_seen_side, ref.current_pitch, ref.idle_until)
