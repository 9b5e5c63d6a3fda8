"""Native classic-control environments and the episode runner.

Dynamics, constants, reward definitions, termination rules and reset
distributions replicate the Gym/Gymnasium classic-control tasks
(CartPole-v1, Acrobot-v1, MountainCar-v0, MountainCarContinuous-v0,
Pendulum-v1) so evolved agents are scored on the standard benchmarks
without an external dependency. All dynamics are deterministic;
randomness enters only through the seeded reset.

Also provides discrete/continuous action decoding, Welford running input
standardization and :func:`run_episode_batch`, which turns a batch of
networks into fitness values. Every task, the decoding and the
standardizer are written once, on arrays with one column per row; the
single-environment and single-network APIs are the one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .netgraph import Genome, PassState
from .rng import RngStream

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Discrete:
    n: int

    @property
    def arity(self) -> int:
        return self.n


@dataclass(frozen=True)
class Continuous:
    low: tuple
    high: tuple

    @property
    def arity(self) -> int:
        return len(self.low)

    @cached_property
    def columns(self) -> tuple:
        """``(low, high - low)`` as ``(arity, 1)`` arrays for decoding rows."""
        low = np.array(self.low).reshape(-1, 1)
        return low, np.array(self.high).reshape(-1, 1) - low


@dataclass(frozen=True)
class EnvSpec:
    name: str
    obs_dim: int
    action_space: object
    max_steps: int
    episodes_per_eval: int
    standardize_inputs: bool


@dataclass
class StepResult:
    observation: list
    reward: float
    done: bool


class RunningStandardizer:
    """Welford online mean/variance, applied per observation dimension.

    Returns a zero vector until two samples have been seen; afterwards
    ``(x - mean) / (std + 1e-8)``. The arithmetic lives in the batched
    :func:`_welford_update` and :func:`_welford_apply`; these methods are
    their one-row case.
    """

    EPS = 1e-8

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = [0.0] * dim
        self.m2 = [0.0] * dim

    def copy(self) -> "RunningStandardizer":
        s = RunningStandardizer(self.dim)
        s.count = self.count
        s.mean = list(self.mean)
        s.m2 = list(self.m2)
        return s

    def _column(self, x) -> np.ndarray:
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} values, got {len(x)}")
        return np.array(x, dtype=float).reshape(self.dim, 1)

    def update(self, x) -> None:
        column = self._column(x)
        rows = _stack_standardizers([self])
        _welford_update(*rows, column, True)
        _unstack_standardizers([self], *rows)

    def apply(self, x) -> list:
        column = self._column(x)
        out = np.empty_like(column)
        with np.errstate(divide="ignore", invalid="ignore"):  # below two samples
            _welford_apply(*_stack_standardizers([self]), column, out)
        return out[:, 0].tolist()


def _stack_standardizers(standardizers):
    """``(count, mean, m2)`` arrays with one column per standardizer."""
    count = np.array([s.count for s in standardizers], dtype=np.int64)
    mean = np.array([s.mean for s in standardizers], dtype=float).T.copy()
    m2 = np.array([s.m2 for s in standardizers], dtype=float).T.copy()
    return count, mean, m2


def _unstack_standardizers(standardizers, count, mean, m2) -> None:
    for r, s in enumerate(standardizers):
        s.count = int(count[r])
        s.mean = mean[:, r].tolist()
        s.m2 = m2[:, r].tolist()


def _welford_update(count, mean, m2, x, live) -> None:
    """Add column ``r`` of ``x`` to standardizer ``r`` where ``live[r]``."""
    count += live
    delta = x - mean
    new_mean = mean + delta / count
    np.copyto(m2, m2 + delta * (x - new_mean), where=live)
    np.copyto(mean, new_mean, where=live)


def _welford_apply(count, mean, m2, x, out) -> None:
    """Standardize each column of ``x`` into ``out``; zeros below two samples."""
    z = (x - mean) / (np.sqrt(m2 / count) + RunningStandardizer.EPS)
    np.copyto(out, np.where(count >= 2, z, 0.0))


# ----------------------------------------------------------------------
# environments


def _pow2(x):
    """``x**2`` through ``pow`` as Python computes it; ``x * x`` can differ by an ulp."""
    return np.float_power(x, 2)


class ClassicControlEnv:
    """One environment: the one-row case of the batched dynamics.

    A task writes its dynamics once, on state rows ``s`` of shape
    ``(state_dim, rows)``: ``_sample_initial`` draws one start state,
    ``observe(s, out)`` writes every row's observation into ``out`` and
    ``advance(s, action)`` steps every row in place, returning
    ``(reward, terminated)`` per row (or one value for all rows).
    """

    spec: EnvSpec

    def __init__(self):
        self.steps = 0
        self.done = True
        self.rows = np.empty((0, 1))

    @property
    def state(self) -> list:
        return self.rows[:, 0].tolist()

    def reset(self, seed: int) -> list:
        self.rows = self.initial_rows([seed])
        self.steps = 0
        self.done = False
        return self._observation()

    def set_state(self, state) -> None:
        """Force the physics state directly (test hook)."""
        self.rows = np.array(state, dtype=float).reshape(-1, 1)
        self.steps = 0
        self.done = False

    def step(self, action) -> StepResult:
        if self.done:
            raise RuntimeError("step() called on a finished episode")
        if isinstance(self.spec.action_space, Discrete):
            action = np.array([action])
        else:
            action = np.array(action, dtype=float).reshape(-1, 1)
        reward, terminated = self.advance(self.rows, action)
        self.steps += 1
        self.done = bool(np.ravel(terminated)[0]) or self.steps >= self.spec.max_steps
        return StepResult(self._observation(), float(np.ravel(reward)[0]), self.done)

    @classmethod
    def initial_rows(cls, seeds) -> np.ndarray:
        """Start states for one reset seed per row; equal seeds share one draw."""
        draws = {seed: cls._sample_initial(RngStream(seed)) for seed in set(seeds)}
        return np.array([draws[seed] for seed in seeds], dtype=float).T.copy()

    def _observation(self) -> list:
        out = np.empty((self.spec.obs_dim, 1))
        self.observe(self.rows, out)
        return out[:, 0].tolist()

    @staticmethod
    def _sample_initial(rng: RngStream) -> list:
        raise NotImplementedError

    @staticmethod
    def observe(s, out) -> None:
        out[...] = s

    @classmethod
    def advance(cls, s, action):
        raise NotImplementedError


class CartPoleEnv(ClassicControlEnv):
    """Pole balancing; Euler integration, reward +1 per step."""

    spec = EnvSpec("CartPole-v1", 4, Discrete(2), 500, 1, False)

    GRAVITY = 9.8
    MASSCART = 1.0
    MASSPOLE = 0.1
    TOTAL_MASS = MASSCART + MASSPOLE
    LENGTH = 0.5  # half the pole's length
    POLEMASS_LENGTH = MASSPOLE * LENGTH
    FORCE_MAG = 10.0
    FORCES = np.array([-FORCE_MAG, FORCE_MAG])  # by action: push left, push right
    TAU = 0.02
    THETA_LIMIT = 12 * TWO_PI / 360
    X_LIMIT = 2.4

    @staticmethod
    def _sample_initial(rng):
        return [float(x) for x in rng.uniform(-0.05, 0.05, 4)]

    @classmethod
    def advance(cls, s, action):
        x, x_dot, theta, theta_dot = s
        force = cls.FORCES[action]
        costheta = np.cos(theta)
        sintheta = np.sin(theta)
        temp = (
            force + cls.POLEMASS_LENGTH * _pow2(theta_dot) * sintheta
        ) / cls.TOTAL_MASS
        thetaacc = (cls.GRAVITY * sintheta - costheta * temp) / (
            cls.LENGTH
            * (4.0 / 3.0 - cls.MASSPOLE * _pow2(costheta) / cls.TOTAL_MASS)
        )
        xacc = temp - cls.POLEMASS_LENGTH * thetaacc * costheta / cls.TOTAL_MASS
        x += cls.TAU * x_dot
        x_dot += cls.TAU * xacc
        theta += cls.TAU * theta_dot
        theta_dot += cls.TAU * thetaacc
        terminated = (np.abs(x) > cls.X_LIMIT) | (np.abs(theta) > cls.THETA_LIMIT)
        return 1.0, terminated


class MountainCarEnv(ClassicControlEnv):
    """Discrete mountain car; reward -1 per step until the flag."""

    spec = EnvSpec("MountainCar-v0", 2, Discrete(3), 200, 1, False)

    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.5
    GOAL_VELOCITY = 0.0
    FORCE = 0.001
    GRAVITY = 0.0025

    @staticmethod
    def _sample_initial(rng):
        return [float(rng.uniform(-0.6, -0.4)), 0.0]

    @classmethod
    def advance(cls, s, action):
        position, velocity = s
        velocity = velocity + (
            (action - 1) * cls.FORCE + np.cos(3 * position) * (-cls.GRAVITY)
        )
        return -1.0, _car_move(cls, s, velocity)


class MountainCarContinuousEnv(ClassicControlEnv):
    """Continuous mountain car; quadratic action cost, +100 at the goal."""

    spec = EnvSpec(
        "MountainCarContinuous-v0", 2, Continuous((-1.0,), (1.0,)), 999, 1, False
    )

    MIN_POSITION = -1.2
    MAX_POSITION = 0.6
    MAX_SPEED = 0.07
    GOAL_POSITION = 0.45
    GOAL_VELOCITY = 0.0
    POWER = 0.0015

    @staticmethod
    def _sample_initial(rng):
        return [float(rng.uniform(-0.6, -0.4)), 0.0]

    @classmethod
    def advance(cls, s, action):
        position, velocity = s
        force = np.minimum(np.maximum(action[0], -1.0), 1.0)
        velocity = velocity + (force * cls.POWER - 0.0025 * np.cos(3 * position))
        terminated = _car_move(cls, s, velocity)
        reward = np.where(terminated, 100.0, 0.0) - 0.1 * _pow2(force)
        return reward, terminated


def _car_move(car, s, velocity):
    """Shared mountain-car tail: clip, move, stop at the left wall; in place.

    Returns whether each row reached the goal.
    """
    velocity = np.minimum(np.maximum(velocity, -car.MAX_SPEED), car.MAX_SPEED)
    position = s[0] + velocity
    position = np.minimum(np.maximum(position, car.MIN_POSITION), car.MAX_POSITION)
    velocity[(position == car.MIN_POSITION) & (velocity < 0)] = 0.0
    s[0], s[1] = position, velocity
    return (position >= car.GOAL_POSITION) & (velocity >= car.GOAL_VELOCITY)


class PendulumEnv(ClassicControlEnv):
    """Torque-controlled pendulum swing-up; never terminates early."""

    spec = EnvSpec("Pendulum-v1", 3, Continuous((-2.0,), (2.0,)), 200, 5, True)

    MAX_SPEED = 8.0
    MAX_TORQUE = 2.0
    DT = 0.05
    G = 10.0
    M = 1.0
    L = 1.0

    @staticmethod
    def _sample_initial(rng):
        return [float(x) for x in rng.uniform([-math.pi, -1.0], [math.pi, 1.0])]

    @staticmethod
    def observe(s, out):
        np.cos(s[0], out=out[0])
        np.sin(s[0], out=out[1])
        out[2] = s[1]

    @classmethod
    def advance(cls, s, action):
        th, thdot = s
        u = np.minimum(np.maximum(action[0], -cls.MAX_TORQUE), cls.MAX_TORQUE)
        th_norm = np.remainder(th + math.pi, TWO_PI) - math.pi
        cost = _pow2(th_norm) + 0.1 * _pow2(thdot) + 0.001 * _pow2(u)
        newthdot = thdot + (
            3 * cls.G / (2 * cls.L) * np.sin(th)
            + 3.0 / (cls.M * cls.L**2) * u
        ) * cls.DT
        newthdot = np.minimum(np.maximum(newthdot, -cls.MAX_SPEED), cls.MAX_SPEED)
        s[0] = th + newthdot * cls.DT
        s[1] = newthdot
        return -cost, False


class AcrobotEnv(ClassicControlEnv):
    """Two-link underactuated swing-up; RK4-integrated book dynamics."""

    spec = EnvSpec("Acrobot-v1", 6, Discrete(3), 500, 1, False)

    DT = 0.2
    L1 = 1.0
    LC1 = 0.5
    LC2 = 0.5
    M1 = 1.0
    M2 = 1.0
    I1 = 1.0
    I2 = 1.0
    G = 9.8
    MAX_VEL = np.array([[4 * math.pi], [9 * math.pi]])  # by velocity: link 1, link 2
    TORQUES = np.array([-1.0, 0.0, 1.0])

    @staticmethod
    def _sample_initial(rng):
        return [float(x) for x in rng.uniform(-0.1, 0.1, 4)]

    @staticmethod
    def observe(s, out):
        t1, t2, d1, d2 = s
        np.cos(t1, out=out[0])
        np.sin(t1, out=out[1])
        np.cos(t2, out=out[2])
        np.sin(t2, out=out[3])
        out[4] = d1
        out[5] = d2

    @classmethod
    def _dsdt(cls, s, a):
        """Time derivative of ``s = (theta1, theta2, dtheta1, dtheta2)`` under torque ``a``."""
        theta1, theta2, dtheta1, dtheta2 = s
        m1, m2 = cls.M1, cls.M2
        l1, lc1, lc2 = cls.L1, cls.LC1, cls.LC2
        i1, i2, g = cls.I1, cls.I2, cls.G
        cos2, sin2 = np.cos(theta2), np.sin(theta2)
        d1 = (
            m1 * lc1**2
            + m2 * (l1**2 + lc2**2 + 2 * l1 * lc2 * cos2)
            + i1
            + i2
        )
        d2 = m2 * (lc2**2 + l1 * lc2 * cos2) + i2
        phi2 = m2 * lc2 * g * np.cos(theta1 + theta2 - math.pi / 2.0)
        phi1 = (
            -m2 * l1 * lc2 * _pow2(dtheta2) * sin2
            - 2 * m2 * l1 * lc2 * dtheta2 * dtheta1 * sin2
            + (m1 * lc1 + m2 * l1) * g * np.cos(theta1 - math.pi / 2)
            + phi2
        )
        ddtheta2 = (
            a + d2 / d1 * phi1 - m2 * l1 * lc2 * _pow2(dtheta1) * sin2
            - phi2
        ) / (m2 * lc2**2 + i2 - _pow2(d2) / d1)
        ddtheta1 = -(d2 * ddtheta2 + phi1) / d1
        return np.array((dtheta1, dtheta2, ddtheta1, ddtheta2))

    @classmethod
    def advance(cls, s, action):
        # One RK4 step over dt; the torque is held over the step.
        a = cls.TORQUES[action]
        dt = cls.DT
        k1 = cls._dsdt(s, a)
        k2 = cls._dsdt(s + dt / 2 * k1, a)
        k3 = cls._dsdt(s + dt / 2 * k2, a)
        k4 = cls._dsdt(s + dt * k3, a)
        ns = s + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        s[:2] = _wrap(ns[:2], -math.pi, math.pi)
        s[2:] = np.minimum(np.maximum(ns[2:], -cls.MAX_VEL), cls.MAX_VEL)
        terminated = -np.cos(s[0]) - np.cos(s[1] + s[0]) > 1.0
        return np.where(terminated, 0.0, -1.0), terminated


def _wrap(x, low: float, high: float):
    """Shift each value by ``high - low`` until it lies in [low, high].

    Every value takes the same number of single shifts as the loop
    ``while x > high: x -= diff`` (then ``while x < low: x += diff``).
    """
    diff = high - low
    while (over := x > high).any():
        x = np.where(over, x - diff, x)
    while (under := x < low).any():
        x = np.where(under, x + diff, x)
    return x


ENV_CLASSES = {
    cls.spec.name: cls
    for cls in (
        CartPoleEnv,
        AcrobotEnv,
        MountainCarEnv,
        MountainCarContinuousEnv,
        PendulumEnv,
    )
}

SUPPORTED_TASKS = sorted(ENV_CLASSES)


def get_spec(name: str) -> EnvSpec:
    try:
        return ENV_CLASSES[name].spec
    except KeyError:
        raise ValueError(
            f"unsupported task {name!r}; supported tasks: "
            + ", ".join(SUPPORTED_TASKS)
        ) from None


def make_env(name: str, seed: int = 0) -> ClassicControlEnv:
    """Construct and reset a seeded environment."""
    env = ENV_CLASSES[get_spec(name).name]()
    env.reset(seed)
    return env


# ----------------------------------------------------------------------
# action decoding and episode running


def decode_action(raw_outputs, space):
    """Map non-negative network outputs onto an action.

    Discrete: index of the largest output, lowest index on ties.
    Continuous: per dimension, clip to [0, 1] then scale to [low, high].
    """
    if len(raw_outputs) != space.arity:
        raise ValueError(
            f"expected {space.arity} outputs, got {len(raw_outputs)}"
        )
    action = _decode_rows(np.array(raw_outputs, dtype=float).reshape(-1, 1), space)
    if isinstance(space, Discrete):
        return int(action[0])
    return action[:, 0].tolist()


def _decode_rows(out, space):
    """Actions for output columns ``out`` of shape ``(arity, rows)``.

    ``argmax`` picks the first of equal maxima; outputs are ReLU values,
    never NaN, so it agrees with a strict ``>`` scan.
    """
    if isinstance(space, Discrete):
        return out.argmax(axis=0)
    low, span = space.columns
    return np.minimum(np.maximum(out, 0.0), 1.0) * span + low


def run_episode_set(
    net: Genome,
    spec: EnvSpec,
    standardizer: RunningStandardizer | None,
    episode_seeds,
) -> float:
    """Mean accumulated reward over one episode per seed.

    The one-row case of :func:`run_episode_batch`.
    """
    standardizers = None if standardizer is None else [standardizer]
    return run_episode_batch([net], spec, standardizers, [episode_seeds])[0]


def run_episode_batch(nets, spec: EnvSpec, standardizers, episode_seeds) -> list[float]:
    """Mean accumulated reward of each row over one episode per seed.

    Row ``r`` runs ``nets[r]`` with ``standardizers[r]`` on the seeds
    ``episode_seeds[r]``. Per episode, all rows reset together (rows with
    the same seed share one draw) and step in lockstep until every row is
    done: observation -> (standardize) -> forward -> decode -> step. A row
    that is done keeps stepping, but its rewards and standardizer updates
    are masked out, so each row's result equals a run of that row alone.
    The standardizers, when given, are updated with each raw observation
    before it is applied, persist across episodes, and are written back.
    """
    for net, seeds in zip(nets, episode_seeds):
        if len(seeds) != spec.episodes_per_eval:
            raise ValueError(
                f"{spec.name} needs {spec.episodes_per_eval} episode seeds, "
                f"got {len(seeds)}"
            )
        if net.d_input != spec.obs_dim or net.d_output != spec.action_space.arity:
            raise ValueError(
                f"net dimensions ({net.d_input}, {net.d_output}) do not match "
                f"{spec.name} ({spec.obs_dim}, {spec.action_space.arity})"
            )
    env = ENV_CLASSES[spec.name]
    rows = len(nets)
    state = PassState(nets)
    inputs = state.inputs
    standardize = spec.standardize_inputs and standardizers is not None
    if standardize:
        moments = _stack_standardizers(standardizers)
        # C-ordered, as the moments are: ``inputs`` is a transposed view, and
        # arithmetic that mixes the two orders is slower.
        obs = np.empty(inputs.shape)
    total = np.zeros(rows)
    # Overflow gives inf silently, as in Python float arithmetic; rows that
    # are done keep stepping and may overflow too.
    with np.errstate(all="ignore"):
        for seeds in zip(*episode_seeds):
            s = env.initial_rows(seeds)
            state.reset()
            episode = np.zeros(rows)
            done = np.zeros(rows, dtype=bool)
            for _ in range(spec.max_steps):
                if standardize:
                    env.observe(s, obs)
                    _welford_update(*moments, obs, ~done)
                    _welford_apply(*moments, obs, inputs)
                else:
                    env.observe(s, inputs)
                action = _decode_rows(state.step(), spec.action_space)
                reward, terminated = env.advance(s, action)
                episode += np.where(done, 0.0, reward)
                done |= terminated
                if done.all():
                    break
            total += episode
    if standardize:
        _unstack_standardizers(standardizers, *moments)
    return (total / spec.episodes_per_eval).tolist()
