"""Second, independent transcription of the classic-control dynamics.

Used only to generate and regenerate the golden trajectory files under
``tests/golden/``. Written in numpy vector style, separately from the
package's scalar implementations, so a transcription slip on either side
shows up as a golden mismatch.
"""

import numpy as np


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class RefCartPole:
    name = "CartPole-v1"
    max_steps = 500
    n_actions = 2

    def reset(self, seed):
        self.s = _rng(seed).uniform(-0.05, 0.05, 4)
        return self.s.copy()

    def step(self, a):
        x, xd, th, thd = self.s
        force = 10.0 if a == 1 else -10.0
        ct, st = np.cos(th), np.sin(th)
        mp, mt, pml, length = 0.1, 1.1, 0.05, 0.5
        temp = (force + pml * thd * thd * st) / mt
        thacc = (9.8 * st - ct * temp) / (length * (4.0 / 3.0 - mp * ct * ct / mt))
        xacc = temp - pml * thacc * ct / mt
        self.s = np.array([x + 0.02 * xd, xd + 0.02 * xacc,
                           th + 0.02 * thd, thd + 0.02 * thacc])
        done = bool(abs(self.s[0]) > 2.4 or abs(self.s[2]) > 12 * np.pi / 180)
        return self.s.copy(), 1.0, done


class RefMountainCar:
    name = "MountainCar-v0"
    max_steps = 200
    n_actions = 3

    def reset(self, seed):
        self.s = np.array([_rng(seed).uniform(-0.6, -0.4), 0.0])
        return self.s.copy()

    def step(self, a):
        p, v = self.s
        v = np.clip(v + (a - 1) * 0.001 - 0.0025 * np.cos(3 * p), -0.07, 0.07)
        p = np.clip(p + v, -1.2, 0.6)
        if p == -1.2 and v < 0:
            v = 0.0
        self.s = np.array([p, v])
        done = bool(p >= 0.5 and v >= 0.0)
        return self.s.copy(), -1.0, done


class RefMountainCarContinuous:
    name = "MountainCarContinuous-v0"
    max_steps = 999
    n_actions = None  # continuous, 1-dim in [-1, 1]

    def reset(self, seed):
        self.s = np.array([_rng(seed).uniform(-0.6, -0.4), 0.0])
        return self.s.copy()

    def step(self, a):
        p, v = self.s
        force = float(np.clip(a[0], -1.0, 1.0))
        v = np.clip(v + force * 0.0015 - 0.0025 * np.cos(3 * p), -0.07, 0.07)
        p = np.clip(p + v, -1.2, 0.6)
        if p == -1.2 and v < 0:
            v = 0.0
        self.s = np.array([p, v])
        done = bool(p >= 0.45 and v >= 0.0)
        reward = (100.0 if done else 0.0) - 0.1 * force * force
        return self.s.copy(), reward, done


class RefPendulum:
    name = "Pendulum-v1"
    max_steps = 200
    n_actions = None  # continuous, 1-dim in [-2, 2]

    def reset(self, seed):
        self.s = _rng(seed).uniform([-np.pi, -1.0], [np.pi, 1.0])
        return self.s.copy()

    def step(self, a):
        th, thd = self.s
        u = float(np.clip(a[0], -2.0, 2.0))
        thn = ((th + np.pi) % (2 * np.pi)) - np.pi
        cost = thn**2 + 0.1 * thd**2 + 0.001 * u**2
        thd_new = np.clip(
            thd + (1.5 * 10.0 * np.sin(th) + 3.0 * u) * 0.05, -8.0, 8.0
        )
        self.s = np.array([th + thd_new * 0.05, thd_new])
        return self.s.copy(), -float(cost), False


class RefAcrobot:
    name = "Acrobot-v1"
    max_steps = 500
    n_actions = 3

    def reset(self, seed):
        self.s = _rng(seed).uniform(-0.1, 0.1, 4)
        return self.s.copy()

    @staticmethod
    def _deriv(s):
        t1, t2, d1_, d2_, a = s
        # unit masses/lengths, com at 0.5, unit inertia, g = 9.8
        d1 = 1.0 * 0.25 + 1.0 * (1.0 + 0.25 + 2 * 0.5 * np.cos(t2)) + 2.0
        d2 = 1.0 * (0.25 + 0.5 * np.cos(t2)) + 1.0
        phi2 = 0.5 * 9.8 * np.cos(t1 + t2 - np.pi / 2)
        phi1 = (
            -0.5 * d2_**2 * np.sin(t2)
            - 2 * 0.5 * d2_ * d1_ * np.sin(t2)
            + 1.5 * 9.8 * np.cos(t1 - np.pi / 2)
            + phi2
        )
        dd2 = (a + d2 / d1 * phi1 - 0.5 * d1_**2 * np.sin(t2) - phi2) / (
            0.25 + 1.0 - d2**2 / d1
        )
        dd1 = -(d2 * dd2 + phi1) / d1
        return np.array([d1_, d2_, dd1, dd2, 0.0])

    def step(self, a):
        y = np.append(self.s, [-1.0, 0.0, 1.0][a])
        dt = 0.2
        k1 = self._deriv(y)
        k2 = self._deriv(y + dt / 2 * k1)
        k3 = self._deriv(y + dt / 2 * k2)
        k4 = self._deriv(y + dt * k3)
        ns = (y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4))[:4]
        for i in (0, 1):
            ns[i] = wrap_angle(ns[i])
        ns[2] = np.clip(ns[2], -4 * np.pi, 4 * np.pi)
        ns[3] = np.clip(ns[3], -9 * np.pi, 9 * np.pi)
        self.s = ns
        done = bool(-np.cos(ns[0]) - np.cos(ns[1] + ns[0]) > 1.0)
        return self.s.copy(), 0.0 if done else -1.0, done


def wrap_angle(x):
    """Shift ``x`` by 2*pi, one shift at a time, until it lies in [-pi, pi]."""
    while x > np.pi:
        x -= 2 * np.pi
    while x < -np.pi:
        x += 2 * np.pi
    return x


REF_ENVS = {
    cls.name: cls
    for cls in (
        RefCartPole,
        RefMountainCar,
        RefMountainCarContinuous,
        RefPendulum,
        RefAcrobot,
    )
}
