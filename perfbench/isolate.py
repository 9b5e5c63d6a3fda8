"""Layer-isolation pass: per-call cost of ``env.step`` and ``forward``.

``env.step`` replays the recorded action sequences of
``tests/golden/*.txt`` for all five tasks, including Acrobot and the
MountainCar tasks that no workload runs. ``forward`` runs on a fixed
small genome grown by mutation (12 nodes, 22 connections) and on the 7902-parameter static genome.
Each figure is the median of ``REPEATS`` timed repeats.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from dynevo.envs import Discrete, get_spec, make_env
from dynevo.netgraph import build_static, new_minimal
from dynevo.rng import PURPOSE_MUTATE, PURPOSE_PERTURB, derive_stream

REPEATS = 5
REPLAYS = 40  # golden replays per task in one repeat
# The evolved genome is grown by mutation until it reaches this size,
# the size of a typical early CartPole elite.
EVOLVED_NODES, EVOLVED_CONNECTIONS = 12, 20
FORWARD_CALLS = {"evolved": 20000, "static": 200}


def _golden(path: Path):
    lines = path.read_text().splitlines()
    head = lines[0].split()
    task, seed = head[1], int(head[3])
    raw = lines[1].split()[1:]
    if isinstance(get_spec(task).action_space, Discrete):
        actions = [int(a) for a in raw]
    else:
        actions = [[float(a)] for a in raw]
    return task, seed, actions


def env_step_us(golden_dir: Path) -> dict[str, float]:
    """Median microseconds per ``step`` for each task with golden files."""
    by_task: dict[str, list] = {}
    for path in sorted(golden_dir.glob("*.txt")):
        task, seed, actions = _golden(path)
        by_task.setdefault(task, []).append((seed, actions))
    out = {}
    for task, episodes in sorted(by_task.items()):
        samples = []
        for _ in range(REPEATS):
            spent, steps = 0.0, 0
            for _ in range(REPLAYS):
                for seed, actions in episodes:
                    env = make_env(task, seed)
                    start = time.perf_counter()
                    for action in actions:
                        if env.done:
                            break
                        env.step(action)
                        steps += 1
                    spent += time.perf_counter() - start
            samples.append(spent / steps * 1e6)
        out[task] = statistics.median(samples)
    return out


def genomes() -> dict:
    """The two fixed genomes whose ``forward`` is timed."""
    evolved = new_minimal(4, 2)
    i = 0
    while (evolved.node_count() < EVOLVED_NODES
           or evolved.connection_count() < EVOLVED_CONNECTIONS):
        evolved.mutate(derive_stream(0, i, 0, PURPOSE_MUTATE))
        i += 1
    evolved.perturb_parameters(derive_stream(0, 0, 0, PURPOSE_PERTURB))
    static = build_static(4, 2)
    static.perturb_parameters(derive_stream(0, 0, 0, PURPOSE_PERTURB))
    return {"evolved": evolved, "static": static}


def forward_us() -> dict[str, float]:
    """Median microseconds per ``forward`` for each fixed genome."""
    inputs = [0.1, -0.2, 0.3, -0.4]
    out = {}
    for name, net in genomes().items():
        calls = FORWARD_CALLS[name]
        samples = []
        for _ in range(REPEATS):
            state = net.reset_state()
            start = time.perf_counter()
            for _ in range(calls):
                net.forward(state, inputs)
            samples.append((time.perf_counter() - start) / calls * 1e6)
        out[name] = statistics.median(samples)
    return out
