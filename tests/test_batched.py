"""The lockstep batched evaluator against scalar arithmetic and independent oracles.

The batched path must reproduce the scalar expressions bit for bit, so the
numpy primitives it relies on are checked against their ``math`` and
Python-operator counterparts, and whole batched runs are checked against
the naive interpreter in ``oracles.py`` driving the numpy transcription in
``reference_envs.py``.
"""

import dataclasses
import hashlib
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from dynevo import PassState, RngStream, build_static, new_minimal
from dynevo.envs import Discrete, RunningStandardizer, _pow2, _wrap, get_spec, run_episode_batch
from dynevo import evolution
from dynevo.evolution import (
    EvolutionConfig,
    evaluate,
    init_population,
    run_evolution,
    save_checkpoint,
    shard_count,
    variation,
)
from dynevo.rng import PURPOSE_MUTATE, PURPOSE_PERTURB, derive_stream

from oracles import edge_weights, graph, naive_forward
from reference_envs import REF_ENVS, wrap_angle

GOLDEN_DIR = Path(__file__).parent / "golden"
TASKS = sorted(REF_ENVS)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _exactness_sample():
    """Every state value in the golden files plus a seeded random sample."""
    values = []
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        for line in path.read_text().splitlines()[2:]:
            values += [float(x) for x in line.split()[1:-2]]
    rng = RngStream(20240601)
    values += rng.uniform(-50.0, 50.0, 100_000).tolist()
    values += (rng.uniform(-1.0, 1.0, 20_000) * 10.0 ** rng.uniform(-8, 8, 20_000)).tolist()
    return values


def test_numpy_primitives_bit_equal_scalar():
    values = _exactness_sample()
    x = np.array(values)
    assert _bits(np.sin(x).tolist()) == _bits([math.sin(v) for v in values])
    assert _bits(np.cos(x).tolist()) == _bits([math.cos(v) for v in values])
    two_pi = 2.0 * math.pi
    assert _bits(np.remainder(x + math.pi, two_pi).tolist()) == _bits(
        [(v + math.pi) % two_pi for v in values]
    )
    # ``x * x`` is not always ``x**2``: Python's power goes through pow().
    assert _bits(_pow2(x).tolist()) == _bits([v**2 for v in values])


def test_wrap_matches_scalar_loop_and_rows_alone():
    """``_wrap`` gives every element the reference loop's shifts, whatever its neighbours."""
    x = np.array([
        [0.5, math.pi, 4.0, 40.0, -math.pi, -4.0, -40.0, 1e3],  # 0, 0, 1, 6, 0, 1, 6, 159
        [-3.0, 3.5, 25.0, -0.0, -3.5, -25.0, -1e3, 7.0],  # 0, 1, 4, 0, 1, 4, 159, 1
    ])
    wrapped = _wrap(x, -math.pi, math.pi)
    assert _bits(wrapped.ravel().tolist()) == _bits([wrap_angle(v) for v in x.ravel().tolist()])
    rows = [_wrap(row, -math.pi, math.pi) for row in x]
    assert _bits(wrapped.ravel().tolist()) == _bits(np.concatenate(rows).tolist())


# ----------------------------------------------------------------------
# batched runner vs oracle


def _grown(d_in, d_out, seed, nodes):
    net = new_minimal(d_in, d_out)
    i = 0
    while net.node_count() < nodes:
        net.mutate(derive_stream(seed, i, 0, PURPOSE_MUTATE))
        i += 1
    net.perturb_parameters(derive_stream(seed, 0, 0, PURPOSE_PERTURB), 1.0)
    return net


def _recurrent(d_in, d_out):
    """Two hidden nodes in one layer feeding each other, plus self-loops."""
    net = new_minimal(d_in, d_out)
    net.layer_count = 3
    for out in net.output_ids:
        net.nodes[out].layer = 2
    a = net._new_node("hidden", 1, 0.1)
    b = net._new_node("hidden", 1, -0.2)
    net._add_connection(0, a.id, 1.5)
    net._add_connection(d_in - 1, b.id, -1.1)
    net._add_connection(a.id, b.id, 0.7)   # same layer: previous pass
    net._add_connection(b.id, a.id, -0.4)  # same layer: previous pass
    net._add_connection(a.id, a.id, 0.9)   # self-loop
    net._add_connection(b.id, net.output_ids[-1], 1.3)
    net._add_connection(a.id, net.output_ids[0], 0.8)
    out = net.output_ids[0]
    net._add_connection(out, out, 0.5)     # output self-loop
    net._add_connection(out, a.id, -0.3)   # from a higher layer
    net.validate()
    return net


def _huge(d_in, d_out, seed):
    net = _grown(d_in, d_out, seed, 8)
    for i, (src, dst) in enumerate(sorted(edge_weights(net))):
        net.nodes[dst].inputs[src] = 1e300 if i % 2 == 0 else -1e300
    return net


# Per task, the velocity input that a bang-bang "pump" controller follows.
PUMP_INPUT = {
    "CartPole-v1": 3,
    "MountainCar-v0": 1,
    "MountainCarContinuous-v0": 1,
    "Acrobot-v1": 5,
    "Pendulum-v1": 2,
}


def _pump(task, d_in, d_out):
    """Push with the sign of one velocity: reaches the goal at varying steps."""
    net = new_minimal(d_in, d_out)
    v = PUMP_INPUT[task]
    net._add_connection(v, net.output_ids[-1], 1000.0)
    if d_out > 1:
        net._add_connection(v, net.output_ids[0], -1000.0)
    return net


def _shard(task):
    spec = get_spec(task)
    d_in, d_out = spec.obs_dim, spec.action_space.arity
    static = build_static(d_in, d_out)
    static.perturb_parameters(derive_stream(5, 0, 0, PURPOSE_PERTURB), 0.1)
    return [
        new_minimal(d_in, d_out),
        _grown(d_in, d_out, 1, 6),
        _grown(d_in, d_out, 2, 16),
        _recurrent(d_in, d_out),
        static,
        _huge(d_in, d_out, 3),
        _grown(d_in, d_out, 4, 11),
        _pump(task, d_in, d_out),
        _pump(task, d_in, d_out),
    ]


def _observe(task, s):
    if task == "Pendulum-v1":
        return [math.cos(s[0]), math.sin(s[0]), s[1]]
    if task == "Acrobot-v1":
        return [math.cos(s[0]), math.sin(s[0]), math.cos(s[1]), math.sin(s[1]), s[2], s[3]]
    return [float(v) for v in s]


def _oracle_fitness(net, task, seeds, moments):
    """Mean episode reward through naive_forward and the reference dynamics.

    ``moments`` is a ``[count, mean, m2]`` Welford state, updated in place,
    or None when the task does not standardize.
    """
    spec = get_spec(task)
    net = graph(net)
    total = 0.0
    for seed in seeds:
        env = REF_ENVS[task]()
        s = env.reset(seed)
        prev = {nid: 0.0 for nid in net.non_input_ids()}
        episode = 0.0
        for _ in range(spec.max_steps):
            obs = _observe(task, s)
            if moments is not None:
                moments[0] += 1
                count, mean, m2 = moments
                for i, x in enumerate(obs):
                    delta = x - mean[i]
                    mean[i] += delta / count
                    m2[i] += delta * (x - mean[i])
                obs = [
                    (x - mean[i]) / (math.sqrt(m2[i] / count) + 1e-8) if count >= 2 else 0.0
                    for i, x in enumerate(obs)
                ]
            out, prev = naive_forward(net, prev, obs)
            if isinstance(spec.action_space, Discrete):
                action = max(range(len(out)), key=lambda i: out[i])
            else:
                low, high = spec.action_space.low, spec.action_space.high
                action = [
                    min(max(o, 0.0), 1.0) * (high[i] - low[i]) + low[i]
                    for i, o in enumerate(out)
                ]
            s, reward, done = env.step(action)
            episode += reward
            if done:
                break
        total += episode
    return total / len(seeds)


@pytest.mark.parametrize("task", TASKS)
def test_batched_runner_matches_oracle(task):
    spec = get_spec(task)
    nets = _shard(task)
    # rows 0, 3 and 6 share reset seeds, as do 1, 4 and 7, and 2, 5 and 8
    seeds = [[(r % 3) * 7 + e for e in range(spec.episodes_per_eval)] for r in range(len(nets))]
    standardizers = [RunningStandardizer(spec.obs_dim) for _ in nets]
    got = run_episode_batch(nets, spec, standardizers, seeds)

    want, moments = [], []
    for net, row_seeds in zip(nets, seeds):
        m = [0, [0.0] * spec.obs_dim, [0.0] * spec.obs_dim] if spec.standardize_inputs else None
        want.append(_oracle_fitness(net, task, row_seeds, m))
        moments.append(m)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)
    if spec.standardize_inputs:
        for s, m in zip(standardizers, moments):
            assert s.count == m[0]
            assert s.mean == pytest.approx(m[1], rel=1e-9, abs=1e-12)
            assert s.m2 == pytest.approx(m[2], rel=1e-9, abs=1e-12)
    if task in ("CartPole-v1", "MountainCar-v0", "Acrobot-v1"):
        # a constant reward per step: the rows end at different steps
        assert len(set(got)) > 2


def test_pass_state_rows_equal_one_row_plans():
    """One genome may fill several rows, as ``test_elite`` batches the elite."""
    d_in, d_out = 4, 2
    grown = _grown(d_in, d_out, 2, 16)
    static = build_static(d_in, d_out)
    static.perturb_parameters(RngStream(6), 0.1)
    nets = [grown, _recurrent(d_in, d_out), grown, static, _grown(d_in, d_out, 4, 11), grown]
    batch = PassState(nets)
    alone = [PassState([net]) for net in nets]
    rng = RngStream(13)
    for _ in range(8):
        x = rng.uniform(-2.0, 2.0, (d_in, len(nets)))
        batch.inputs[...] = x
        got = batch.step()
        for r, state in enumerate(alone):
            state.inputs[:, 0] = x[:, r]
            assert _bits(state.step()[:, 0].tolist()) == _bits(got[:, r].tolist())
    assert len({tuple(got[:, r]) for r in range(len(nets))}) > 2


@pytest.mark.parametrize("task", TASKS)
def test_batched_rows_equal_single_runs(task):
    """A row's result does not depend on the other rows of its batch."""
    spec = get_spec(task)
    nets = _shard(task)
    seeds = [[r + e for e in range(spec.episodes_per_eval)] for r in range(len(nets))]
    fresh = lambda: RunningStandardizer(spec.obs_dim)  # used by Pendulum only
    batched = run_episode_batch(nets, spec, [fresh() for _ in nets], seeds)
    alone = [run_episode_batch([net], spec, [fresh()], [s])[0] for net, s in zip(nets, seeds)]
    assert _bits(batched) == _bits(alone)


# ----------------------------------------------------------------------
# worker-count independence


def _digests(task, workers):
    cfg = EvolutionConfig(
        task=task, population_size=10, generations=3, master_seed=4, workers=workers
    )
    pop, records = run_evolution(cfg)
    records = [dataclasses.replace(r, elapsed_seconds=0.0) for r in records]
    rows = "\n".join(r.csv_row() for r in records).encode()
    ckpt = save_checkpoint(pop, dataclasses.replace(cfg, workers=1), records)
    return hashlib.sha256(rows).hexdigest(), hashlib.sha256(ckpt).hexdigest()


@pytest.fixture
def forced_shards(monkeypatch):
    """Shard any batch into up to ``workers`` shards, whatever its edges and the host."""
    monkeypatch.setattr(evolution, "MIN_SHARD_EDGES", 1)
    monkeypatch.setattr(evolution, "usable_cores", lambda: 4)


@pytest.mark.parametrize("task", ["CartPole-v1", "Pendulum-v1"])
def test_digests_independent_of_worker_count(task, forced_shards, monkeypatch):
    submitted = []
    real_submit = ProcessPoolExecutor.submit

    def counting_submit(self, fn, *args):
        submitted.append(len(args[0][0]))
        return real_submit(self, fn, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", counting_submit)
    one = _digests(task, 1)
    assert submitted == []
    two = _digests(task, 2)
    assert submitted == [5, 5] * 3
    submitted.clear()
    # population 10 over 3 workers gives uneven shards (3, 3, 4)
    three = _digests(task, 3)
    assert submitted == [3, 3, 4] * 3
    assert one == two == three


# ----------------------------------------------------------------------
# the shard-count rule


class _Unsummed:
    def param_count(self):
        raise AssertionError("edges summed")


def _cores(monkeypatch, n):
    monkeypatch.setattr(evolution, "usable_cores", lambda: n)


def test_shard_count_small_dynamic_population_runs_as_one(monkeypatch):
    spec = get_spec("Pendulum-v1")
    genomes = [new_minimal(spec.obs_dim, spec.action_space.arity) for _ in range(64)]
    for cores in (2, 8):
        _cores(monkeypatch, cores)
        assert shard_count(genomes, 8) == 1


def test_shard_count_static_population_shards(monkeypatch):
    genomes = [build_static(3, 1)] * 32  # 253k plan edges
    _cores(monkeypatch, 2)
    assert shard_count(genomes, 2) == 2


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_shard_count_never_exceeds_usable_cores(monkeypatch, cores):
    genomes = [build_static(3, 1)] * 32
    _cores(monkeypatch, cores)
    for workers in (1, 2, 4, 16):
        assert shard_count(genomes, workers) == min(workers, cores)


def test_shard_count_one_worker_sums_no_edges(monkeypatch):
    _cores(monkeypatch, 8)
    assert shard_count([_Unsummed()] * 64, 1) == 1


# ----------------------------------------------------------------------
# failures while scoring name the generation and the slots


def _pendulum_population(size=10):
    cfg = EvolutionConfig(task="Pendulum-v1", population_size=size, workers=2)
    spec = get_spec(cfg.task)
    pop = init_population(cfg, spec)
    variation(pop, cfg)
    return pop, cfg, spec


@pytest.mark.parametrize("pooled, slots", [(False, "0-9"), (True, "5-9")])
def test_scoring_failure_names_generation_and_slots(forced_shards, pooled, slots):
    pop, cfg, spec = _pendulum_population()
    pop.generation = 4
    pop.agents[7].genome = new_minimal(2, 1)  # does not fit Pendulum's 3 inputs
    pool = ProcessPoolExecutor(max_workers=2) if pooled else None
    try:
        with pytest.raises(RuntimeError) as exc:
            evaluate(pop, cfg, spec, pool)
    finally:
        if pool is not None:
            pool.shutdown()
    assert str(exc.value).startswith(f"generation 4: scoring slots {slots} failed: ValueError")
    assert "do not match Pendulum-v1" in str(exc.value)


@pytest.mark.parametrize("pooled", [False, True])
def test_non_finite_fitness_names_generation(forced_shards, monkeypatch, pooled):
    pop, cfg, spec = _pendulum_population()
    pop.generation = 6
    # Forked workers inherit the patched name.
    monkeypatch.setattr(evolution, "run_episode_batch",
                        lambda genomes, *_: [math.nan] * len(genomes))
    pool = ProcessPoolExecutor(max_workers=2) if pooled else None
    try:
        with pytest.raises(RuntimeError, match="^generation 6: non-finite fitness nan "
                                               "for agent slot 0$"):
            evaluate(pop, cfg, spec, pool)
    finally:
        if pool is not None:
            pool.shutdown()
