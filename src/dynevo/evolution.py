"""Truncation-selection neuroevolution loop.

Each generation runs three stages over a population of agents:

- variation: perturb every weight and bias with N(0, sigma^2) noise and,
  for dynamic populations, apply exactly one architectural mutation;
- evaluation: score every agent on the same generation-derived episode
  seeds (seed = generation * episodes_per_eval + episode);
- selection: keep the top 50% by fitness and duplicate them.

All randomness is derived per (master_seed, generation, slot, purpose),
so results are a pure function of the config and independent of worker
count and scheduling. Evaluation runs the population as one lockstep
batch, or, when the batch carries enough plan edges to repay a process
round trip per shard, in contiguous shards on pool workers
(``shard_count``); ``workers`` is only an upper bound.
"""

from __future__ import annotations

import gc
import math
import numbers
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, asdict

from . import netgraph
from .envs import EnvSpec, RunningStandardizer, get_spec, run_episode_batch
from .envs import run_episode_set  # noqa: F401  (perfbench/tracer.py patches this name)
from .netgraph import DynamicNet
from .rng import PURPOSE_MUTATE, PURPOSE_PERTURB, derive_stream

CHECKPOINT_MAGIC = b"DYNEVO-CKPT"
CHECKPOINT_VERSION = 1

# Held-out environment seeds for elite testing: 2**31 - 10 .. 2**31 - 1.
TEST_SEEDS = tuple(range(2**31 - 10, 2**31))


class CheckpointFormatError(ValueError):
    """Raised when checkpoint bytes fail to decode."""


@dataclass
class EvolutionConfig:
    task: str
    population_size: int = 64
    generations: int = 100
    perturb_sigma: float = 0.1
    init_sigma: float = 1.0
    mode: str = "dynamic"
    master_seed: int = 0
    workers: int = 1
    checkpoint_every: int = 0

    def validate(self) -> None:
        for name in ("population_size", "generations", "master_seed", "workers",
                     "checkpoint_every"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("perturb_sigma", "init_sigma"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("task", "mode"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ValueError(f"{name} must be a string, got {value!r}")
        get_spec(self.task)
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be a positive even integer")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.mode not in ("dynamic", "static"):
            raise ValueError("mode must be 'dynamic' or 'static'")
        if self.perturb_sigma <= 0 or self.init_sigma <= 0:
            raise ValueError("sigmas must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass
class Agent:
    genome: DynamicNet
    standardizer: RunningStandardizer
    fitness: float = math.nan
    slot: int = 0

    def to_obj(self) -> dict:
        """Plain-dict form: a checkpoint's per-agent record."""
        return {
            "slot": self.slot,
            "fitness": None if math.isnan(self.fitness) else self.fitness,
            "genome": self.genome.to_obj(),
            "standardizer": _standardizer_to_obj(self.standardizer),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Agent":
        return cls(
            DynamicNet.from_obj(obj["genome"]),
            _standardizer_from_obj(obj["standardizer"]),
            math.nan if obj["fitness"] is None else float(obj["fitness"]),
            int(obj["slot"]),
        )

    def clone(self) -> "Agent":
        """Independent copy: the genome and standardizer share no list."""
        return Agent(self.genome.copy(), self.standardizer.copy(), self.fitness, self.slot)


@dataclass
class Population:
    agents: list
    generation: int
    master_seed: int


@dataclass
class RunRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    median_fitness: float
    elite_params: int
    elite_nodes: int
    elite_connections: int
    elapsed_seconds: float

    CSV_HEADER = (
        "generation,best_fitness,mean_fitness,median_fitness,"
        "elite_params,elite_nodes,elite_connections,elapsed_seconds"
    )

    def csv_row(self) -> str:
        return (
            f"{self.generation},{self.best_fitness!r},{self.mean_fitness!r},"
            f"{self.median_fitness!r},{self.elite_params},{self.elite_nodes},"
            f"{self.elite_connections},{self.elapsed_seconds!r}"
        )


# ----------------------------------------------------------------------
# stages


def init_population(cfg: EvolutionConfig, spec: EnvSpec) -> Population:
    cfg.validate()
    build = netgraph.new_minimal if cfg.mode == "dynamic" else netgraph.build_static
    genome = build(spec.obs_dim, spec.action_space.arity)
    agents = [
        Agent(genome.copy(), RunningStandardizer(spec.obs_dim), slot=i)
        for i in range(cfg.population_size)
    ]
    return Population(agents, 0, cfg.master_seed)


def variation(pop: Population, cfg: EvolutionConfig) -> None:
    g = pop.generation
    for agent in pop.agents:
        agent.genome.perturb_parameters(
            derive_stream(pop.master_seed, g, agent.slot, PURPOSE_PERTURB),
            cfg.perturb_sigma,
        )
        if cfg.mode == "dynamic":
            agent.genome.mutate(
                derive_stream(pop.master_seed, g, agent.slot, PURPOSE_MUTATE),
                cfg.init_sigma,
            )


def episode_seeds_for(generation: int, spec: EnvSpec) -> list[int]:
    e = spec.episodes_per_eval
    return [generation * e + i for i in range(e)]


# Plan edges (connections plus biases) that each worker shard must carry
# before sharding pays: below this per shard, the pickle round trip and the
# step loop's fixed cost repeated in every shard outweigh the split work.
# The crossover measurement is in the README, "How evaluation runs".
MIN_SHARD_EDGES = 8192


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def shard_count(genomes, workers: int) -> int:
    """How many shards to cut a batch of ``genomes`` into.

    At most ``workers``, the usable cores and the batch size, and at most
    one shard per ``MIN_SHARD_EDGES`` plan edges in the batch; never fewer
    than one.
    """
    limit = min(workers, usable_cores(), len(genomes))
    if limit <= 1:
        return 1
    edges = sum(g.param_count() for g in genomes)
    return max(1, min(limit, edges // MIN_SHARD_EDGES))


def _evaluate_one(payload):
    """Score one shard: ``(genomes, standardizers, task, seeds)`` -> ``(fitnesses, standardizers)``."""
    genomes, standardizers, task, seeds = payload
    spec = get_spec(task)
    fitnesses = run_episode_batch(genomes, spec, standardizers, [seeds] * len(genomes))
    return fitnesses, standardizers


def evaluate(pop: Population, cfg: EvolutionConfig, spec: EnvSpec, pool=None) -> None:
    """Score every agent on this generation's shared episode seeds.

    The population is cut into ``shard_count`` contiguous shards, each
    run as one lockstep batch. One shard (always, without a pool) runs in
    this process; several each make one round trip to a pool worker. A
    failure while scoring a shard is raised as ``RuntimeError`` naming the
    generation and the shard's slots.
    """
    g = pop.generation
    seeds = episode_seeds_for(g, spec)
    n = len(pop.agents)
    k = shard_count([a.genome for a in pop.agents], cfg.workers) if pool is not None else 1
    shards = [pop.agents[i * n // k : (i + 1) * n // k] for i in range(k)]
    payloads = [
        ([a.genome for a in shard], [a.standardizer for a in shard], cfg.task, seeds)
        for shard in shards
    ]
    if k == 1:
        jobs = [lambda: _evaluate_one(payloads[0])]
    else:
        jobs = [pool.submit(_evaluate_one, payload).result for payload in payloads]
    for shard, job in zip(shards, jobs):
        try:
            fitnesses, standardizers = job()
        except Exception as exc:
            raise RuntimeError(
                f"generation {g}: scoring slots {shard[0].slot}-{shard[-1].slot} "
                f"failed: {type(exc).__name__}: {exc}"
            ) from exc
        for agent, fitness, standardizer in zip(shard, fitnesses, standardizers):
            if not math.isfinite(fitness):
                raise RuntimeError(
                    f"generation {g}: non-finite fitness {fitness} for agent slot "
                    f"{agent.slot}"
                )
            agent.fitness = fitness
            agent.standardizer = standardizer


def select(pop: Population) -> None:
    """Keep the top half (ties: lower slot), duplicate it, advance a generation."""
    order = sorted(
        pop.agents, key=lambda a: (-a.fitness, a.slot)
    )
    survivors = order[: len(pop.agents) // 2]
    pop.agents = survivors + [a.clone() for a in survivors]
    for i, agent in enumerate(pop.agents):
        agent.slot = i
    pop.generation += 1


def elite_of(pop: Population) -> Agent:
    return min(pop.agents, key=lambda a: (-a.fitness, a.slot))


def _record_for(pop: Population, generation: int, elapsed: float) -> RunRecord:
    fits = sorted(a.fitness for a in pop.agents)
    n = len(fits)
    median = (
        fits[n // 2] if n % 2 else 0.5 * (fits[n // 2 - 1] + fits[n // 2])
    )
    elite = elite_of(pop)
    return RunRecord(
        generation=generation,
        best_fitness=elite.fitness,
        mean_fitness=sum(fits) / n,
        median_fitness=median,
        elite_params=elite.genome.param_count(),
        elite_nodes=elite.genome.node_count(),
        elite_connections=elite.genome.connection_count(),
        elapsed_seconds=elapsed,
    )


def run_evolution(
    cfg: EvolutionConfig,
    resume: tuple[Population, list] | None = None,
    on_generation=None,
):
    """Run the variation/evaluation/selection loop for ``cfg.generations`` generations.

    Returns ``(population, records)``. ``on_generation(pop, record)`` is
    called after each generation's selection; returning ``False`` stops
    the run. ``resume`` continues a loaded run; the continuation is
    identical to an uninterrupted one because all randomness is
    generation-keyed. The loop reads and writes no file.
    """
    cfg.validate()
    spec = get_spec(cfg.task)
    if resume is not None:
        pop, records = resume
        records = list(records)
    else:
        pop, records = init_population(cfg, spec), []

    # The pool starts its processes at the first submit, so a run whose
    # generations never shard never forks. Workers leave Ctrl-C to the parent.
    pool = None
    max_workers = min(cfg.workers, usable_cores())
    if max_workers > 1:
        pool = ProcessPoolExecutor(max_workers=max_workers, initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        while pop.generation < cfg.generations:
            start = time.perf_counter()
            g = pop.generation
            variation(pop, cfg)
            evaluate(pop, cfg, spec, pool)
            record = _record_for(pop, g, time.perf_counter() - start)
            records.append(record)
            select(pop)
            if on_generation is not None and on_generation(pop, record) is False:
                break
    finally:
        if pool is not None:
            pool.shutdown()
    return pop, records


# ----------------------------------------------------------------------
# elite testing


def test_elite(pop: Population, spec: EnvSpec):
    """Score the elite on the ten held-out test seeds, as one 10-row batch.

    Run ``r`` uses episode seeds ``TEST_SEEDS[r] + e`` for episode ``e``,
    so with several episodes per run the seed blocks overlap: for
    Pendulum (5 episodes) neighbouring runs share 4 of their 5 starts,
    and the ten runs use 14 distinct starts. This is the intended
    protocol; the acceptance baselines and the recorded solve
    generations depend on it. The elite's standardizer is copied per
    run, never shared or written back. Returns
    ``(mean_score, per_seed_scores)``.
    """
    elite = elite_of(pop)
    standardizers = [elite.standardizer.copy() for _ in TEST_SEEDS]
    seeds = [[seed + e for e in range(spec.episodes_per_eval)] for seed in TEST_SEEDS]
    scores = run_episode_batch(
        [elite.genome] * len(TEST_SEEDS), spec, standardizers, seeds
    )
    return sum(scores) / len(scores), scores


# ----------------------------------------------------------------------
# checkpointing


def _standardizer_to_obj(s: RunningStandardizer) -> dict:
    return {"dim": s.dim, "count": s.count, "mean": list(s.mean), "m2": list(s.m2)}


def _standardizer_from_obj(obj: dict) -> RunningStandardizer:
    s = RunningStandardizer(int(obj["dim"]))
    s.count = int(obj["count"])
    s.mean = [float(x) for x in obj["mean"]]
    s.m2 = [float(x) for x in obj["m2"]]
    if s.count < 0 or not len(s.mean) == len(s.m2) == s.dim:
        raise ValueError("standardizer count or moments disagree with its dimension")
    return s


def _check_agents_fit(agents, cfg: EvolutionConfig) -> None:
    """Reject a decoded population that the configured run cannot evaluate."""
    if len(agents) != cfg.population_size:
        raise ValueError(f"{len(agents)} agents for population_size {cfg.population_size}")
    spec = get_spec(cfg.task)
    fit = (spec.obs_dim, spec.action_space.arity, spec.obs_dim, cfg.mode == "static")
    for agent in agents:
        genome = agent.genome
        found = (genome.d_input, genome.d_output, agent.standardizer.dim,
                 genome.architecture_frozen)
        if found != fit:
            raise ValueError(f"agent in slot {agent.slot} does not fit a {cfg.mode} "
                             f"{cfg.task} run")


@contextmanager
def _gc_paused():
    """Hold off the cyclic garbage collector while a checkpoint is coded.

    A static population codes into some 500k small lists and dicts, none
    of them in a reference cycle. Every 700 such allocations would start a
    collection, and the full collections they lead to rescan every live
    object; on a 32-agent static checkpoint that was a third or more of
    the time to save or load it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def save_checkpoint(pop: Population, cfg: EvolutionConfig, records) -> bytes:
    with _gc_paused():
        obj = {
            "config": asdict(cfg),
            "generation": pop.generation,
            "master_seed": pop.master_seed,
            "agents": [a.to_obj() for a in pop.agents],
            "records": [asdict(r) for r in records],
        }
        return netgraph.encode_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, obj)


def load_checkpoint(data: bytes):
    """Decode checkpoint bytes into ``(population, config, records)``."""
    with _gc_paused():
        obj = netgraph.decode_framed(
            data, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointFormatError, "checkpoint"
        )
        try:
            cfg = EvolutionConfig(**obj["config"])
            cfg.validate()
            agents = [Agent.from_obj(rec) for rec in obj["agents"]]
            _check_agents_fit(agents, cfg)
            pop = Population(agents, int(obj["generation"]), int(obj["master_seed"]))
            records = [RunRecord(**r) for r in obj["records"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"corrupt checkpoint: {exc}") from exc
    return pop, cfg, records
