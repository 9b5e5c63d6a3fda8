"""Truncation-selection neuroevolution loop.

Each generation runs three stages over a population of agents:

- variation: perturb every weight and bias with N(0, sigma^2) noise and,
  for dynamic populations, apply exactly one architectural mutation;
- evaluation: score every agent on the same generation-derived episode
  seeds (seed = generation * episodes_per_eval + episode);
- selection: keep the top 50% by fitness and duplicate them; a duplicate
  is its survivor's own object until the next variation copies it, so an
  ``on_generation`` callback may read agents but must not change one.

All randomness is derived per (master_seed, generation, slot, purpose),
so results are a pure function of the config and independent of worker
count and scheduling. Evaluation runs the population as one lockstep
batch, or, when the batch carries enough plan edges to repay a process
round trip per shard, in contiguous shards on pool workers
(``shard_count``); ``workers`` is only an upper bound.
"""

import gc
import marshal
import math
import numbers
import os
import signal
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

from . import netgraph
from .envs import EnvSpec, RunningStandardizer, get_spec, run_episode_batch
from .envs import run_episode_set  # noqa: F401  (perfbench/tracer.py patches this name)
from .netgraph import DynamicNet, Genome, exact, to_json
from .rng import PURPOSE_MUTATE, PURPOSE_PERTURB, derive_streams
from .rng import derive_stream  # noqa: F401  (perfbench/tracer.py patches this name)

CHECKPOINT_MAGIC = b"DYNEVO-CKPT"
CHECKPOINT_VERSION = 1

# Held-out environment seeds for elite testing: 2**31 - 10 .. 2**31 - 1.
TEST_SEEDS = tuple(range(2**31 - 10, 2**31))


class CheckpointFormatError(ValueError):
    """Raised when checkpoint bytes fail to decode."""


_KIND_WORDS = {int: "an integer", float: "a real number", str: "a string"}


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
        """Check each field's type against its annotation (a ``float`` sigma may be
        any real number), then the ranges."""
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and type(value) is not bool
                    if f.type is float else type(value) is f.type):
                raise ValueError(f"{f.name} must be {_KIND_WORDS[f.type]}, got {value!r}")
        get_spec(self.task)
        if not 0 <= self.master_seed < 2**64:  # SeedSequence's; derive_streams wraps 2**64 to 0
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")
        if self.population_size < 2 or self.population_size % 2:
            raise ValueError("population_size must be a positive even integer")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.mode not in ("dynamic", "static"):
            raise ValueError("mode must be 'dynamic' or 'static'")
        if not (0 < self.perturb_sigma < math.inf and 0 < self.init_sigma < math.inf):
            raise ValueError("sigmas must be positive and finite")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")


@dataclass
class Agent:
    """One member of a population; its slot is its position in ``Population.agents``."""

    genome: Genome
    standardizer: RunningStandardizer
    fitness: float = math.nan

    def to_obj(self) -> dict:
        """Plain-dict form: a checkpoint's per-agent record, less the slot."""
        return self._record(self.genome.to_obj())

    def to_json(self) -> str:
        """``to_json(self.to_obj())``, with the genome's text from its ``to_json()``."""
        head, tail = to_json(self._record(0)).split('"genome":0', 1)
        return f'{head}"genome":{self.genome.to_json()}{tail}'

    def _record(self, genome) -> dict:
        return {
            "fitness": None if math.isnan(self.fitness) else self.fitness,
            "genome": genome,
            "standardizer": _standardizer_to_obj(self.standardizer),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "Agent":
        return cls(
            DynamicNet.from_obj(obj["genome"]),
            _standardizer_from_obj(obj["standardizer"]),
            math.nan if obj["fitness"] is None else exact(obj["fitness"], float, "agent fitness"),
        )

    def clone(self) -> "Agent":
        """Independent copy: the genome and standardizer share no list."""
        return Agent(self.genome.copy(), self.standardizer.copy(), self.fitness)


@dataclass
class Population:
    """Agents in slot order (slot ``i`` is ``agents[i]``); the seed is the config's.
    After ``select``, slot ``i + n/2`` holds slot ``i``'s object until ``variation``."""

    agents: list
    generation: int


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

    def csv_row(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


RunRecord.CSV_HEADER = ",".join(f.name for f in fields(RunRecord))


# ----------------------------------------------------------------------
# stages


def init_population(cfg: EvolutionConfig, spec: EnvSpec) -> Population:
    cfg.validate()
    build = netgraph.new_minimal if cfg.mode == "dynamic" else netgraph.build_static
    genome = build(spec.obs_dim, spec.action_space.arity)
    agents = [Agent(genome.copy(), RunningStandardizer(spec.obs_dim))
              for _ in range(cfg.population_size)]
    return Population(agents, 0)


def variation(pop: Population, cfg: EvolutionConfig) -> None:
    """Perturb every agent and, in dynamic mode, mutate it once; first, a slot
    whose agent a lower slot holds too (a duplicate) gets the agent's ``clone()``."""
    seen = set()
    for slot, agent in enumerate(pop.agents):
        if id(agent) in seen:
            pop.agents[slot] = agent.clone()
        seen.add(id(agent))
    seed, g, slots = cfg.master_seed, pop.generation, range(len(pop.agents))
    for agent, rng in zip(pop.agents, derive_streams(seed, g, slots, PURPOSE_PERTURB)):
        agent.genome.perturb_parameters(rng, cfg.perturb_sigma)
    if cfg.mode == "dynamic":
        for agent, rng in zip(pop.agents, derive_streams(seed, g, slots, PURPOSE_MUTATE)):
            agent.genome.mutate(rng, cfg.init_sigma)


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
    generation and the shard's slots; one agent held in two slots, or a
    pool worker that cannot start, as one naming the generation.
    """
    g = pop.generation
    first = {}
    for slot, agent in enumerate(pop.agents):
        if first.setdefault(id(agent), slot) != slot:
            raise RuntimeError(f"generation {g}: slots {first[id(agent)]} and {slot} "
                               "hold one agent; variation copies it before scoring")
    seeds = episode_seeds_for(g, spec)
    n = len(pop.agents)
    k = shard_count([a.genome for a in pop.agents], cfg.workers) if pool is not None else 1
    starts = [i * n // k for i in range(k + 1)]
    shards = [pop.agents[a:b] for a, b in zip(starts, starts[1:])]
    payloads = [
        ([a.genome for a in shard], [a.standardizer for a in shard], cfg.task, seeds)
        for shard in shards
    ]
    if k == 1:
        jobs = [lambda: _evaluate_one(payloads[0])]
    else:
        try:
            jobs = [pool.submit(_evaluate_one, payload).result for payload in payloads]
        except OSError as exc:  # a worker could not start: no fork, no descriptor
            raise RuntimeError(f"generation {g}: cannot start pool workers: {exc}") from exc
    for start, shard, job in zip(starts, shards, jobs):
        try:
            fitnesses, standardizers = job()
        except Exception as exc:
            raise RuntimeError(
                f"generation {g}: scoring slots {start}-{start + len(shard) - 1} "
                f"failed: {type(exc).__name__}: {exc}"
            ) from exc
        for slot, agent, fitness, standardizer in zip(range(start, n), shard, fitnesses,
                                                      standardizers):
            if not math.isfinite(fitness):
                raise RuntimeError(
                    f"generation {g}: non-finite fitness {fitness} for agent slot {slot}"
                )
            agent.fitness = fitness
            agent.standardizer = standardizer


def select(pop: Population) -> None:
    """Keep the top half (ties: lower slot) and advance a generation; slot
    ``i + n/2`` holds survivor ``i`` itself until ``variation`` copies it."""
    order = sorted(pop.agents, key=lambda a: -a.fitness)  # stable: ties keep slot order
    pop.agents = order[: len(pop.agents) // 2] * 2
    pop.generation += 1


def elite_of(pop: Population) -> Agent:
    """The fittest agent; the first, so the lowest slot, among equals."""
    return max(pop.agents, key=lambda a: a.fitness)


def _record_for(pop: Population, generation: int, elapsed: float) -> RunRecord:
    fits = sorted(a.fitness for a in pop.agents)  # the mean's sum order
    elite = elite_of(pop)
    return RunRecord(
        generation=generation,
        best_fitness=elite.fitness,
        mean_fitness=sum(fits) / len(fits),
        median_fitness=statistics.median(fits),
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
    the run; it must not change an agent, whose duplicate is the same
    object. ``resume`` continues a loaded run; the continuation is
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
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers, initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
        except OSError as exc:
            raise RuntimeError(f"generation {pop.generation}: cannot start the worker pool: "
                               f"{exc}") from exc
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
    """Built from its checked lists; ``dim`` sizes nothing, it must equal their length."""
    s = RunningStandardizer.__new__(RunningStandardizer)
    s.dim = exact(obj["dim"], int, "standardizer dim")
    s.count = exact(obj["count"], int, "standardizer count")
    s.mean = [exact(x, float, "standardizer mean") for x in obj["mean"]]
    s.m2 = [exact(x, float, "standardizer m2") for x in obj["m2"]]
    if s.count < 0 or not len(s.mean) == len(s.m2) == s.dim:
        raise ValueError("standardizer count or moments disagree with its dimension")
    return s


def _check_agents_fit(agents, cfg: EvolutionConfig) -> None:
    """Reject a decoded population that the configured run cannot evaluate."""
    if len(agents) != cfg.population_size:
        raise ValueError(f"{len(agents)} agents for population_size {cfg.population_size}")
    spec = get_spec(cfg.task)
    fit = (spec.obs_dim, spec.action_space.arity, spec.obs_dim, cfg.mode == "static")
    for slot, agent in enumerate(agents):
        genome = agent.genome
        found = (genome.d_input, genome.d_output, agent.standardizer.dim,
                 genome.architecture_frozen)
        if found != fit:
            raise ValueError(f"agent in slot {slot} does not fit a {cfg.mode} "
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
    """Encode a run as the JSON of ``{"config", "generation", "master_seed",
    "agents": [{"slot", **agent.to_obj()}, ...], "records"}``. A duplicate is
    its survivor's object until ``variation``, so each distinct agent is coded
    once (:meth:`Agent.to_json`) and its text after the opening brace written
    at each of its slots."""
    with _gc_paused():
        distinct = {id(a): a for a in pop.agents}
        bodies = {key: a.to_json()[1:].encode() for key, a in distinct.items()}
        head = to_json({"config": asdict(cfg), "generation": pop.generation,
                        "master_seed": cfg.master_seed})[:-1]
        tail = to_json([vars(r) for r in records])  # a record's fields, in order
        # The frame's header precedes the payload, so framing the payload's
        # first part and joining the rest once copies each agent's text once.
        parts = [netgraph.encode_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                                        f'{head},"agents":['.encode())]
        for i, a in enumerate(pop.agents):
            parts += (b"," if i else b"", b'{"slot":%d,' % i, bodies[id(a)])
        parts.append(f'],"records":{tail}}}'.encode())
        return b"".join(parts)


def load_checkpoint(data: bytes):
    """Decode checkpoint bytes into ``(population, config, records)``.

    Each value must have its exact JSON type, each float be finite, and the
    config have every field. The file's top-level seed must be its config's,
    each agent record's slot its position, and its records the generations
    ``0 .. generation - 1``. Records equal but for their slot are decoded
    once, into one agent, as :func:`save_checkpoint` coded them;
    :func:`variation` copies it before it changes. Frozen genomes of equal
    structure share one topology, so a static population's text template
    and plan arrays are built once.
    """
    with _gc_paused():
        obj = netgraph.decode_framed(
            data, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, CheckpointFormatError, "checkpoint"
        )
        try:
            config = obj["config"]
            cfg = EvolutionConfig(**config)
            missing = [f.name for f in fields(cfg) if f.name not in config]
            if missing:
                raise ValueError(f"config lacks {', '.join(missing)}")
            cfg.validate()
            if exact(obj["master_seed"], int, "master_seed") != cfg.master_seed:
                raise ValueError(f"master_seed {obj['master_seed']!r} differs from the "
                                 f"config's {cfg.master_seed}")
            agents, decoded, shared = [], {}, {}
            for i, rec in enumerate(obj["agents"]):
                if exact(rec["slot"], int, f"agent record {i} slot") != i:
                    raise ValueError(f"agent record {i} names slot {rec['slot']!r}")
                body = {k: v for k, v in rec.items() if k != "slot"}
                # marshal's version 2 writes each value with its exact type and,
                # for a float, its bits, where == takes 1 for 1.0 and 0.0 for -0.0.
                key = marshal.dumps(body, 2)
                agent = decoded.get(key)
                if agent is None:
                    agent = decoded[key] = Agent.from_obj(body)
                    genome = agent.genome
                    if genome.topology is not None:  # equal structures share one
                        genome.topology = shared.setdefault(genome.topology, genome.topology)
                agents.append(agent)
            _check_agents_fit(agents, cfg)
            pop = Population(agents, exact(obj["generation"], int, "generation"))
            for i, rec in enumerate(obj["records"]):
                for f in fields(RunRecord):
                    exact(rec[f.name], f.type, f"record {i} field {f.name}")
            records = [RunRecord(**r) for r in obj["records"]]
            if pop.generation < 0 or [r.generation for r in records] != list(range(pop.generation)):
                raise ValueError(f"records are not generations 0 .. {pop.generation - 1}")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointFormatError(f"corrupt checkpoint: {exc}") from exc
    return pop, cfg, records
