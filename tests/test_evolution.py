"""Evolutionary loop: stages, RNG lineage, selection, checkpoints."""

import copy
import math

import pytest

from dynevo.envs import get_spec
from dynevo.evolution import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Agent,
    CheckpointFormatError,
    EvolutionConfig,
    Population,
    RunRecord,
    elite_of,
    episode_seeds_for,
    evaluate,
    init_population,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
    select,
    test_elite as run_test_elite,
    variation,
    TEST_SEEDS,
)
from dynevo.netgraph import decode_framed, encode_framed
from dynevo.rng import PURPOSE_MUTATE, PURPOSE_PERTURB, derive_stream


def small_cfg(**kw):
    base = dict(
        task="CartPole-v1", population_size=8, generations=5, master_seed=0
    )
    base.update(kw)
    return EvolutionConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(population_size=7).validate()
    with pytest.raises(ValueError):
        small_cfg(mode="lamarckian").validate()
    with pytest.raises(ValueError):
        small_cfg(task="Ant-v3").validate()


@pytest.mark.parametrize("field,value", [
    ("population_size", "8"),
    ("population_size", 8.0),
    ("generations", True),
    ("master_seed", None),
    ("workers", "2"),
    ("checkpoint_every", 1.5),
    ("perturb_sigma", "0.1"),
    ("init_sigma", None),
    ("task", 5),
    ("task", ["CartPole-v1"]),
    ("mode", None),
])
def test_config_validation_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        small_cfg(**{field: value}).validate()


def test_init_population_dynamic():
    cfg = small_cfg(population_size=4)
    pop = init_population(cfg, get_spec(cfg.task))
    assert len(pop.agents) == 4 and pop.generation == 0
    for agent in pop.agents:
        assert agent.genome.param_count() == 2
        assert agent.genome.connection_count() == 0


def test_init_population_static():
    cfg = small_cfg(population_size=4, mode="static")
    pop = init_population(cfg, get_spec(cfg.task))
    for agent in pop.agents:
        assert agent.genome.param_count() == 7902
        assert all(w == 0.0 for w in agent.genome.weights.values())


def test_init_deterministic():
    cfg = small_cfg()
    a = init_population(cfg, get_spec(cfg.task))
    b = init_population(cfg, get_spec(cfg.task))
    assert [x.genome.to_obj() for x in a.agents] == [
        x.genome.to_obj() for x in b.agents
    ]


def test_derive_stream_reproducible_and_distinct():
    a = derive_stream(5, 3, 0, PURPOSE_PERTURB)
    b = derive_stream(5, 3, 0, PURPOSE_PERTURB)
    assert [a.normal() for _ in range(5)] == [b.normal() for _ in range(5)]
    collisions = 0
    for seed in range(10_000):
        x = derive_stream(seed, 1, 0, PURPOSE_MUTATE).normal()
        y = derive_stream(seed, 1, 1, PURPOSE_MUTATE).normal()
        collisions += x == y
    assert collisions == 0


def test_variation_static_keeps_architecture():
    cfg = small_cfg(mode="static", population_size=2, task="CartPole-v1")
    pop = init_population(cfg, get_spec(cfg.task))
    before = pop.agents[0].genome.connection_count()
    variation(pop, cfg)
    for agent in pop.agents:
        assert agent.genome.connection_count() == before
        assert any(w != 0.0 for w in agent.genome.weights.values())


def test_variation_dynamic_one_mutation_each():
    cfg = small_cfg(population_size=4)
    pop = init_population(cfg, get_spec(cfg.task))
    variation(pop, cfg)
    for agent in pop.agents:
        # from a minimal net the only applicable mutations add structure
        assert (
            agent.genome.connection_count() >= 1
            or agent.genome.hidden_ids()
        )


def test_variation_deterministic():
    cfg = small_cfg()
    p1 = init_population(cfg, get_spec(cfg.task))
    p2 = init_population(cfg, get_spec(cfg.task))
    variation(p1, cfg)
    variation(p2, cfg)
    assert [a.genome.to_obj() for a in p1.agents] == [
        a.genome.to_obj() for a in p2.agents
    ]


def test_episode_seed_schedule():
    assert episode_seeds_for(0, get_spec("CartPole-v1")) == [0]
    assert episode_seeds_for(3, get_spec("Pendulum-v1")) == [15, 16, 17, 18, 19]


def test_select_rank_and_duplicate():
    cfg = small_cfg(population_size=4)
    pop = init_population(cfg, get_spec(cfg.task))
    for agent, f in zip(pop.agents, [1.0, 2.0, 3.0, 4.0]):
        agent.fitness = f
    ids = [id(a.genome) for a in pop.agents]
    select(pop)
    assert [a.fitness for a in pop.agents] == [4.0, 3.0, 4.0, 3.0]
    assert [a.slot for a in pop.agents] == [0, 1, 2, 3]
    assert pop.generation == 1
    # copies are deep: genomes of slots 2,3 are new objects
    assert id(pop.agents[2].genome) not in ids
    assert id(pop.agents[3].genome) not in ids


def test_select_tie_break_lowest_slot():
    cfg = small_cfg(population_size=4)
    pop = init_population(cfg, get_spec(cfg.task))
    for agent in pop.agents:
        agent.fitness = 1.0
    survivors = {0, 1}
    orig = {a.slot: a for a in pop.agents}
    select(pop)
    assert pop.agents[0] is orig[0] and pop.agents[1] is orig[1]


def test_duplicates_diverge_after_variation():
    cfg = small_cfg(population_size=4)
    pop = init_population(cfg, get_spec(cfg.task))
    variation(pop, cfg)
    evaluate(pop, cfg, get_spec(cfg.task))
    select(pop)
    # slots 0 and 2 hold identical genomes now, sharing no mutable list
    survivor, clone = pop.agents[0], pop.agents[2]
    assert clone.genome.to_obj() == survivor.genome.to_obj()
    assert list(clone.genome.nodes) == list(survivor.genome.nodes)
    assert clone.genome.weights is not survivor.genome.weights
    for nid, node in survivor.genome.nodes.items():
        assert clone.genome.nodes[nid].in_ids is not node.in_ids
        assert clone.genome.nodes[nid].out_ids is not node.out_ids
    assert clone.standardizer.__dict__ == survivor.standardizer.__dict__
    assert clone.standardizer.mean is not survivor.standardizer.mean
    assert clone.standardizer.m2 is not survivor.standardizer.m2
    variation(pop, cfg)
    assert pop.agents[0].genome.to_obj() != pop.agents[2].genome.to_obj()


def test_evaluate_sets_finite_fitness_and_is_deterministic():
    cfg = small_cfg(population_size=4)
    spec = get_spec(cfg.task)
    p1 = init_population(cfg, spec)
    p2 = init_population(cfg, spec)
    for p in (p1, p2):
        variation(p, cfg)
        evaluate(p, cfg, spec)
    assert [a.fitness for a in p1.agents] == [a.fitness for a in p2.agents]
    assert all(math.isfinite(a.fitness) for a in p1.agents)


def test_worker_count_invariance():
    spec = get_spec("CartPole-v1")
    runs = []
    for workers in (1, 4):
        cfg = small_cfg(population_size=8, generations=4, workers=workers)
        _, records = run_evolution(cfg)
        runs.append(records)
    a, b = runs
    assert len(a) == len(b) == 4
    for ra, rb in zip(a, b):
        assert (
            ra.best_fitness, ra.mean_fitness, ra.median_fitness,
            ra.elite_params, ra.elite_nodes, ra.elite_connections,
        ) == (
            rb.best_fitness, rb.mean_fitness, rb.median_fitness,
            rb.elite_params, rb.elite_nodes, rb.elite_connections,
        )


def test_run_evolution_zero_generations():
    cfg = small_cfg(generations=0)
    pop, records = run_evolution(cfg)
    assert records == [] and pop.generation == 0


def test_population_size_constant_and_best_consistent():
    cfg = small_cfg(population_size=8, generations=6)
    seen = []
    def cb(pop, rec):
        seen.append((len(pop.agents), rec))
    pop, records = run_evolution(cfg, on_generation=cb)
    assert all(n == 8 for n, _ in seen)
    for rec in records:
        assert rec.best_fitness >= rec.median_fitness


def test_static_mode_counts_constant():
    cfg = small_cfg(
        population_size=4, generations=3, mode="static", task="CartPole-v1"
    )
    counts = set()
    def cb(pop, rec):
        counts.add((rec.elite_nodes, rec.elite_connections))
    run_evolution(cfg, on_generation=cb)
    assert len(counts) == 1


def test_dynamic_capacity_can_decrease():
    cfg = small_cfg(population_size=8, generations=40, master_seed=3)
    params = []
    run_evolution(
        cfg, on_generation=lambda pop, rec: params.append(rec.elite_params)
    )
    assert any(b < a for a, b in zip(params, params[1:]))


# ----------------------------------------------------------------------
# elite testing


def test_test_seed_values():
    assert TEST_SEEDS == tuple(range(2147483638, 2147483648))
    assert len(TEST_SEEDS) == 10


def test_test_elite_deterministic():
    cfg = small_cfg(population_size=8, generations=3)
    spec = get_spec(cfg.task)
    pop, _ = run_evolution(cfg)
    m1, s1 = run_test_elite(pop, spec)
    m2, s2 = run_test_elite(pop, spec)
    assert m1 == m2 and s1 == s2
    assert len(s1) == 10
    assert m1 == pytest.approx(sum(s1) / 10)


def test_test_elite_does_not_touch_standardizer():
    cfg = EvolutionConfig(
        task="Pendulum-v1", population_size=4, generations=2, master_seed=0
    )
    spec = get_spec(cfg.task)
    pop, _ = run_evolution(cfg)
    elite = elite_of(pop)
    before = copy.deepcopy(elite.standardizer.__dict__)
    run_test_elite(pop, spec)
    assert elite.standardizer.__dict__ == before


# ----------------------------------------------------------------------
# checkpoints and resume


def run_gens(cfg, gens, resume=None):
    cfg = copy.deepcopy(cfg)
    cfg.generations = gens
    return run_evolution(cfg, resume=resume)


def test_checkpoint_roundtrip():
    cfg = small_cfg(population_size=4, generations=3)
    pop, records = run_evolution(cfg)
    blob = save_checkpoint(pop, cfg, records)
    pop2, cfg2, records2 = load_checkpoint(blob)
    assert cfg2 == cfg
    assert pop2.generation == pop.generation
    assert [a.genome.to_obj() for a in pop2.agents] == [
        a.genome.to_obj() for a in pop.agents
    ]
    assert records2 == records
    assert save_checkpoint(pop2, cfg2, records2) == blob


def test_checkpoint_rejects_corruption():
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(b"DYNEVO-CKPT\x01\x00\x00\x00{broken")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(b"something else entirely")
    with pytest.raises(CheckpointFormatError):  # nested past the recursion limit
        load_checkpoint(b"DYNEVO-CKPT\x01\x00\x00\x00" + b"[" * 100_000)


def _relabel_task(obj):
    obj["config"]["task"] = "CartPole-v1"


def _relabel_mode(obj):
    obj["config"]["mode"] = "static"


def _drop_agent(obj):
    obj["agents"].pop()


def _short_moments(obj):
    obj["agents"][1]["standardizer"]["mean"].pop()


@pytest.mark.parametrize("edit", [_relabel_task, _relabel_mode, _drop_agent, _short_moments])
def test_checkpoint_rejects_population_that_does_not_fit(edit):
    cfg = EvolutionConfig(task="Pendulum-v1", population_size=4, generations=1)
    pop, records = run_evolution(cfg)
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(save_checkpoint(pop, cfg, records), *frame,
                        CheckpointFormatError, "checkpoint")
    edit(obj)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(encode_framed(*frame, obj))


def test_resume_equivalence():
    cfg = small_cfg(population_size=8, generations=10, master_seed=1)
    _, full_records = run_evolution(cfg)

    half_pop, half_records = run_gens(cfg, 5)
    blob = save_checkpoint(half_pop, cfg, half_records)
    pop2, cfg2, recs2 = load_checkpoint(blob)
    cfg2.generations = 10
    _, resumed_records = run_evolution(cfg2, resume=(pop2, recs2))

    strip = lambda r: (
        r.generation, r.best_fitness, r.mean_fitness, r.median_fitness,
        r.elite_params, r.elite_nodes, r.elite_connections,
    )
    assert [strip(r) for r in resumed_records] == [
        strip(r) for r in full_records
    ]


def test_record_csv_header_schema():
    assert RunRecord.CSV_HEADER == (
        "generation,best_fitness,mean_fitness,median_fitness,"
        "elite_params,elite_nodes,elite_connections,elapsed_seconds"
    )
