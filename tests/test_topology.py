"""A frozen genome's topology: built once and shared, and the source of its
text; and the genome text, which equals ``to_json(to_obj())`` for every genome."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from dynevo import PassState, RngStream, build_static, new_minimal
from dynevo.evolution import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointFormatError,
    EvolutionConfig,
    init_population,
    load_checkpoint,
    run_evolution,
    save_checkpoint,
)
from dynevo.envs import get_spec
from dynevo.netgraph import DynamicNet, decode_framed, encode_framed, to_json
from dynevo.rng import PURPOSE_MUTATE, derive_streams

# Floats whose shortest repr is unusual: a negative zero, the smallest
# subnormal, and the points where repr switches to and from exponent form.
ODD_FLOATS = [-0.0, 5e-324, 1e-07, 1e16, 1e22, 1.7976931348623157e308]


def _walk(seed, steps):
    """A genome grown by ``steps`` mutations, with its parameters perturbed."""
    net = new_minimal(3, 2)
    for i, rng in enumerate(derive_streams(seed, 0, range(steps), PURPOSE_MUTATE)):
        net.mutate(rng)
    net.perturb_parameters(RngStream(seed), 1.0)
    return net


def _whole_checkpoint(pop, cfg, records):
    """The checkpoint bytes as ``to_json`` writes the whole checkpoint object."""
    return encode_framed(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, {
        "config": dataclasses.asdict(cfg), "generation": pop.generation,
        "master_seed": cfg.master_seed,
        "agents": [{"slot": i, **a.to_obj()} for i, a in enumerate(pop.agents)],
        "records": [dataclasses.asdict(r) for r in records],
    })


# ----------------------------------------------------------------------
# the text template


@pytest.mark.parametrize("seed", range(12))
def test_text_equals_json_of_obj_on_mutation_walks(seed):
    net = _walk(seed, 5 + 7 * seed)
    assert net.to_json() == to_json(net.to_obj())


@pytest.mark.parametrize("d_in,d_out", [(4, 2), (3, 1), (6, 3)])
def test_text_equals_json_of_obj_on_static(d_in, d_out):
    net = build_static(d_in, d_out)
    assert net.to_json() == to_json(net.to_obj())
    net.perturb_parameters(RngStream(d_in), 0.1)
    assert net.to_json() == to_json(net.to_obj())


@pytest.mark.parametrize("value", ODD_FLOATS)
@pytest.mark.parametrize("frozen", [False, True])
def test_text_equals_json_of_obj_on_odd_floats(value, frozen):
    net = build_static(3, 1) if frozen else _walk(3, 40)
    for i, node in enumerate(net.nodes.values()):
        node.bias = -value if i % 2 else value
        for src in node.inputs:
            node.inputs[src] = value
    text = net.to_json()
    assert text == to_json(net.to_obj())
    assert DynamicNet.deserialize(net.serialize()).to_json() == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("where", ["bias", "weight"])
def test_text_rejects_a_non_finite_parameter(value, frozen, where):
    net = build_static(3, 1) if frozen else _walk(2, 30)
    node = net.nodes[net.output_ids[0]]
    if where == "bias":
        node.bias = value
    else:
        node.inputs[next(iter(node.inputs))] = value
    with pytest.raises(ValueError, match="non-finite"):
        net.serialize()


@pytest.mark.parametrize("task,mode,population,generations", [
    ("Pendulum-v1", "static", 16, 2),
    ("Pendulum-v1", "dynamic", 64, 12),
])
def test_checkpoint_equals_json_of_whole_object(task, mode, population, generations):
    cfg = EvolutionConfig(task=task, mode=mode, population_size=population,
                          generations=generations, master_seed=5)
    pop, records = run_evolution(cfg)
    assert save_checkpoint(pop, cfg, records) == _whole_checkpoint(pop, cfg, records)


# ----------------------------------------------------------------------
# sharing and interning


def test_copies_of_a_static_genome_share_one_topology():
    net = build_static(4, 2)
    twins = [net.copy(), net.copy().copy()]
    twins[0].perturb_parameters(RngStream(1), 0.1)
    assert all(twin.topology() is net.topology() for twin in twins)
    spec = get_spec("CartPole-v1")
    pop = init_population(EvolutionConfig("CartPole-v1", mode="static", population_size=4),
                          spec)
    assert len({id(a.genome.topology()) for a in pop.agents}) == 1


def test_pickled_copies_share_one_topology():
    net = build_static(3, 1)
    net.perturb_parameters(RngStream(2), 0.1)
    text, dot = net.to_json(), net.to_dot()
    shard = pickle.loads(pickle.dumps([net, net.copy()]))
    topology = shard[0].topology()
    assert shard[1].topology() is topology
    assert topology == net.topology()
    assert shard[0].to_json() == text and shard[1].to_dot() == dot


def test_an_evolving_genome_has_no_topology():
    net = _walk(4, 20)
    with pytest.raises(ValueError, match="no fixed topology"):
        net.topology()
    twin = build_static(3, 1).copy()
    twin.architecture_frozen = False  # a stale topology must not be used
    with pytest.raises(ValueError, match="no fixed topology"):
        twin.topology()
    assert twin.to_json() == to_json(twin.to_obj())


def test_loaded_evolving_agents_build_no_topology():
    cfg = EvolutionConfig("CartPole-v1", mode="dynamic", population_size=6, generations=2)
    pop, records = run_evolution(cfg)
    loaded, _, _ = load_checkpoint(save_checkpoint(pop, cfg, records))
    assert all("_topology" not in vars(a.genome) for a in loaded.agents)


def test_loaded_frozen_agents_share_one_topology():
    cfg = EvolutionConfig("CartPole-v1", mode="static", population_size=6, generations=1)
    pop, records = run_evolution(cfg)
    loaded, _, _ = load_checkpoint(save_checkpoint(pop, cfg, records))
    assert len({id(a.genome) for a in loaded.agents}) == 6
    assert len({id(a.genome.topology()) for a in loaded.agents}) == 1


def test_frozen_genomes_of_different_structure_load_with_their_own_topologies():
    cfg = EvolutionConfig("CartPole-v1", mode="static", population_size=4, generations=1)
    pop, records = run_evolution(cfg)
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(save_checkpoint(pop, cfg, records), *frame, CheckpointFormatError,
                        "checkpoint")
    genome = obj["agents"][1]["genome"]
    h1, h2 = 6, 56  # the first node of each hidden layer of a CartPole net
    genome["connections"] = [c for c in genome["connections"] if c[:2] != [h1, h2]]
    next(n for n in genome["nodes"] if n["id"] == h2)["in"].remove(h1)
    data = encode_framed(*frame, obj)

    loaded, cfg2, records2 = load_checkpoint(data)
    topologies = [a.genome.topology() for a in loaded.agents]
    assert len({id(t) for t in topologies}) == 2
    assert topologies[0] is topologies[2] is topologies[3] is not topologies[1]
    assert loaded.agents[1].genome.param_count() == build_static(4, 2).param_count() - 1
    assert save_checkpoint(loaded, cfg2, records2) == data


# ----------------------------------------------------------------------
# the forward pass of a shared-topology batch


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_pass_state_over_shared_topology_matches_per_genome_compiles():
    d_in, d_out = 3, 2
    base = build_static(d_in, d_out)
    nets = []
    for i in range(5):
        net = base.copy()
        net.perturb_parameters(RngStream(i), 0.6)
        nets.append(net)
    hidden = d_in + d_out  # the first hidden node
    nets[1].nodes[hidden].inputs[0] = math.inf
    nets[2].nodes[hidden + 60].bias = -math.inf
    nets[3].nodes[d_in].inputs[hidden + 50] = math.inf
    rows = nets + [nets[0]]
    assert len({id(net.topology()) for net in rows}) == 1
    alone = [PassState([net]) for net in rows]
    batch = PassState(rows)
    rng = RngStream(21)
    for _ in range(6):
        x = rng.uniform(-3.0, 3.0, (d_in, len(rows)))
        batch.inputs[...] = x
        got = batch.step()
        for r, one in enumerate(alone):
            one.inputs[:, 0] = x[:, r]
            assert _bits(one.step()[:, 0]) == _bits(got[:, r])
    assert len({_bits(got[:, r]) for r in range(len(rows))}) > 2
