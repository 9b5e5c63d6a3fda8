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

from oracles import graph, naive_rollout, set_parameters

# Floats whose shortest repr is unusual: a negative zero, the smallest
# subnormal, and the points where repr switches to and from exponent form.
ODD_FLOATS = [-0.0, 5e-324, 1e-07, 1e16, 1e22, 1.7976931348623157e308]


def _walk(seed, steps, d_in=3):
    """A genome grown by ``steps`` mutations, with its parameters perturbed."""
    net = new_minimal(d_in, 2)
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

    def odd(g):
        for i, node in enumerate(g.nodes.values()):
            node.bias = -value if i % 2 else value
            for src in node.inputs:
                node.inputs[src] = value

    set_parameters(net, odd)
    text = net.to_json()
    assert text == to_json(net.to_obj())
    assert DynamicNet.deserialize(net.serialize()).to_json() == text


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("where", ["bias", "weight"])
def test_text_rejects_a_non_finite_parameter(value, frozen, where):
    net = build_static(3, 1) if frozen else _walk(2, 30)

    def spoil(g):
        node = g.nodes[g.output_ids[0]]
        if where == "bias":
            node.bias = value
        else:
            node.inputs[next(iter(node.inputs))] = value

    set_parameters(net, spoil)
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
# a frozen genome: one shared topology and one weight vector


def _owns_one_vector(net):
    """``net`` holds its topology and one float64 vector, and no per-node weights."""
    assert set(vars(net)) == {"topology", "weights"}
    assert type(net.weights) is np.ndarray and net.weights.dtype == np.float64
    assert net.weights.flags.c_contiguous and net.weights.flags.writeable
    assert net.weights.shape == (net.d_input + net.param_count(),)
    assert not hasattr(net, "nodes")


def test_frozen_genome_holds_one_vector_and_no_nodes():
    net = build_static(4, 2)
    _owns_one_vector(net)
    assert net.weights.tolist() == graph(net).parameters()
    assert (net.node_count(), net.connection_count(), net.param_count()) == (106, 7800, 7902)
    with pytest.raises(ValueError, match="frozen"):
        net.mutate(RngStream(0))


def test_copies_of_a_static_genome_share_one_topology():
    net = build_static(4, 2)
    twins = [net.copy(), net.copy().copy()]
    twins[0].perturb_parameters(RngStream(1), 0.1)
    assert all(twin.topology is net.topology for twin in twins)
    for twin in twins:
        _owns_one_vector(twin)
        assert not np.shares_memory(twin.weights, net.weights)
    assert not net.weights.any() and twins[0].weights.any() and not twins[1].weights.any()
    spec = get_spec("CartPole-v1")
    pop = init_population(EvolutionConfig("CartPole-v1", mode="static", population_size=4),
                          spec)
    assert len({id(a.genome.topology) for a in pop.agents}) == 1
    assert len({id(a.genome.weights) for a in pop.agents}) == 4


def test_pickled_copies_share_one_topology():
    net = build_static(3, 1)
    net.perturb_parameters(RngStream(2), 0.1)
    text, dot = net.to_json(), net.to_dot()
    shard = pickle.loads(pickle.dumps([net, net.copy()]))
    topology = shard[0].topology
    assert shard[1].topology is topology
    assert topology == net.topology
    for twin in shard:
        _owns_one_vector(twin)
    assert not np.shares_memory(shard[0].weights, shard[1].weights)
    assert shard[0].to_json() == text and shard[1].to_dot() == dot


def test_an_evolving_genome_has_no_topology():
    net = _walk(4, 20)
    assert net.topology is None and not net.architecture_frozen
    twin = graph(build_static(3, 1))  # a frozen genome's nodes, evolving
    assert twin.topology is None and not twin.architecture_frozen
    assert twin.to_json() == to_json(twin.to_obj())


def test_loaded_evolving_agents_build_no_topology():
    cfg = EvolutionConfig("CartPole-v1", mode="dynamic", population_size=6, generations=2)
    pop, records = run_evolution(cfg)
    loaded, _, _ = load_checkpoint(save_checkpoint(pop, cfg, records))
    assert all(a.genome.topology is None for a in loaded.agents)


def test_loaded_frozen_agents_share_one_topology():
    cfg = EvolutionConfig("CartPole-v1", mode="static", population_size=6, generations=1)
    pop, records = run_evolution(cfg)
    loaded, _, _ = load_checkpoint(save_checkpoint(pop, cfg, records))
    assert len({id(a.genome) for a in loaded.agents}) == 3  # survivor i is slot i and i + 3
    assert len({id(a.genome.topology) for a in loaded.agents}) == 1
    for agent in loaded.agents:
        _owns_one_vector(agent.genome)


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
    topologies = [a.genome.topology for a in loaded.agents]
    assert len({id(t) for t in topologies}) == 2
    assert topologies[0] is topologies[2] is topologies[3] is not topologies[1]
    assert loaded.agents[1].genome.param_count() == build_static(4, 2).param_count() - 1
    assert save_checkpoint(loaded, cfg2, records2) == data


# ----------------------------------------------------------------------
# perturbation


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sigma", [0.1, 0.6, 3])
def test_frozen_perturbation_equals_the_evolving_loop(seed, sigma):
    """The vector perturbation adds the evolving loop's draws to the same
    parameters bit for bit, and both consume the same draws."""
    net = build_static(3, 2)
    net.perturb_parameters(RngStream(seed + 100), 1.0)
    set_parameters(net, lambda g: g.nodes[g.output_ids[1]].inputs.update({60: -0.0}))
    twin = graph(net)
    mine, theirs = RngStream(seed), RngStream(seed)
    for _ in range(3):
        net.perturb_parameters(mine, sigma)
        twin.perturb_parameters(theirs, sigma)
        assert _bits(net.weights) == _bits(np.array(twin.parameters()))
    assert mine.normal() == theirs.normal()


# ----------------------------------------------------------------------
# loading each distinct agent once


def _post_select_static_checkpoint(population=32):
    cfg = EvolutionConfig("CartPole-v1", mode="static", population_size=population,
                          generations=1, master_seed=4)
    pop, records = run_evolution(cfg)
    return save_checkpoint(pop, cfg, records)


def test_load_decodes_each_distinct_agent_once(monkeypatch):
    data = _post_select_static_checkpoint()
    parsed = []
    from_obj = DynamicNet.from_obj.__func__
    monkeypatch.setattr(DynamicNet, "from_obj",
                        classmethod(lambda cls, obj: parsed.append(obj) or from_obj(cls, obj)))
    loaded, cfg, records = load_checkpoint(data)
    assert len(parsed) == 16
    agents = loaded.agents
    assert all(agents[i] is agents[i + 16] for i in range(16))
    assert len({id(a) for a in agents}) == 16
    assert save_checkpoint(loaded, cfg, records) == data


@pytest.mark.parametrize("value,refused", [(-0.0, False), (0, True), (False, True)])
def test_load_merges_only_exactly_equal_records(value, refused):
    """``==`` takes -0.0 for 0.0, 0 for 0.0 and false for 0.0: none of them
    may merge a record into its twin."""
    data = _post_select_static_checkpoint(4)
    frame = (CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    obj = decode_framed(data, *frame, CheckpointFormatError, "checkpoint")
    genome = obj["agents"][3]["genome"]  # slot 1's twin
    genome["nodes"][0]["bias"] = value  # an input's bias, 0.0 as saved
    assert obj["agents"][3]["genome"] == obj["agents"][1]["genome"]
    data = encode_framed(*frame, obj)
    if refused:
        with pytest.raises(CheckpointFormatError, match="node bias must be float"):
            load_checkpoint(data)
        return
    loaded, cfg, records = load_checkpoint(data)
    assert loaded.agents[2] is loaded.agents[0]
    assert loaded.agents[3] is not loaded.agents[1]
    assert math.copysign(1.0, loaded.agents[3].genome.weights[0]) == -1.0
    assert save_checkpoint(loaded, cfg, records) == data


# ----------------------------------------------------------------------
# the forward pass of a shared-topology batch


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _perturbed_static(d_in, d_out, count):
    base = build_static(d_in, d_out)
    nets = []
    for i in range(count):
        net = base.copy()
        net.perturb_parameters(RngStream(i), 0.6)
        nets.append(net)
    hidden = d_in + d_out  # the first hidden node
    set_parameters(nets[1], lambda g: g.nodes[hidden].inputs.update({0: math.inf}))
    set_parameters(nets[2], lambda g: setattr(g.nodes[hidden + 60], "bias", -math.inf))
    set_parameters(nets[3], lambda g: g.nodes[d_in].inputs.update({hidden + 50: math.inf}))
    set_parameters(nets[4], lambda g: g.nodes[hidden + 3].inputs.update({hidden: -0.0}))
    set_parameters(nets[4], lambda g: setattr(g.nodes[d_in + 1], "bias", -0.0))
    return nets


def _shallow(d_in, d_out):
    """A 2-layer genome: the minimal one with three connections grown."""
    net = new_minimal(d_in, d_out)
    for rng in derive_streams(9, 0, range(3), PURPOSE_MUTATE):
        net.grow_connection(rng)
    net.perturb_parameters(RngStream(9), 1.0)
    return net


def _batches(d_in, d_out):
    nets = _perturbed_static(d_in, d_out, 32)
    grown = [_walk(seed, 30, d_in) for seed in range(3)]
    shallow, deep = _shallow(d_in, d_out), [_walk(4, 40, d_in), _walk(5, 80, d_in)]
    assert shallow.layer_count == 2 and shallow.connection_count() == 3
    assert min(net.layer_count for net in deep) > nets[0].layer_count
    # A second frozen structure, as a foreign static checkpoint may hold.
    walked = DynamicNet.from_obj({**_walk(6, 30, d_in).to_obj(), "architecture_frozen": True})
    others = [walked.copy() for _ in range(3)]
    for i, net in enumerate(others):
        net.perturb_parameters(RngStream(40 + i), 0.6)
    assert walked.topology != nets[0].topology
    return {
        "one frozen row": [nets[1]],
        "32 rows of one topology": nets,
        "shared rows": nets[:5] + [nets[0]],
        "frozen and evolving rows": [grown[0], nets[1], nets[2], grown[1], grown[1], nets[3],
                                     nets[4], grown[2], nets[0]],
        "evolving rows of different depths": [nets[5], nets[1], shallow, deep[0], deep[1],
                                              shallow, nets[6], nets[3]],
        "frozen rows of two topologies": [nets[7], others[0], nets[1], nets[2], others[1],
                                          others[0], nets[8], others[2]],
    }


@pytest.mark.parametrize("batch", ["one frozen row", "32 rows of one topology", "shared rows",
                                   "frozen and evolving rows",
                                   "evolving rows of different depths",
                                   "frozen rows of two topologies"])
@pytest.mark.parametrize("d_in,d_out", [(3, 2), (4, 2)])
def test_pass_state_over_shared_topology_matches_per_genome_compiles(batch, d_in, d_out):
    rows = _batches(d_in, d_out)[batch]
    state = PassState(rows)
    # The rows' evolving twins, compiled as one block of genomes, give the same
    # plan as the rows, also where it copies one shared topology's plan ...
    twins = PassState([graph(net) for net in rows])
    for (src, w, dst, _), (src2, w2, dst2, _) in zip(state.layers, twins.layers, strict=True):
        assert src.dtype == src2.dtype and _bits(src) == _bits(src2)
        assert _bits(w) == _bits(w2)
        assert _bits(dst) == _bits(dst2)
    assert _bits(state.out_slots) == _bits(twins.out_slots)
    # ... and each row steps as its genome alone, and as the naive interpreter,
    # which compiles no plan.
    frozen = [net for net in rows if net.topology is not None]
    assert len({id(net.topology) for net in frozen}) == (
        2 if batch == "frozen rows of two topologies" else 1)
    alone = [PassState([net]) for net in rows]
    rng = RngStream(21)
    xs = [rng.uniform(-3.0, 3.0, (d_in, len(rows))) for _ in range(6)]
    naive = [naive_rollout(net, [x[:, r] for x in xs]) for r, net in enumerate(rows)]
    for t, x in enumerate(xs):
        state.inputs[...] = x
        with np.errstate(invalid="ignore"):  # inf * 0.0, as the episode runner allows
            got = state.step()
            for r, one in enumerate(alone):
                one.inputs[:, 0] = x[:, r]
                assert _bits(one.step()[:, 0]) == _bits(got[:, r])
                assert _bits(np.array(naive[r][t])) == _bits(got[:, r])
    if len(rows) > 2:
        assert len({_bits(got[:, r]) for r in range(len(rows))}) > 2
