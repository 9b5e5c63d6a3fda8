"""Statistical and structural properties of the mutation operators."""

import copy

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from dynevo import DynamicNet, RngStream, new_minimal

from oracles import audit, cleanup_fixpoint_oracle

P_LIMIT = 0.001


def chi_square_ok(counts, expected_share):
    n = sum(counts)
    expected = [n * s for s in expected_share]
    _, p = stats.chisquare(counts, expected)
    return p > P_LIMIT


def test_structural_audit_random_walk():
    net = new_minimal(3, 2)
    rng = RngStream(1)
    for i in range(5000):
        net.mutate(rng)
        if i % 250 == 0:
            assert not audit(net)
    assert not audit(net)
    net.validate()


def test_cascade_matches_bruteforce_fixpoint():
    for seed in range(40):
        rng = RngStream(seed)
        net = new_minimal(2 + seed % 3, 1 + seed % 3)
        while net.node_count() < 30:
            net.mutate(rng)
        # knock out a few random connections without intermediate cleanup,
        # then compare one cleanup call with the brute-force fixpoint
        edges = net.emitting_list()
        for _ in range(min(4, len(edges))):
            edges = net.emitting_list()
            if not edges:
                break
            s, d = edges[rng.randrange(len(edges))]
            net._remove_connection(s, d)
        survivors = cleanup_fixpoint_oracle(net)
        net.cascade_cleanup()
        assert set(net.hidden_ids()) == survivors
        assert not audit(net)


def test_mutation_choice_uniform_two_applicable():
    base = new_minimal(3, 2)
    rng = RngStream(7)
    counts = {"grow_connection": 0, "grow_node": 0}
    n = 100_000
    for _ in range(n):
        net = copy.deepcopy(base)
        out = net.mutate(rng)
        counts[out.kind] += 1
    assert set(counts) == {"grow_connection", "grow_node"}
    assert chi_square_ok(list(counts.values()), [0.5, 0.5])


def _rich_net():
    net = new_minimal(3, 2)
    rng = RngStream(123)
    while not (net.hidden_ids() and net.connection_count() >= 4):
        net.mutate(rng)
    return net


def test_mutation_choice_uniform_four_applicable():
    base = _rich_net()
    assert len(base.applicable_mutations()) == 4
    rng = RngStream(8)
    counts = dict.fromkeys(base.applicable_mutations(), 0)
    n = 100_000
    for _ in range(n):
        # only the choice is under test; use a scripted tally without
        # mutating a fresh deep copy every round
        kind = base.applicable_mutations()[rng.randrange(4)]
        counts[kind] += 1
    assert chi_square_ok(list(counts.values()), [0.25] * 4)


def test_mutate_dispatch_applies_sampled_kind():
    base = _rich_net()
    rng = RngStream(31)
    seen = set()
    for _ in range(200):
        net = copy.deepcopy(base)
        out = net.mutate(rng)
        seen.add(out.kind)
        assert not audit(net)
    assert seen == set(base.applicable_mutations())


def test_prune_connection_uniform_over_connections():
    # fixed 6-connection net; each connection deleted ~1/6 of the time
    base = new_minimal(3, 2)
    for src, dst in [(0, 3), (0, 4), (1, 3), (2, 4), (3, 4), (4, 4)]:
        base._add_connection(src, dst, 1.0)
    rng = RngStream(9)
    counts = {e: 0 for e in base.emitting_list()}
    n = 100_000
    for _ in range(n):
        net = copy.deepcopy(base)
        out = net.prune_connection(rng)
        counts[(out.info["src"], out.info["dst"])] += 1
    assert chi_square_ok(list(counts.values()), [1 / 6] * 6)


def test_grow_connection_node_sampling_uniform():
    # first node uniform over receiving nodes (the 3 inputs here)
    base = new_minimal(3, 2)
    rng = RngStream(10)
    counts = [0, 0, 0]
    n = 100_000
    for _ in range(n):
        net = copy.deepcopy(base)
        out = net.grow_connection(rng)
        counts[out.info["src"]] += 1
    assert chi_square_ok(counts, [1 / 3] * 3)


def test_perturbation_sigma():
    net = new_minimal(1, 1)
    rng = RngStream(3)
    while net.param_count() < 50:
        net.mutate(rng)
    params = net.param_count()
    rounds = 1_000_000 // params + 1
    deltas = []
    prev = _param_vector(net)
    for _ in range(rounds):
        net.perturb_parameters(RngStream(len(deltas)), 0.1)
        cur = _param_vector(net)
        deltas.extend(c - p for c, p in zip(cur, prev))
        prev = cur
    mean = sum(deltas) / len(deltas)
    var = sum((d - mean) ** 2 for d in deltas) / len(deltas)
    assert abs(var**0.5 - 0.1) < 0.001  # within 1%


def _param_vector(net):
    out = []
    for nid in sorted(net.nodes):
        node = net.nodes[nid]
        if node.kind == "input":
            continue
        out.append(node.bias)
        out.extend(node.inputs.values())
    return out


def test_identical_seeds_identical_trajectories():
    a, b = new_minimal(4, 2), new_minimal(4, 2)
    ra, rb = RngStream(77), RngStream(77)
    for _ in range(500):
        a.mutate(ra)
        b.mutate(rb)
    assert a.to_obj() == b.to_obj()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), steps=st.integers(1, 120))
def test_mutation_walk_preserves_invariants(seed, steps):
    net = new_minimal(1 + seed % 5, 1 + seed % 4)
    rng = RngStream(seed)
    for _ in range(steps):
        net.mutate(rng)
    assert not audit(net)
    clone = DynamicNet.deserialize(net.serialize())
    assert clone.to_obj() == net.to_obj()
    before = net.to_obj()
    twin = net.copy()
    assert twin.to_obj() == before
    for _ in range(steps):
        twin.mutate(rng)
    twin.perturb_parameters(rng, 0.1)
    assert not audit(twin)
    assert net.to_obj() == before


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_roundtrip_forward_identical(seed):
    rng = RngStream(seed)
    net = new_minimal(2, 2)
    for _ in range(80):
        net.mutate(rng)
    clone = DynamicNet.deserialize(net.serialize())
    inputs = [[rng.normal(), rng.normal()] for _ in range(6)]
    s1, s2 = net.reset_state(), clone.reset_state()
    assert [net.forward(s1, x) for x in inputs] == [
        clone.forward(s2, x) for x in inputs
    ]
