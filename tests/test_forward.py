"""Forward-pass semantics against hand traces and the naive interpreter."""

import pytest

from dynevo import RngStream, new_minimal

from oracles import naive_rollout


def make_wire(weight=1.0, bias=0.0):
    net = new_minimal(1, 1)
    net._add_connection(0, 1, weight)
    net.nodes[1].bias = bias
    return net


def test_minimal_net_outputs_relu_bias():
    net = new_minimal(2, 2)
    net.nodes[2].bias = -1.0
    net.nodes[3].bias = 0.75
    state = net.reset_state()
    assert net.forward(state, [5.0, -5.0]) == [0.0, 0.75]


def test_identity_through_relu():
    net = make_wire()
    state = net.reset_state()
    assert net.forward(state, [2.0]) == [2.0]
    assert net.forward(state, [-3.0]) == [0.0]


def test_self_loop_uses_previous_pass():
    net = make_wire()
    net._add_connection(1, 1, 0.5)
    state = net.reset_state()
    assert net.forward(state, [1.0]) == [1.0]
    assert net.forward(state, [1.0]) == [1.5]
    # third pass: relu(1 + 0.5 * 1.5)
    assert net.forward(state, [1.0]) == [1.75]


def test_backward_connection_uses_previous_pass():
    # out2 -> h -> out1 with h one layer below the outputs
    net = new_minimal(1, 2)
    net.layer_count = 3
    net.nodes[1].layer = 2
    net.nodes[2].layer = 2
    h = net._new_node("hidden", 1, 0.0)
    net._add_connection(0, h.id, 1.0)
    net._add_connection(2, h.id, 1.0)   # recurrent, from output layer
    net._add_connection(h.id, 1, 1.0)
    net._add_connection(0, 2, 1.0)
    net.validate()
    state = net.reset_state()
    # pass 1: h = in (out2's previous value is 0); out1 = h; out2 = in
    assert net.forward(state, [2.0]) == [2.0, 2.0]
    # pass 2: h = in + prev(out2) = 2 + 2
    assert net.forward(state, [2.0]) == [4.0, 2.0]


def test_forward_sees_edits_between_episodes():
    net = make_wire()
    assert net.forward(net.reset_state(), [2.0]) == [2.0]
    net.nodes[1].inputs[0] = 3.0
    assert net.forward(net.reset_state(), [2.0]) == [6.0]
    net.nodes[1].bias = -1.0
    assert net.forward(net.reset_state(), [2.0]) == [5.0]


def test_dimension_mismatch_rejected():
    net = new_minimal(3, 1)
    with pytest.raises(ValueError):
        net.forward(net.reset_state(), [1.0, 2.0])


def test_reset_gives_fresh_episode():
    net = make_wire()
    net._add_connection(1, 1, 0.9)
    seq = [[1.0], [0.5], [2.0]]
    state = net.reset_state()
    first = [net.forward(state, x) for x in seq]
    state = net.reset_state()
    second = [net.forward(state, x) for x in seq]
    assert first == second


def test_forward_deterministic():
    net = new_minimal(3, 2)
    rng = RngStream(21)
    for _ in range(60):
        net.mutate(rng)
    seq = [[0.1 * i, -0.2 * i, 0.3] for i in range(5)]
    s1, s2 = net.reset_state(), net.reset_state()
    a = [net.forward(s1, x) for x in seq]
    b = [net.forward(s2, x) for x in seq]
    assert a == b


@pytest.mark.parametrize("seed", range(25))
def test_matches_naive_interpreter(seed):
    """10-step rollouts on random small nets vs the two-buffer oracle."""
    rng = RngStream(seed)
    net = new_minimal(1 + seed % 4, 1 + seed % 3)
    while net.node_count() < 20:
        net.mutate(rng)
        if rng.randrange(4) == 0:
            break
    inputs = [
        [rng.normal() for _ in range(net.d_input)] for _ in range(10)
    ]
    expected = naive_rollout(net, inputs)
    state = net.reset_state()
    actual = [net.forward(state, x) for x in inputs]
    for got, want in zip(actual, expected):
        for g, w in zip(got, want):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-15)
