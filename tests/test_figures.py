"""The four worked mutation scenarios on the 3-input/2-output net.

Each scenario forces the sampling choices through a scripted stream and
checks the resulting structure. The scenarios chain: grow a connection,
grow three more then prune one, grow a node, and finally a node prune
whose cascade deletes a second hidden node.
"""

from dynevo import new_minimal

from oracles import ScriptedRng, audit

# Node ids in a fresh (3, 2) net: inputs 0,1,2; outputs 3,4.
IN1, IN2, IN3, OUT1, OUT2 = 0, 1, 2, 3, 4


def scenario_after_first_growth():
    net = new_minimal(3, 2)
    # receiving = [0,1,2]; pick index 2 (third input); targets = [3,4]; pick 1.
    out = net.grow_connection(ScriptedRng(indices=[2, 1]))
    assert out.applied and out.info == {"src": IN3, "dst": OUT2}
    return net


def test_grow_connection_scenario():
    net = scenario_after_first_growth()
    assert set(net.emitting_list()) == {(IN3, OUT2)}
    assert list(net.nodes[OUT2].inputs) == [IN3]
    net.validate()
    assert not audit(net)


def scenario_four_connections():
    # Reach the documented pre-prune state: in1->out1, in1->out2,
    # in3->out2, out1->out2.
    net = scenario_after_first_growth()
    # receiving currently [0,1,2,4]
    assert net.grow_connection(ScriptedRng(indices=[0, 0])).applied  # in1->out1
    assert net.grow_connection(ScriptedRng(indices=[0, 1])).applied  # in1->out2
    # receiving now [0,1,2,3,4]; pick out1 (index 3) -> out2
    assert net.grow_connection(ScriptedRng(indices=[3, 1])).applied  # out1->out2
    assert set(net.emitting_list()) == {
        (IN3, OUT2), (IN1, OUT1), (IN1, OUT2), (OUT1, OUT2)
    }
    return net


def test_emitting_list_matches_figure():
    net = scenario_four_connections()
    em = net.emitting_list()
    assert len(em) == 4
    sources = [s for s, _ in em]
    assert sources.count(IN1) == 2
    assert sources.count(IN3) == 1
    assert sources.count(OUT1) == 1


def test_prune_connection_scenario():
    net = scenario_four_connections()
    # emitting list (id order): (0,3), (0,4), (2,4), (3,4).
    # Pick entry 0 -> first node in1; out-nodes of in1 = [3, 4]; pick out2.
    out = net.prune_connection(ScriptedRng(indices=[0, 1]))
    assert out.info["src"] == IN1 and out.info["dst"] == OUT2
    assert set(net.emitting_list()) == {(IN3, OUT2), (IN1, OUT1), (OUT1, OUT2)}
    net.validate()


def scenario_with_hidden_node():
    net = scenario_four_connections()
    net.prune_connection(ScriptedRng(indices=[0, 1]))
    # Grow node: first = in2 (receiving [0,1,2,3,4] index 1), second = out2
    # (remaining [0,2,3,4] index 3), third = out1 (targets [3,4] index 0).
    out = net.grow_node(ScriptedRng(indices=[1, 3, 0]))
    assert out.applied
    return net, out.info["new"]


def test_grow_node_scenario():
    net, h = scenario_with_hidden_node()
    assert net.nodes[h].kind == "hidden"
    # a fresh hidden layer was inserted between inputs and outputs
    assert net.layer_count == 3
    assert net.nodes[h].layer == 1
    assert net.nodes[OUT1].layer == net.nodes[OUT2].layer == 2
    assert IN2 in net.nodes[h].inputs       # forward
    assert OUT2 in net.nodes[h].inputs      # recurrent (from a later layer)
    assert h in net.nodes[OUT1].inputs      # forward
    assert net.connection_count() == 6
    # 6 weights + 3 biases (hidden + two outputs)
    assert net.param_count() == 9
    net.validate()
    assert not audit(net)


def test_grow_node_from_input_is_forward():
    net = new_minimal(3, 2)
    net.grow_connection(ScriptedRng(indices=[0, 0]))
    out = net.grow_node(ScriptedRng(indices=[0, 0, 0]))
    h = out.info["new"]
    first = out.info["first"]
    assert net.nodes[first].kind == "input"
    assert net.nodes[first].layer < net.nodes[h].layer


def test_prune_node_cascade_scenario():
    # Chain where pruning one hidden node starves the other: h2 feeds h1,
    # h1 feeds out1; h2 is fed by in1. Pruning h2 leaves h1 devoid of
    # input, so the cascade deletes it too.
    net = new_minimal(3, 2)
    net.layer_count = 4
    for out in net.output_ids:
        net.nodes[out].layer = 3
    h1 = net._new_node("hidden", 1, 0.1)
    h2 = net._new_node("hidden", 2, 0.2)
    net._add_connection(IN1, h2.id, 1.0)
    net._add_connection(h2.id, h1.id, 1.0)   # backward, recurrent
    net._add_connection(h1.id, OUT1, 1.0)
    net.validate()

    # hidden ids sorted: [h1, h2]; scripted index 1 selects h2
    out = net.prune_node(ScriptedRng(indices=[1]))
    assert out.info["node"] == h2.id
    assert out.info["cascade_removed"] == 1   # h1 followed
    assert net.hidden_ids() == []
    assert net.connection_count() == 0
    assert net.layer_count == 2
    net.validate()
    assert not audit(net)


def test_prune_last_hidden_gives_bipartite_net():
    net, h = scenario_with_hidden_node()
    net.prune_node(ScriptedRng(indices=[0]))
    assert net.hidden_ids() == []
    assert net.layer_count == 2
    net.validate()


def test_chain_prune_middle_clears_all_hidden():
    # in1 -> h1 -> h2 -> h3 -> out1; pruning h2 starves h1 (no out) and
    # h3 (no in), so the cascade clears every hidden node.
    net = new_minimal(1, 1)
    net.layer_count = 5
    net.nodes[1].layer = 4
    hs = [net._new_node("hidden", i + 1, 0.0).id for i in range(3)]
    net._add_connection(0, hs[0], 1.0)
    net._add_connection(hs[0], hs[1], 1.0)
    net._add_connection(hs[1], hs[2], 1.0)
    net._add_connection(hs[2], 1, 1.0)
    net.validate()
    out = net.prune_node(ScriptedRng(indices=[1]))
    assert out.info["cascade_removed"] == 2
    assert net.hidden_ids() == []
    assert net.connection_count() == 0
    net.validate()


def test_mutate_applicability_minimal_1x1():
    net = new_minimal(1, 1)
    assert net.applicable_mutations() == ["grow_connection"]
    out = net.mutate(ScriptedRng(indices=[0, 0, 0]))
    assert out.kind == "grow_connection"


def test_mutate_applicability_minimal_3x2():
    net = new_minimal(3, 2)
    assert net.applicable_mutations() == ["grow_connection", "grow_node"]
