"""Genome construction, sampling sets, counting and codecs."""

import math

import pytest

from dynevo import DynamicNet, RngStream, build_static, new_minimal
from dynevo.netgraph import GENOME_MAGIC, GENOME_VERSION, GenomeFormatError, encode_framed

from oracles import ScriptedRng, edge_weights, graph


def test_minimal_net_shape():
    net = new_minimal(3, 2)
    assert net.node_count() == 5
    assert net.connection_count() == 0
    assert net.param_count() == 2  # output biases only
    assert net.layer_count == 2
    assert not net.architecture_frozen
    assert all(net.nodes[o].bias == 0.0 for o in net.output_ids)
    net.validate()


def test_minimal_smallest():
    net = new_minimal(1, 1)
    assert net.node_count() == 2
    assert net.param_count() == 1


def test_minimal_param_count_biases_only():
    assert new_minimal(4, 2).param_count() == 2


@pytest.mark.parametrize("d_in,d_out", [(0, 1), (1, 0), (-3, 2)])
def test_invalid_dimensions_rejected(d_in, d_out):
    with pytest.raises(ValueError):
        new_minimal(d_in, d_out)


def test_receiving_nodes_minimal():
    net = new_minimal(3, 2)
    assert net.receiving_nodes() == [0, 1, 2]  # outputs have no in-nodes yet


def test_receiving_nodes_after_connection():
    net = new_minimal(1, 1)
    net._add_connection(0, 1, 1.0)
    assert net.receiving_nodes() == [0, 1]


def test_emitting_list_minimal_empty():
    assert new_minimal(3, 2).emitting_list() == []


def test_emitting_list_one_entry_per_connection():
    net = new_minimal(3, 2)
    rng = RngStream(7)
    for _ in range(40):
        net.mutate(rng)
    em = net.emitting_list()
    assert len(em) == net.connection_count()
    assert len(set(em)) == len(em)


def test_param_count_tracks_structure():
    net = new_minimal(4, 2)
    rng = RngStream(3)
    for _ in range(200):
        net.mutate(rng)
        hidden_and_out = sum(
            1 for n in net.nodes.values() if n.kind != "input"
        )
        assert net.param_count() == net.connection_count() + hidden_and_out


def test_static_baseline_counts():
    net = build_static(4, 2)
    assert net.param_count() == 7902
    assert net.architecture_frozen
    graph(net).validate()
    net31 = build_static(3, 1)
    assert net31.connection_count() == 7700
    assert net31.param_count() - net31.connection_count() == 101


def test_static_zero_init_forward_is_zero():
    net = build_static(3, 2)
    state = net.reset_state()
    assert net.forward(state, [1.0, -2.0, 3.0]) == [0.0, 0.0]


def test_static_rejects_mutation():
    net = build_static(2, 1)
    with pytest.raises(ValueError):
        net.mutate(RngStream(0))


def test_perturb_consumes_param_count_draws():
    net = new_minimal(3, 2)
    rng = RngStream(5)
    for _ in range(30):
        net.mutate(rng)

    class CountingRng:
        def __init__(self):
            self.asked = None

        def normal_array(self, n):
            self.asked = n
            return [0.0] * n

    counter = CountingRng()
    net.perturb_parameters(counter, 0.1)
    assert counter.asked == net.param_count()


def test_perturb_determinism():
    a, b = new_minimal(2, 2), new_minimal(2, 2)
    rng = RngStream(1)
    for _ in range(25):
        a.mutate(rng)
    b2 = DynamicNet.deserialize(a.serialize())
    a.perturb_parameters(RngStream(42), 0.1)
    b2.perturb_parameters(RngStream(42), 0.1)
    assert edge_weights(a) == edge_weights(b2)
    assert all(
        a.nodes[i].bias == b2.nodes[i].bias for i in a.nodes
    )


def test_serialize_roundtrip_minimal():
    net = new_minimal(3, 2)
    clone = DynamicNet.deserialize(net.serialize())
    assert clone.to_obj() == net.to_obj()


def test_serialize_roundtrip_preserves_everything():
    net = new_minimal(4, 3)
    rng = RngStream(9)
    for _ in range(150):
        net.mutate(rng)
    clone = DynamicNet.deserialize(net.serialize())
    assert clone.to_obj() == net.to_obj()
    assert clone.next_id == net.next_id
    assert clone.layer_count == net.layer_count


def test_deserialize_rejects_garbage():
    with pytest.raises(GenomeFormatError):
        DynamicNet.deserialize(b"not a genome at all")
    with pytest.raises(GenomeFormatError):  # nested past the recursion limit
        DynamicNet.deserialize(GENOME_MAGIC + b"\x01\x00\x00\x00" + b"[" * 100_000)


def test_deserialize_rejects_truncated():
    data = new_minimal(2, 2).serialize()
    with pytest.raises(GenomeFormatError):
        DynamicNet.deserialize(data[: len(data) // 2])


def test_deserialize_rejects_bad_version():
    data = bytearray(new_minimal(2, 2).serialize())
    data[6] = 99
    with pytest.raises(GenomeFormatError):
        DynamicNet.deserialize(bytes(data))


def _dead_hidden_node(obj):
    """Cut the hidden node's only out-connection, leaving it dead."""
    hidden = next(n for n in obj["nodes"] if n["kind"] == "hidden")
    obj["connections"] = [c for c in obj["connections"] if c[0] != hidden["id"]]
    for n in obj["nodes"]:
        n["in"] = [s for s in n["in"] if s != hidden["id"]]


def _outputs_to_layer_0(obj):
    for n in obj["nodes"]:
        if n["kind"] == "output":
            n["layer"] = 0


def _unknown_kind(obj):
    next(n for n in obj["nodes"] if n["kind"] == "hidden")["kind"] = "bogus"


def _duplicate_node(obj):
    obj["nodes"].append(dict(obj["nodes"][-1]))


def _id_past_counter(obj):
    obj["next_id"] = max(n["id"] for n in obj["nodes"])


def _unlisted_connection(obj):
    obj["connections"].append([0, obj["d_input"], 1.0])


def _input_listed_twice(obj):
    """List one of the hidden node's inputs twice; a dict would keep one."""
    hidden = next(n for n in obj["nodes"] if n["kind"] == "hidden")
    hidden["in"].append(hidden["in"][0])


def _input_without_connection(obj):
    """Drop the connection record of one of the hidden node's inputs."""
    hidden = next(n for n in obj["nodes"] if n["kind"] == "hidden")
    edge = [hidden["in"][0], hidden["id"]]
    obj["connections"] = [c for c in obj["connections"] if c[:2] != edge]


def _ids_out_of_order(obj):
    """List the hidden node first; sort-free sampling reads the nodes in id order."""
    obj["nodes"].insert(0, obj["nodes"].pop())


def _frozen_as_string(obj):
    obj["architecture_frozen"] = "false"


def _fractional_d_input(obj):
    """A count with a fraction; truncating it would give the right count."""
    obj["d_input"] += 0.7


def _string_bias(obj):
    next(n for n in obj["nodes"] if n["kind"] == "hidden")["bias"] = "0.5"


def _bool_bias(obj):
    next(n for n in obj["nodes"] if n["kind"] == "hidden")["bias"] = True


def _string_weight(obj):
    obj["connections"][0][2] = "0.5"


def _float_input_id(obj):
    hidden = next(n for n in obj["nodes"] if n["kind"] == "hidden")
    hidden["in"][0] = float(hidden["in"][0])


@pytest.mark.parametrize("edit", [
    _dead_hidden_node, _outputs_to_layer_0, _unknown_kind, _duplicate_node,
    _id_past_counter, _unlisted_connection, _input_listed_twice,
    _input_without_connection, _ids_out_of_order, _frozen_as_string,
    _fractional_d_input, _string_bias, _bool_bias, _string_weight, _float_input_id,
])
def test_from_obj_rejects_invalid_genome(edit):
    net = new_minimal(2, 1)
    net.grow_node(RngStream(0))  # inputs -> hidden 3 -> output 2
    obj = net.to_obj()
    DynamicNet.from_obj(obj).validate()
    edit(obj)
    with pytest.raises(GenomeFormatError):
        DynamicNet.from_obj(obj)
    data = encode_framed(GENOME_MAGIC, GENOME_VERSION, obj)
    with pytest.raises(GenomeFormatError):
        DynamicNet.deserialize(data)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("where", ["bias", "weight"])
def test_from_obj_rejects_non_finite_parameter(literal, where):
    """``json`` reads each literal as a non-finite float."""
    net = new_minimal(2, 1)
    net.grow_node(RngStream(0))  # inputs -> hidden 3 -> output 2
    mark = 0.123456789
    if where == "bias":
        net.nodes[3].bias = mark
    else:
        net.nodes[3].inputs[next(iter(net.nodes[3].inputs))] = mark
    text = net.to_json().replace(repr(mark), literal)
    with pytest.raises(GenomeFormatError, match="^malformed genome object: .*finite"):
        DynamicNet.deserialize(encode_framed(GENOME_MAGIC, GENOME_VERSION, text.encode()))


def test_copy_of_static_perturbs_alone():
    net = build_static(4, 2)
    twin = net.copy()
    twin.perturb_parameters(RngStream(3), 0.1)
    assert all(w == 0.0 for w in edge_weights(net).values())
    assert all(n.bias == 0.0 for n in graph(net).nodes.values())
    assert any(w != 0.0 for w in edge_weights(twin).values())
    assert twin.architecture_frozen and twin.param_count() == net.param_count()


def test_to_dot_minimal():
    dot = new_minimal(2, 1).to_dot()
    assert dot.startswith("digraph")
    for nid in (0, 1, 2):
        assert f"n{nid}" in dot
    assert sum(line.count("->") for line in dot.splitlines()) == 0


def test_to_dot_recurrent_edges_dashed():
    net = new_minimal(1, 1)
    net._add_connection(0, 1, 1.0)   # forward
    net._add_connection(1, 1, 0.5)   # self-loop, recurrent
    dot = net.to_dot()
    lines = [l for l in dot.splitlines() if "->" in l]
    assert any("n0 -> n1" in l and "dashed" not in l for l in lines)
    assert any("n1 -> n1" in l and "dashed" in l for l in lines)


def test_to_dot_deterministic():
    net = new_minimal(3, 2)
    rng = RngStream(2)
    for _ in range(30):
        net.mutate(rng)
    assert net.to_dot() == net.to_dot()


def test_reset_state_zeroed():
    net = new_minimal(2, 2)
    rng = RngStream(4)
    for _ in range(20):
        net.mutate(rng)
    state = net.reset_state()
    # one slot per node: inputs first, then non-input nodes
    assert len(state.cur) == net.node_count()
    assert all(v == 0.0 for v in state.cur)
    net.forward(state, [1.0, 1.0])
    assert all(v == 0.0 for v in net.reset_state().cur)


def test_grow_connection_saturated_noop():
    net = new_minimal(1, 1)
    # brute-force saturation check: all (receiving x non-input) pairs exist
    net._add_connection(0, 1, 1.0)
    net._add_connection(1, 1, 1.0)
    assert all(
        s in net.nodes[d].inputs
        for s in net.receiving_nodes()
        for d in net.non_input_ids()
    )
    rng = ScriptedRng(indices=[0, 0] * 16)
    outcome = net.grow_connection(rng)
    assert outcome.kind == "grow_connection" and not outcome.applied
    assert net.connection_count() == 2


def test_prune_connection_requires_edges():
    with pytest.raises(ValueError):
        new_minimal(2, 2).prune_connection(RngStream(0))


def test_prune_node_requires_hidden():
    with pytest.raises(ValueError):
        new_minimal(2, 2).prune_node(RngStream(0))


def test_mutation_reversibility():
    net = new_minimal(3, 2)
    rng = RngStream(11)
    for _ in range(20):
        net.mutate(rng)
    edges_before = set(net.emitting_list())
    out = net.grow_connection(RngStream(99))
    if out.applied:
        net._remove_connection(out.info["src"], out.info["dst"])
        assert set(net.emitting_list()) == edges_before
