"""Independent oracles the tests check the package against.

Everything here deliberately avoids the package's own fast paths: the
forward interpreter below recomputes node values straight from the node
and weight collections with an explicit two-buffer scheme, and the audit
recomputes every structural predicate from scratch. A frozen genome keeps
no nodes, so each oracle reads it through :func:`graph`, an evolving twin
built from its ``to_obj()``. :class:`CountingArray` counts the numpy calls a
step makes.
"""

import numpy as np

from dynevo.netgraph import DynamicNet, HIDDEN, INPUT, Node


class ScriptedRng:
    """Stand-in stream that returns queued values; forces mutation choices."""

    def __init__(self, indices=(), normals=()):
        self.indices = list(indices)
        self.normals = list(normals)

    def randrange(self, n):
        v = self.indices.pop(0)
        assert 0 <= v < n, f"scripted index {v} out of range {n}"
        return v

    def normal(self):
        return self.normals.pop(0) if self.normals else 0.5

    def normal_array(self, n):
        return [self.normal() for _ in range(n)]


def graph(net) -> DynamicNet:
    """``net``'s node graph: an evolving genome's own, or for a frozen genome
    an evolving twin built from its ``to_obj()``."""
    if isinstance(net, DynamicNet):
        return net
    obj = net.to_obj()
    twin = DynamicNet.__new__(DynamicNet)
    for name in ("d_input", "d_output", "layer_count", "next_id"):
        setattr(twin, name, obj[name])
    twin.nodes = {}
    for rec in obj["nodes"]:
        node = twin.nodes[rec["id"]] = Node(rec["id"], rec["kind"], rec["layer"], rec["bias"])
        node.inputs = dict.fromkeys(rec["in"])
    for src, dst, w in obj["connections"]:
        twin.nodes[dst].inputs[src] = w
        twin.nodes[src].out_ids.append(dst)
    return twin


def set_parameters(net, edit) -> None:
    """Apply ``edit`` to ``net``'s node graph; a frozen genome takes the edited
    biases and weights into its vector."""
    twin = graph(net)
    edit(twin)
    if twin is not net:
        net.weights[:] = twin.parameters()


def edge_weights(net) -> dict:
    """Every connection as ``{(src, dst): weight}``, read from the nodes' inputs."""
    net = graph(net)
    return {(src, n.id): w for n in net.nodes.values() for src, w in n.inputs.items()}


def naive_forward(net, prev: dict, inputs):
    """Two-buffer reference interpreter.

    ``prev`` maps node id -> previous-pass activation for non-input
    nodes. Returns (outputs, new_prev).
    """
    net = graph(net)
    cur = {}
    for i, nid in enumerate(net.input_ids):
        cur[nid] = float(inputs[i])
    order = sorted(
        (n for n in net.nodes.values() if n.kind != INPUT),
        key=lambda n: (n.layer, n.id),
    )
    for node in order:
        acc = node.bias
        for src, w in node.inputs.items():
            if net.nodes[src].layer < node.layer:
                acc += w * cur[src]
            else:
                acc += w * prev[src]
        cur[node.id] = max(0.0, acc)
    new_prev = {n.id: cur[n.id] for n in order}
    return [cur[nid] for nid in net.output_ids], new_prev


def naive_rollout(net, input_seqs):
    """Multi-step rollout through the naive interpreter."""
    net = graph(net)
    prev = {nid: 0.0 for nid in net.non_input_ids()}
    outputs = []
    for inputs in input_seqs:
        out, prev = naive_forward(net, prev, inputs)
        outputs.append(out)
    return outputs


def audit(net):
    """From-scratch structural audit; returns a list of violations."""
    net = graph(net)
    problems = []
    weights = edge_weights(net)
    # mutual consistency of the out-lists with the inputs
    for n in net.nodes.values():
        for dst in n.out_ids:
            if (n.id, dst) not in weights:
                problems.append(f"out-list edge {n.id}->{dst} missing from the inputs")
    for (s, d), w in weights.items():
        if not isinstance(w, float):
            problems.append(f"edge {s}->{d} has weight {w!r}")
        if s not in net.nodes:
            problems.append(f"input {s}->{d} references a missing node")
            continue
        if net.nodes[s].out_ids.count(d) != 1:
            problems.append(f"edge {s}->{d} not exactly once in src out-list")
        if net.nodes[d].kind == INPUT:
            problems.append(f"edge {s}->{d} targets an input node")
    # node placement and liveness
    layers = sorted({n.layer for n in net.nodes.values()})
    if layers != list(range(net.layer_count)):
        problems.append(f"layers {layers} not contiguous 0..{net.layer_count - 1}")
    for n in net.nodes.values():
        if n.kind == INPUT and n.layer != 0:
            problems.append(f"input {n.id} not in layer 0")
        if n.kind == "output" and n.layer != net.layer_count - 1:
            problems.append(f"output {n.id} not in last layer")
        if n.kind == HIDDEN:
            if not (0 < n.layer < net.layer_count - 1):
                problems.append(f"hidden {n.id} in layer {n.layer}")
            if not n.inputs or not n.out_ids:
                problems.append(f"hidden {n.id} lacks in or out connections")
    kinds = [n.kind for n in net.nodes.values()]
    if kinds.count(INPUT) != net.d_input or kinds.count("output") != net.d_output:
        problems.append("input/output node counts drifted")
    return problems


def cleanup_fixpoint_oracle(net: DynamicNet):
    """Recompute the dead-hidden-node fixpoint by brute force.

    Returns the set of hidden node ids that survive when nodes lacking
    either side of connectivity are deleted round by round.
    """
    alive = {n.id for n in net.nodes.values()}
    edges = set(edge_weights(net))
    hidden = {n.id for n in net.nodes.values() if n.kind == HIDDEN}
    while True:
        ins = {nid: 0 for nid in alive}
        outs = {nid: 0 for nid in alive}
        for s, d in edges:
            if s in alive and d in alive:
                ins[d] += 1
                outs[s] += 1
        dead = {
            nid for nid in alive
            if nid in hidden and (ins[nid] == 0 or outs[nid] == 0)
        }
        if not dead:
            return alive & hidden
        alive -= dead
        edges = {(s, d) for s, d in edges if s in alive and d in alive}


class CountingArray(np.ndarray):
    """An array that counts the numpy calls made on it: each ufunc call or
    reduction (``__array_ufunc__``), each array-function call such as ``np.where``
    (``__array_function__``) and each item assignment (``__setitem__``).

    A call counts once when one of its operands or outputs is a counting array,
    and its array results are counting arrays again. Indexing, ``np.array`` and a
    call whose operands are all plain arrays, such as one on ``np.array``'s
    result, are not seen. Read the count with :func:`count_calls`.
    """

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        CountingArray.calls += 1
        if out is not None:
            kwargs["out"] = tuple(map(_plain, out))
        result = getattr(ufunc, method)(*map(_plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return _counting(result)

    def __array_function__(self, func, types, args, kwargs):
        CountingArray.calls += 1
        return _counting(super().__array_function__(func, types, args, kwargs))

    def __setitem__(self, key, value):
        CountingArray.calls += 1
        super().__setitem__(key, _plain(value))


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, CountingArray) else x


def _counting(x):
    if type(x) is np.ndarray:
        return x.view(CountingArray)
    if type(x) is tuple:
        return tuple(map(_counting, x))
    return x


def count_calls(fn, *arrays) -> int:
    """The numpy calls ``fn(*arrays)`` makes, each array passed as a counting view."""
    CountingArray.calls = 0
    fn(*(a.view(CountingArray) for a in arrays))
    return CountingArray.calls
