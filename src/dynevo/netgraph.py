"""Dynamic recurrent network genomes.

A genome is a directed layered graph. Input nodes sit in layer 0, output
nodes in the last layer, and hidden nodes grow in between through four
elementary mutations: grow/prune connection and grow/prune node. Every
non-input node computes ``relu(bias + sum(w_i * x_i))`` over its ordered
in-connections. A connection headed to a strictly higher layer is consumed
within the same forward pass; a connection to the same or a lower layer
(including self-loops) delivers the source's activation from the previous
pass.

Structural conventions
----------------------
- Node ids come from a monotone per-genome counter and are never reused.
- ``(src, dst)`` connection pairs are unique; sampling over the emitting
  list is therefore exactly uniform over connections.
- Hidden nodes always keep at least one in- and one out-connection;
  :func:`DynamicNet.cascade_cleanup` removes any that do not, repeatedly,
  and drops hidden layers left empty (renumbering the rest contiguously).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .rng import RngStream

INPUT = "input"
HIDDEN = "hidden"
OUTPUT = "output"

# Genome wire format (see encode_framed).
GENOME_MAGIC = b"DYNEVO"
GENOME_VERSION = 1

# grow_connection resamples a colliding (src, dst) pair this many times
# before giving up and recording a no-op.
GROW_CONNECTION_ATTEMPTS = 16


class GenomeFormatError(ValueError):
    """Raised when genome bytes fail to decode."""


def encode_framed(magic: bytes, version: int, obj) -> bytes:
    """Wire framing shared by genomes and checkpoints.

    The bytes are ``magic``, ``version`` as a little-endian uint32, then
    ``obj`` as compact JSON (floats via ``repr``, so round-trips are exact).
    """
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return magic + struct.pack("<I", version) + payload


def decode_framed(data: bytes, magic: bytes, version: int, error: type, what: str):
    """Inverse of :func:`encode_framed`; raises ``error`` on bad framing."""
    if len(data) < len(magic) + 4 or not data.startswith(magic):
        raise error(f"not a DYNEVO {what} (bad magic header)")
    (found,) = struct.unpack_from("<I", data, len(magic))
    if found != version:
        raise error(f"unsupported {what} format version {found}")
    try:
        return json.loads(data[len(magic) + 4 :].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"corrupt {what} payload: {exc}") from exc


class Node:
    __slots__ = ("id", "kind", "layer", "bias", "in_ids", "out_ids")

    def __init__(self, nid: int, kind: str, layer: int, bias: float = 0.0):
        self.id = nid
        self.kind = kind
        self.layer = layer
        self.bias = bias
        self.in_ids: list[int] = []   # ordered; defines summation order
        self.out_ids: list[int] = []

    def copy(self) -> "Node":
        node = Node(self.id, self.kind, self.layer, self.bias)
        node.in_ids = self.in_ids.copy()
        node.out_ids = self.out_ids.copy()
        return node

    def __repr__(self) -> str:
        return f"Node({self.id}, {self.kind}, L{self.layer})"


@dataclass
class MutationOutcome:
    """What a mutation did: which kind ran and whether it changed the net."""

    kind: str
    applied: bool
    info: dict = field(default_factory=dict)


class PassState:
    """Forward-pass plan and activations for a batch of genomes, one per row.

    Row ``r`` evaluates ``nets[r]``. Every genome is compiled once into one
    block-diagonal plan over a buffer laid out as ``[cur | prev | 1.0]``:
    the current pass, the previous pass, and a constant one that bias edges
    read. Input ``d`` of row ``r`` sits at slot ``d * rows + r``, so
    ``inputs`` is a ``(d_input, rows)`` view that one assignment fills.
    Non-input nodes follow, grouped by layer index across all rows.

    Each layer runs as one ``np.bincount`` over its edges. A node's bias
    comes first, as an edge from the constant-one slot (``0 + b*1 == b``),
    followed by its ``in_ids`` in order; ``bincount`` accumulates in input
    order, so every sum is formed exactly as ``bias + w_1*x_1 + ...``. An
    edge reads ``prev`` when its source sits in the same or a higher layer
    of its genome, and ``cur`` otherwise (a lower layer, already computed).
    """

    def __init__(self, nets):
        d_in = nets[0].d_input
        rows = len(nets)
        compiled = [_compile(net) for net in nets]
        sizes = [len(c[0]) for c in compiled]
        first = d_in * rows  # first non-input slot
        n = first + sum(sizes)
        self.buf = np.zeros(2 * n + 1)
        self.buf[2 * n] = 1.0
        self.cur, self.prev = self.buf[:n], self.buf[n : 2 * n]
        self.inputs = self.buf[:first].reshape(d_in, rows)

        # Global slot of every non-input node: sorted by layer, then row;
        # within a row, compile order (layer, id) is kept by the stable sort.
        node_layer = np.concatenate([c[0] for c in compiled])
        node_row = np.repeat(np.arange(rows), sizes)
        slot = np.empty(len(node_layer), dtype=np.intp)
        slot[np.lexsort((node_row, node_layer))] = first + np.arange(len(node_layer))

        srcs, weights, dsts, layers, outs = [], [], [], [], []
        start = 0
        for r, (layer, src, w, dst, out) in enumerate(compiled):
            own = slot[start : start + len(layer)]
            start += len(layer)
            # Local slots: inputs, non-input nodes, then the constant one.
            to_global = np.concatenate((np.arange(d_in) * rows + r, own, [2 * n]))
            slot_layer = np.concatenate((np.zeros(d_in, np.intp), layer, [-1]))
            recurrent = slot_layer[src] >= layer[dst]
            srcs.append(to_global[src] + n * recurrent)
            weights.append(w)
            dsts.append(own[dst])
            layers.append(layer[dst])
            outs.append(own[out])
        edge_layer = np.concatenate(layers)
        order = np.argsort(edge_layer, kind="stable")
        src, w, dst = (np.concatenate(a)[order] for a in (srcs, weights, dsts))
        bounds = np.arange(1, node_layer.max() + 2)
        cuts = np.searchsorted(edge_layer[order], bounds)
        nodes = first + np.searchsorted(np.sort(node_layer), bounds)
        self.layers = [
            (src[a:b], w[a:b], dst[a:b] - lo, self.buf[lo:hi])
            for a, b, lo, hi in zip(cuts, cuts[1:], nodes, nodes[1:])
        ]
        self.out_slots = np.stack(outs, axis=1)  # (d_output, rows)

    def reset(self) -> None:
        """Zero both passes: the next step starts a fresh episode."""
        self.buf[:-1] = 0.0

    def step(self) -> np.ndarray:
        """One pass over every row, reading ``inputs``; returns ``(d_output, rows)``.

        ReLU is ``fmax(acc, 0.0)``, which equals ``acc if acc > 0.0 else 0.0``
        bit for bit: a NaN sum becomes 0.0, and ``bincount`` sums start from
        +0.0, so no sum is -0.0.
        """
        buf = self.buf
        for src, w, dst, out in self.layers:
            np.fmax(np.bincount(dst, weights=w * buf[src], minlength=len(out)), 0.0, out=out)
        self.prev[...] = self.cur
        return buf[self.out_slots]


def _compile(net: DynamicNet):
    """One genome as flat arrays, in the evaluation order of :class:`PassState`.

    Returns ``(layer, src, w, dst, out)``: the layer of each non-input node
    in (layer, id) order; per edge, the local source slot (inputs, then
    non-input nodes, then the constant one), weight and destination node;
    and the node index of each output in creation order.
    """
    order = sorted(
        (n for n in net.nodes.values() if n.kind != INPUT), key=lambda n: (n.layer, n.id)
    )
    d_in = net.d_input
    slot_of = {nid: nid for nid in net.input_ids}
    slot_of.update((node.id, d_in + k) for k, node in enumerate(order))
    one = d_in + len(order)
    weights = net.weights
    src, w, fan_in = [], [], []
    for node in order:
        src.append(one)
        src += [slot_of[s] for s in node.in_ids]
        w.append(node.bias)
        w += [weights[(s, node.id)] for s in node.in_ids]
        fan_in.append(len(node.in_ids) + 1)
    return (
        np.array([node.layer for node in order], dtype=np.intp),
        np.array(src, dtype=np.intp),
        np.array(w, dtype=float),
        np.repeat(np.arange(len(order)), fan_in),
        np.array([slot_of[nid] - d_in for nid in net.output_ids], dtype=np.intp),
    )


class DynamicNet:
    """The genome: nodes, weighted connections and layer structure."""

    def __init__(self, d_input: int, d_output: int):
        if d_input < 1 or d_output < 1:
            raise ValueError("d_input and d_output must be >= 1")
        self.d_input = d_input
        self.d_output = d_output
        self.nodes: dict[int, Node] = {}
        self.weights: dict[tuple[int, int], float] = {}
        self.layer_count = 2
        self.architecture_frozen = False
        self.next_id = 0
        for _ in range(d_input):
            self._new_node(INPUT, 0)
        for _ in range(d_output):
            self._new_node(OUTPUT, 1)

    # ------------------------------------------------------------------
    # construction helpers

    def _new_node(self, kind: str, layer: int, bias: float = 0.0) -> Node:
        node = Node(self.next_id, kind, layer, bias)
        self.nodes[node.id] = node
        self.next_id += 1
        return node

    @property
    def input_ids(self) -> list[int]:
        return list(range(self.d_input))

    @property
    def output_ids(self) -> list[int]:
        # Input and output nodes are created first, in order, and never
        # deleted, so their ids are fixed. Output order == creation order.
        return list(range(self.d_input, self.d_input + self.d_output))

    def hidden_ids(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind == HIDDEN)

    def non_input_ids(self) -> list[int]:
        return sorted(n.id for n in self.nodes.values() if n.kind != INPUT)

    def connection_count(self) -> int:
        return len(self.weights)

    def node_count(self) -> int:
        return len(self.nodes)

    def param_count(self) -> int:
        """One weight per connection plus one bias per non-input node."""
        return len(self.weights) + sum(
            1 for n in self.nodes.values() if n.kind != INPUT
        )

    # ------------------------------------------------------------------
    # sampling sets

    def receiving_nodes(self) -> list[int]:
        """All input nodes plus every hidden/output node with in-nodes."""
        return sorted(
            n.id
            for n in self.nodes.values()
            if n.kind == INPUT or n.in_ids
        )

    def emitting_list(self) -> list[tuple[int, int]]:
        """One ``(src, dst)`` entry per connection, in deterministic order.

        A node appears once per out-node it possesses, so uniform sampling
        over this list is uniform over connections.
        """
        out = []
        for nid in sorted(self.nodes):
            for dst in self.nodes[nid].out_ids:
                out.append((nid, dst))
        return out

    # ------------------------------------------------------------------
    # edge primitives

    def _add_connection(self, src: int, dst: int, weight: float) -> None:
        if (src, dst) in self.weights:
            raise ValueError(f"duplicate connection {src}->{dst}")
        if self.nodes[dst].kind == INPUT:
            raise ValueError("input nodes cannot receive connections")
        self.weights[(src, dst)] = weight
        self.nodes[dst].in_ids.append(src)
        self.nodes[src].out_ids.append(dst)

    def _remove_connection(self, src: int, dst: int) -> None:
        del self.weights[(src, dst)]
        self.nodes[dst].in_ids.remove(src)
        self.nodes[src].out_ids.remove(dst)

    def _remove_node(self, nid: int) -> None:
        node = self.nodes[nid]
        for src in list(node.in_ids):
            self._remove_connection(src, nid)
        for dst in list(node.out_ids):
            self._remove_connection(nid, dst)
        del self.nodes[nid]

    def _insert_layer(self, index: int) -> None:
        """Open an empty layer at ``index``, shifting higher layers up."""
        for node in self.nodes.values():
            if node.layer >= index:
                node.layer += 1
        self.layer_count += 1

    def _drop_empty_layers(self) -> None:
        used = sorted({n.layer for n in self.nodes.values()})
        remap = {old: new for new, old in enumerate(used)}
        if len(used) != self.layer_count or any(o != n for o, n in remap.items()):
            for node in self.nodes.values():
                node.layer = remap[node.layer]
            self.layer_count = len(used)

    # ------------------------------------------------------------------
    # mutations

    def grow_connection(self, rng: RngStream, init_sigma: float = 1.0) -> MutationOutcome:
        """Connect a receiving node to a hidden/output node.

        Consumes rng values in the order: first index, second index
        (repeated on collision, up to 16 attempts), then one normal for
        the new weight.
        """
        self._check_mutable()
        recv = self.receiving_nodes()
        targets = self.non_input_ids()
        for _ in range(GROW_CONNECTION_ATTEMPTS):
            src = recv[rng.randrange(len(recv))]
            dst = targets[rng.randrange(len(targets))]
            if (src, dst) not in self.weights:
                self._add_connection(src, dst, init_sigma * rng.normal())
                return MutationOutcome("grow_connection", True, {"src": src, "dst": dst})
        return MutationOutcome("grow_connection", False)

    def prune_connection(self, rng: RngStream) -> MutationOutcome:
        """Delete one connection, sampled uniformly via the emitting list."""
        self._check_mutable()
        emitting = self.emitting_list()
        if not emitting:
            raise ValueError("prune_connection requires at least one connection")
        src = emitting[rng.randrange(len(emitting))][0]
        outs = self.nodes[src].out_ids
        dst = outs[rng.randrange(len(outs))]
        self._remove_connection(src, dst)
        removed = self.cascade_cleanup()
        return MutationOutcome(
            "prune_connection", True,
            {"src": src, "dst": dst, "cascade_removed": removed},
        )

    def grow_node(self, rng: RngStream, init_sigma: float = 1.0) -> MutationOutcome:
        """Create a hidden node wired to three sampled nodes.

        Samples: a first node among receiving nodes, a second among
        receiving nodes minus the first, a third among hidden/output
        nodes. Consumes rng values in the order: three indices, the new
        node's bias, then one normal per created connection
        (first->new, second->new, new->third).

        The node lands one layer past the first node, towards the third;
        a fresh layer is inserted when no hidden layer exists there.
        """
        self._check_mutable()
        recv = self.receiving_nodes()
        if len(recv) < 2:
            raise ValueError("grow_node requires at least two receiving nodes")
        first = recv[rng.randrange(len(recv))]
        rest = [nid for nid in recv if nid != first]
        second = rest[rng.randrange(len(rest))]
        targets = self.non_input_ids()
        third = targets[rng.randrange(len(targets))]

        lf = self.nodes[first].layer
        lo = self.nodes[third].layer
        if lo > lf:
            target = lf + 1
            if target == self.layer_count - 1 or target == lo:
                self._insert_layer(target)
        else:
            target = lf - 1
            if target == 0 or target == lo:
                self._insert_layer(lf)
                target = lf

        node = self._new_node(HIDDEN, target, bias=init_sigma * rng.normal())
        for src, dst in ((first, node.id), (second, node.id), (node.id, third)):
            if (src, dst) not in self.weights:
                self._add_connection(src, dst, init_sigma * rng.normal())
        return MutationOutcome(
            "grow_node", True,
            {"new": node.id, "first": first, "second": second, "third": third},
        )

    def prune_node(self, rng: RngStream) -> MutationOutcome:
        """Delete a uniformly sampled hidden node and its connections."""
        self._check_mutable()
        hidden = self.hidden_ids()
        if not hidden:
            raise ValueError("prune_node requires at least one hidden node")
        victim = hidden[rng.randrange(len(hidden))]
        self._remove_node(victim)
        removed = self.cascade_cleanup()
        return MutationOutcome(
            "prune_node", True, {"node": victim, "cascade_removed": removed}
        )

    def cascade_cleanup(self) -> int:
        """Remove dead hidden nodes until fixpoint; drop empty layers.

        A hidden node is dead when it has no in-connections or no
        out-connections (losing either side alone is enough). Returns the
        number of nodes removed.
        """
        removed = 0
        while True:
            dead = [
                n.id
                for n in self.nodes.values()
                if n.kind == HIDDEN and (not n.in_ids or not n.out_ids)
            ]
            if not dead:
                break
            for nid in dead:
                if nid in self.nodes:
                    self._remove_node(nid)
                    removed += 1
        self._drop_empty_layers()
        return removed

    def applicable_mutations(self) -> list[str]:
        out = ["grow_connection"]
        if self.weights:
            out.append("prune_connection")
        if len(self.receiving_nodes()) >= 2:
            out.append("grow_node")
        if any(n.kind == HIDDEN for n in self.nodes.values()):
            out.append("prune_node")
        return out

    def mutate(self, rng: RngStream, init_sigma: float = 1.0) -> MutationOutcome:
        """Apply one mutation, sampled uniformly among the applicable ones."""
        self._check_mutable()
        choices = self.applicable_mutations()
        kind = choices[rng.randrange(len(choices))]
        if kind == "grow_connection":
            return self.grow_connection(rng, init_sigma)
        if kind == "prune_connection":
            return self.prune_connection(rng)
        if kind == "grow_node":
            return self.grow_node(rng, init_sigma)
        return self.prune_node(rng)

    def _check_mutable(self) -> None:
        if self.architecture_frozen:
            raise ValueError("architecture is frozen; mutations are disabled")

    # ------------------------------------------------------------------
    # parameters

    def perturb_parameters(self, rng: RngStream, sigma: float = 0.1) -> None:
        """Add an independent N(0, sigma^2) draw to every weight and bias.

        Draw order is fixed: nodes in ascending id; for each non-input
        node its bias first, then its in-connection weights in list
        order. Exactly ``param_count()`` normals are consumed.
        """
        deltas = rng.normal_array(self.param_count())
        i = 0
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if node.kind == INPUT:
                continue
            node.bias += sigma * deltas[i]
            i += 1
            for src in node.in_ids:
                self.weights[(src, nid)] += sigma * deltas[i]
                i += 1

    # ------------------------------------------------------------------
    # forward pass

    def reset_state(self) -> PassState:
        """Start an episode: the one-row plan of this genome, zeroed.

        The plan is compiled from the current graph, so edits to nodes,
        weights or biases take effect at the next ``reset_state()``.
        """
        return PassState([self])

    def forward(self, state: PassState, inputs) -> list[float]:
        """One network pass; returns output activations in creation order."""
        if len(inputs) != self.d_input:
            raise ValueError(
                f"expected {self.d_input} inputs, got {len(inputs)}"
            )
        state.inputs[:, 0] = inputs
        return state.step()[:, 0].tolist()

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Full structural audit; raises AssertionError on any violation.

        Linear in nodes plus connections. Every check raises explicitly,
        so ``python -O`` keeps them.
        """
        nodes, weights, last = self.nodes, self.weights, self.layer_count - 1
        if self.d_input < 1 or self.d_output < 1 or last < 1:
            raise AssertionError("bad dimensions or layer count")
        ids = {INPUT: [], HIDDEN: [], OUTPUT: []}
        for n in nodes.values():
            if n.kind not in ids:
                raise AssertionError(f"node {n.id} has unknown kind {n.kind!r}")
            ids[n.kind].append(n.id)
        # Counts first, so a huge declared size fails without building a list.
        if len(ids[INPUT]) != self.d_input or sorted(ids[INPUT]) != self.input_ids:
            raise AssertionError("input nodes disagree with d_input")
        if len(ids[OUTPUT]) != self.d_output or sorted(ids[OUTPUT]) != self.output_ids:
            raise AssertionError("output nodes disagree with d_output")
        if max(nodes) >= self.next_id:
            raise AssertionError("node id at or past next_id")
        layers = {n.layer for n in nodes.values()}
        if len(layers) != self.layer_count or layers != set(range(self.layer_count)):
            raise AssertionError("empty or out-of-range layer")
        fan_in = fan_out = 0
        for n in nodes.values():
            nid, in_ids, out_ids = n.id, n.in_ids, n.out_ids
            if n.kind == INPUT:
                if n.layer != 0 or in_ids:
                    raise AssertionError(f"input {nid} outside layer 0 or fed")
            elif n.kind == OUTPUT:
                if n.layer != last:
                    raise AssertionError(f"output {nid} not in the last layer")
            elif not 0 < n.layer < last:
                raise AssertionError(f"hidden {nid} outside the hidden layers")
            elif not (in_ids and out_ids):
                raise AssertionError(f"dead hidden node {nid}")
            if len(set(in_ids)) != len(in_ids) or len(set(out_ids)) != len(out_ids):
                raise AssertionError(f"node {nid} lists a connection twice")
            for src in in_ids:
                if (src, nid) not in weights:
                    raise AssertionError(f"connection {src}->{nid} has no weight")
            for dst in out_ids:
                if (nid, dst) not in weights:
                    raise AssertionError(f"connection {nid}->{dst} has no weight")
            fan_in += len(in_ids)
            fan_out += len(out_ids)
        # Distinct listed edges, all weighted, as many as the weights: the
        # in-lists, the out-lists and the weights hold one edge set.
        if not fan_in == len(weights) == fan_out:
            raise AssertionError("edge collections disagree")

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        """Plain-dict form used by both the genome codec and checkpoints.

        Connections are listed in emitting order (see :meth:`emitting_list`),
        so ``from_obj`` rebuilds every ``out_ids`` order exactly.
        """
        nodes = [self.nodes[nid] for nid in sorted(self.nodes)]
        weights = self.weights
        return {
            "d_input": self.d_input,
            "d_output": self.d_output,
            "layer_count": self.layer_count,
            "architecture_frozen": self.architecture_frozen,
            "next_id": self.next_id,
            "nodes": [
                {"id": n.id, "kind": n.kind, "layer": n.layer, "bias": n.bias,
                 "in": list(n.in_ids)}
                for n in nodes
            ],
            "connections": [
                [n.id, dst, weights[(n.id, dst)]] for n in nodes for dst in n.out_ids
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "DynamicNet":
        """Parse a genome read from disk; it must pass :meth:`validate`."""
        try:
            net = cls.__new__(cls)
            net.d_input = int(obj["d_input"])
            net.d_output = int(obj["d_output"])
            net.layer_count = int(obj["layer_count"])
            net.architecture_frozen = bool(obj["architecture_frozen"])
            net.next_id = int(obj["next_id"])
            net.nodes = {}
            net.weights = {}
            for rec in obj["nodes"]:
                node = Node(int(rec["id"]), str(rec["kind"]), int(rec["layer"]),
                            float(rec["bias"]))
                node.in_ids = [int(x) for x in rec["in"]]
                net.nodes[node.id] = node
            if len(net.nodes) != len(obj["nodes"]):
                raise ValueError("duplicate node id")
            # Rebuild out_ids from the connection list so the recorded
            # emitting order (and thus prune sampling) round-trips exactly.
            for s, d, w in obj["connections"]:
                s, d = int(s), int(d)
                net.nodes[s].out_ids.append(d)
                net.weights[(s, d)] = float(w)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GenomeFormatError(f"malformed genome object: {exc}") from exc
        try:
            net.validate()
        except AssertionError as exc:
            raise GenomeFormatError(f"invalid genome: {exc}") from exc
        return net

    def copy(self) -> "DynamicNet":
        """Independent copy, field for field (the in-memory clone path)."""
        net = DynamicNet.__new__(DynamicNet)
        net.__dict__.update(self.__dict__)
        net.nodes = {nid: node.copy() for nid, node in self.nodes.items()}
        net.weights = dict(self.weights)
        return net

    def serialize(self) -> bytes:
        return encode_framed(GENOME_MAGIC, GENOME_VERSION, self.to_obj())

    @classmethod
    def deserialize(cls, data: bytes) -> "DynamicNet":
        return cls.from_obj(
            decode_framed(data, GENOME_MAGIC, GENOME_VERSION, GenomeFormatError, "genome")
        )

    # ------------------------------------------------------------------
    # DOT export

    def to_dot(self) -> str:
        """Graphviz digraph; recurrent edges are dashed, layers ranked."""
        lines = ["digraph dynamic_net {", "  rankdir=LR;",
                 "  node [shape=circle];"]
        for layer in range(self.layer_count):
            members = sorted(
                n.id for n in self.nodes.values() if n.layer == layer
            )
            decls = []
            for nid in members:
                kind = self.nodes[nid].kind
                shape = {"input": "box", "output": "doublecircle"}.get(kind)
                attr = f" [shape={shape}]" if shape else ""
                decls.append(f"n{nid}{attr};")
            lines.append("  { rank=same; " + " ".join(decls) + " }")
        for src, dst in sorted(self.weights):
            recurrent = self.nodes[src].layer >= self.nodes[dst].layer
            style = " [style=dashed]" if recurrent else ""
            lines.append(f"  n{src} -> n{dst}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def new_minimal(d_input: int, d_output: int) -> DynamicNet:
    """Minimal genome: input and output layers, no connections."""
    return DynamicNet(d_input, d_output)


def build_static(d_input: int, d_output: int) -> DynamicNet:
    """Frozen baseline: [d_input, 50, 50, d_output], zero parameters.

    Fully connected feedforward between consecutive layers plus full
    intra-layer recurrence (self-loops included) within each hidden
    layer; no recurrence on the output layer.
    """
    net = DynamicNet(d_input, d_output)
    net.layer_count = 4
    for out in net.output_ids:
        net.nodes[out].layer = 3
    h1 = [net._new_node(HIDDEN, 1).id for _ in range(50)]
    h2 = [net._new_node(HIDDEN, 2).id for _ in range(50)]
    for src in net.input_ids:
        for dst in h1:
            net._add_connection(src, dst, 0.0)
    for layer_ids in (h1, h2):
        for src in layer_ids:
            for dst in layer_ids:
                net._add_connection(src, dst, 0.0)
    for src in h1:
        for dst in h2:
            net._add_connection(src, dst, 0.0)
    for src in h2:
        for dst in net.output_ids:
            net._add_connection(src, dst, 0.0)
    net.architecture_frozen = True
    return net
