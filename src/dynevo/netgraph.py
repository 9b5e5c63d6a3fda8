"""Dynamic recurrent network genomes.

A genome is a directed layered graph. Input nodes sit in layer 0, output
nodes in the last layer, and hidden nodes grow in between through four
elementary mutations: grow/prune connection and grow/prune node. Every
non-input node computes ``relu(bias + sum(w_i * x_i))`` over its ordered
inputs, a ``{src: weight}`` dict that is the one store of every edge and
its weight. A connection headed to a strictly higher layer is consumed
within the same forward pass; a connection to the same or a lower layer
(including self-loops) delivers the source's activation from the previous
pass.

A genome comes in two kinds. An evolving genome, :class:`DynamicNet`, keeps
its nodes and their weights, and mutates. A frozen genome,
:class:`FrozenNet`, cannot change its structure, so it keeps only its run's
shared :class:`Topology` and one float64 vector of its parameters.

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
import math
import re
import struct
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from operator import itemgetter

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


def to_json(obj) -> str:
    """Compact JSON text (floats via ``repr``, so round-trips are exact)."""
    return _JSON.encode(obj)


# The objects coded here hold no reference cycle, so the encoder need not look for one.
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def encode_framed(magic: bytes, version: int, obj) -> bytes:
    """Wire framing shared by genomes and checkpoints.

    The bytes are ``magic``, ``version`` as a little-endian uint32, then
    ``obj`` as UTF-8 :func:`to_json` text (or ``obj`` itself, if already bytes).
    """
    payload = obj if isinstance(obj, bytes) else to_json(obj).encode()
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


def exact(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (JSON ``true`` is no int, ``1`` no
    float) and, for a float, it is finite: ``json`` reads ``NaN``, ``Infinity`` and
    ``1e999`` as floats, and no stored float may be one of them."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


def all_finite(values) -> bool:
    """Whether every float in ``values`` is finite: :func:`exact`'s rule for a long
    list. A sum of floats is finite only if every term is, so one sum answers
    unless a term is non-finite or the sum overflows."""
    return math.isfinite(sum(values)) or all(map(math.isfinite, values))


class Node:
    """``inputs`` maps each source id to its edge's weight, in summation order."""

    __slots__ = ("id", "kind", "layer", "bias", "inputs", "out_ids")

    def __init__(self, nid: int, kind: str, layer: int, bias: float = 0.0):
        self.id = nid
        self.kind = kind
        self.layer = layer
        self.bias = bias
        self.inputs: dict[int, float] = {}
        self.out_ids: list[int] = []

    def copy(self) -> "Node":
        node = Node(self.id, self.kind, self.layer, self.bias)
        node.inputs = self.inputs.copy()
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

    Row ``r`` evaluates ``nets[r]``; one genome may fill several rows. The
    whole batch is compiled into one block-diagonal plan over a buffer laid
    out as ``[cur | 1.0]``: every node's value, and a constant one that bias
    edges read. The batch is one block, laid out by one slot rule. When every
    row shares one topology, the block is that topology's cached :func:`_plan`,
    copied once per row, with the weights taken from the rows' stacked
    vectors. Otherwise it is one :func:`_plan` of every row's nodes, with all
    rows' parameters as one row of weights. Each layer, the inputs included,
    holds the block copy after copy, so position ``p`` of layer ``L`` in copy
    ``c`` is slot ``starts[L] + p + c * sizes[L]``. Row ``r``'s inputs are thus
    slots ``r * d_input`` onwards, and ``inputs`` is a transposed ``(d_input,
    rows)`` view that one assignment fills. The output slots come from the
    plan's output positions.

    Each layer runs as one ``np.bincount`` over its edges. A node's bias
    comes first, as an edge from the constant-one slot (``0 + b*1 == b``),
    followed by its ``inputs`` in order; ``bincount`` accumulates in input
    order, so every sum is formed exactly as ``bias + w_1*x_1 + ...``. The
    layers run in order and each reads all its sources before it writes,
    so a source in a lower layer gives this pass's value, and one in the
    same or a higher layer of its genome, not yet computed in this pass,
    gives the previous pass's.
    """

    def __init__(self, nets):
        d_in, rows = nets[0].d_input, len(nets)
        topology = nets[0].topology
        if topology is not None and all(net.topology == topology for net in nets):
            plan, weights, copies = topology.plan, np.array([net.weights for net in nets]), rows
        else:
            depth = max(net.layer_count for net in nets)
            plan = _plan([net.nodes.values() if net.topology is None else net.topology.nodes
                          for net in nets], depth)
            params = chain.from_iterable(net.parameters() for net in nets)
            weights, copies = np.fromiter(params, float)[None], 1
        sizes, layers, (out_layer, out_pos) = plan
        # Layer L's slots start at starts[L], copy after copy; layer -1 reads
        # starts[-1], the bias slot n, with stride 0: the same for every copy.
        starts, stride = np.cumsum([0, *sizes]) * copies, np.array([*sizes, 0])
        n = starts[-1]
        self.buf = np.zeros(n + 1)
        self.buf[n] = 1.0  # the bias edges' source
        self.cur = self.buf[:n]
        self.inputs = self.buf[: d_in * rows].reshape(rows, d_in).T

        copy = np.arange(copies)[:, None]
        self.layers = []
        for (layer, pos, param, fan_in), lo, hi in zip(layers, starts[1:], starts[2:]):
            src = starts[layer] + pos + copy * stride[layer]
            # Weights before destinations: the other order page-faults twice as
            # often on a static batch, as the heap reuses freed blocks worse.
            self.layers.append((src.ravel(), weights[:, param].ravel(),
                                np.repeat(np.arange(hi - lo), np.tile(fan_in, copies)),
                                self.buf[lo:hi]))
        out_slots = starts[out_layer] + out_pos + copy * stride[out_layer]
        self.out_slots = out_slots.reshape(rows, -1).T.copy()

    def reset(self) -> None:
        """Zero every node: the next step starts a fresh episode."""
        self.cur[...] = 0.0

    def step(self) -> np.ndarray:
        """One pass over every row, reading ``inputs``; returns ``(d_output, rows)``.

        ReLU is ``fmax(acc, 0.0)``, which equals ``acc if acc > 0.0 else 0.0``
        bit for bit: a NaN sum becomes 0.0, and ``bincount`` sums start from
        +0.0, so no sum is -0.0.
        """
        buf = self.buf
        for src, w, dst, out in self.layers:
            np.fmax(np.bincount(dst, weights=w * buf[src], minlength=len(out)), 0.0, out=out)
        return buf[self.out_slots]


# A node of a frozen structure, read by :func:`_plan` as it reads a :class:`Node`:
# ``inputs`` and ``out_ids`` are tuples of ids.
FrozenNode = namedtuple("FrozenNode", "id kind layer inputs out_ids")


class Topology:
    """A frozen genome's structure without its parameters, built once per run.

    :func:`build_static` builds one and every copy of its genome shares it;
    topologies are equal when their structures are, so the frozen genomes of
    a checkpoint share one (:func:`~dynevo.evolution.load_checkpoint`).
    Parameters are read in the order of :meth:`DynamicNet.parameters`:
    nodes in id order, each node's bias, then its inputs' weights.
    """

    def __init__(self, net: "DynamicNet"):
        self.head = self.d_input, self.d_output, self.layer_count, self.next_id = (
            net.d_input, net.d_output, net.layer_count, net.next_id)
        self.nodes = tuple(FrozenNode(n.id, n.kind, n.layer, tuple(n.inputs), tuple(n.out_ids))
                           for n in net.nodes.values())
        self.node_count = len(self.nodes)
        self.connection_count = net.connection_count()
        self.param_count = net.param_count()

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, Topology)
                                 and (self.head, self.nodes) == (other.head, other.nodes))

    def __hash__(self) -> int:
        return hash((self.head, self.nodes))

    def graph(self, params) -> "DynamicNet":
        """A new evolving genome of this structure whose parameters are ``params``."""
        net = DynamicNet.__new__(DynamicNet)
        net.d_input, net.d_output, net.layer_count, net.next_id = self.head
        net.nodes = {}
        k = 0
        for nid, kind, layer, ins, outs in self.nodes:
            node = net.nodes[nid] = Node(nid, kind, layer, params[k])
            node.inputs = dict(zip(ins, params[k + 1 : k + 1 + len(ins)]))
            node.out_ids = list(outs)
            k += 1 + len(ins)
        return net

    def to_obj(self, params) -> dict:
        """:meth:`FrozenNet.to_obj` of the genome of this structure whose
        parameters are ``params``."""
        obj = self.graph(params).to_obj()
        obj["architecture_frozen"] = True
        return obj

    @cached_property
    def _text(self):
        """``(template, pick)``: :meth:`to_obj`'s :func:`to_json` text with ``%r``
        at each parameter, and the getter of the parameters in text order. Each
        parameter is marked by a string naming its position."""
        marks = [f"\0{k}" for k in range(self.d_input + self.param_count)]
        parts = _MARK.split(to_json(self.to_obj(marks)).replace("%", "%%"))
        return "%r".join(parts[::2]), itemgetter(*map(int, parts[1::2]))

    def text(self, params) -> str:
        """``to_json(self.to_obj(params))`` for finite ``params`` (``%r`` writes
        a float as ``json`` does, except a non-finite one)."""
        template, pick = self._text
        return template % pick(params)

    @cached_property
    def plan(self):
        """:func:`_plan` of this structure: what :class:`PassState` copies over a
        batch whose rows all share it."""
        return _plan([self.nodes], self.layer_count)


def _plan(genomes, depth):
    """The batch plan of a block of genomes, each given as its nodes in id order;
    ``depth`` is at least each genome's layer count.

    Each layer holds the block's genomes one after another, each genome's nodes
    in id order. The plan is ``(sizes, layers, outputs)``: the node count of each
    layer, and per non-input layer ``(layer, pos, param, fan_in)``. They hold one
    entry per edge (a node's bias edge, then its inputs in order) but
    ``fan_in``, one per node. An edge reads position ``pos`` of layer ``layer``,
    or the bias slot at layer -1, and its weight is entry ``param`` of the
    block's parameters: each genome's :meth:`DynamicNet.parameters`, genome
    after genome. ``outputs`` is ``(layer, pos)`` of each genome's outputs in
    id order.
    """
    sizes = [0] * depth
    layers = [([], [], [], []) for _ in sizes]
    outputs, k = [], 0
    for nodes in genomes:
        where = {}
        for node in nodes:
            where[node.id] = node.layer, sizes[node.layer]
            sizes[node.layer] += 1
        for node in nodes:
            ins = node.inputs
            if node.layer:
                src_layer, pos, param, fan_in = layers[node.layer]
                src_layer.append(-1)
                pos.append(0)
                for src in ins:
                    m, p = where[src]
                    src_layer.append(m)
                    pos.append(p)
                param += range(k, k + 1 + len(ins))
                fan_in.append(1 + len(ins))
                if node.kind == OUTPUT:
                    outputs.append(where[node.id])
            k += 1 + len(ins)
    return (sizes, [tuple(np.array(a, dtype=np.intp) for a in arrays) for arrays in layers[1:]],
            tuple(np.array(a, dtype=np.intp) for a in zip(*outputs)))


# A parameter's mark in a genome's text: JSON writes the string "\0<k>" as "\u0000<k>".
_MARK = re.compile(r'"\\u0000(\d+)"')


class Genome:
    """What both genome kinds share: the one-row forward pass and the text.

    An evolving genome is a :class:`DynamicNet`, its nodes and their weights.
    A frozen one is a :class:`FrozenNet`, its run's shared :class:`Topology`
    and one vector of its parameters.
    """

    topology = None  # a frozen genome's structure

    @property
    def input_ids(self) -> list[int]:
        return list(range(self.d_input))

    @property
    def output_ids(self) -> list[int]:
        # Input and output nodes are created first, in order, and never
        # deleted, so their ids are fixed. Output order == creation order.
        return list(range(self.d_input, self.d_input + self.d_output))

    def reset_state(self) -> PassState:
        """Start an episode: the one-row plan of this genome, zeroed.

        The plan is compiled from the current parameters, so edits take
        effect at the next ``reset_state()``.
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

    def to_json(self) -> str:
        """``to_json(self.to_obj())``. ``json`` would write a non-finite
        parameter as ``NaN`` or ``Infinity``, which :meth:`DynamicNet.from_obj`
        refuses, so it raises ``ValueError``."""
        params = self.parameters()
        if not all_finite(params):
            raise ValueError("cannot encode a genome with a non-finite parameter")
        return self._text(params)

    def serialize(self) -> bytes:
        return encode_framed(GENOME_MAGIC, GENOME_VERSION, self.to_json().encode())


class DynamicNet(Genome):
    """An evolving genome: nodes, weighted connections and layer structure."""

    architecture_frozen = False

    def __init__(self, d_input: int, d_output: int):
        if d_input < 1 or d_output < 1:
            raise ValueError("d_input and d_output must be >= 1")
        self.d_input = d_input
        self.d_output = d_output
        self.nodes: dict[int, Node] = {}
        self.layer_count = 2
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

    # The nodes dict is in ascending id order (validate() checks it), and the
    # inputs, then the outputs, hold the lowest ids: id lists need no sort.
    def hidden_ids(self) -> list[int]:
        return list(self.nodes)[self.d_input + self.d_output :]

    def non_input_ids(self) -> list[int]:
        return list(self.nodes)[self.d_input :]

    def connection_count(self) -> int:
        return sum(len(n.inputs) for n in self.nodes.values())

    def node_count(self) -> int:
        return len(self.nodes)

    def param_count(self) -> int:
        """One weight per connection plus one bias per non-input node."""
        return sum(len(n.inputs) + 1 for n in self.nodes.values() if n.kind != INPUT)

    def parameters(self) -> list[float]:
        """Every bias and weight: nodes in id order, each node's bias, then its
        inputs' weights in order."""
        params = []
        for node in self.nodes.values():
            params.append(node.bias)
            params += node.inputs.values()
        return params

    # ------------------------------------------------------------------
    # sampling sets

    def receiving_nodes(self) -> list[int]:
        """All input nodes plus every hidden/output node with in-nodes."""
        return [n.id for n in self.nodes.values() if n.kind == INPUT or n.inputs]

    def emitting_list(self) -> list[tuple[int, int]]:
        """One ``(src, dst)`` entry per connection, in deterministic order.

        A node appears once per out-node it possesses, so uniform sampling
        over this list is uniform over connections.
        """
        return [(nid, dst) for nid, node in self.nodes.items() for dst in node.out_ids]

    # ------------------------------------------------------------------
    # edge primitives

    def _add_connection(self, src: int, dst: int, weight: float) -> None:
        target = self.nodes[dst]
        if src in target.inputs:
            raise ValueError(f"duplicate connection {src}->{dst}")
        if target.kind == INPUT:
            raise ValueError("input nodes cannot receive connections")
        target.inputs[src] = weight
        self.nodes[src].out_ids.append(dst)

    def _remove_connection(self, src: int, dst: int) -> None:
        del self.nodes[dst].inputs[src]
        self.nodes[src].out_ids.remove(dst)

    def _remove_node(self, nid: int) -> None:
        node = self.nodes[nid]
        for src in list(node.inputs):
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
        recv = self.receiving_nodes()
        targets = self.non_input_ids()
        for _ in range(GROW_CONNECTION_ATTEMPTS):
            src = recv[rng.randrange(len(recv))]
            dst = targets[rng.randrange(len(targets))]
            if src not in self.nodes[dst].inputs:
                self._add_connection(src, dst, init_sigma * rng.normal())
                return MutationOutcome("grow_connection", True, {"src": src, "dst": dst})
        return MutationOutcome("grow_connection", False)

    def prune_connection(self, rng: RngStream) -> MutationOutcome:
        """Delete one connection, sampled uniformly via the emitting list."""
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
        node's bias, then always three connection normals (first->new,
        second->new, new->third; none of these edges exists yet).

        The node lands one layer past the first node, towards the third;
        a fresh layer is inserted when no hidden layer exists there.
        """
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
            self._add_connection(src, dst, init_sigma * rng.normal())
        return MutationOutcome(
            "grow_node", True,
            {"new": node.id, "first": first, "second": second, "third": third},
        )

    def prune_node(self, rng: RngStream) -> MutationOutcome:
        """Delete a uniformly sampled hidden node and its connections."""
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
            dead = [n.id for n in self.nodes.values()
                    if n.kind == HIDDEN and (not n.inputs or not n.out_ids)]
            if not dead:
                break
            for nid in dead:  # removing one node deletes no other
                self._remove_node(nid)
            removed += len(dead)
        self._drop_empty_layers()
        return removed

    def applicable_mutations(self) -> list[str]:
        out = ["grow_connection"]
        wired = any(n.inputs for n in self.nodes.values())
        if wired:
            out.append("prune_connection")
        if self.d_input >= 2 or wired:  # at least two receiving nodes
            out.append("grow_node")
        if len(self.nodes) > self.d_input + self.d_output:
            out.append("prune_node")
        return out

    def mutate(self, rng: RngStream, init_sigma: float = 1.0) -> MutationOutcome:
        """Apply one mutation, sampled uniformly among the applicable ones."""
        choices = self.applicable_mutations()
        kind = choices[rng.randrange(len(choices))]
        if kind == "grow_connection":
            return self.grow_connection(rng, init_sigma)
        if kind == "prune_connection":
            return self.prune_connection(rng)
        if kind == "grow_node":
            return self.grow_node(rng, init_sigma)
        return self.prune_node(rng)

    # ------------------------------------------------------------------
    # parameters

    def perturb_parameters(self, rng: RngStream, sigma: float = 0.1) -> None:
        """Add an independent N(0, sigma^2) draw to every weight and bias.

        Draw order is fixed: nodes in ascending id; for each non-input
        node its bias first, then its input weights in order. Exactly
        ``param_count()`` normals are consumed.
        """
        deltas = rng.normal_array(self.param_count())
        i = 0
        for node in islice(self.nodes.values(), self.d_input, None):
            inputs = node.inputs
            node.bias += sigma * deltas[i]
            for src, delta in zip(inputs, deltas[i + 1 : i + 1 + len(inputs)]):
                inputs[src] += sigma * delta
            i += 1 + len(inputs)

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        """Full structural audit; raises AssertionError on any violation.

        Linear in nodes plus connections. Every check raises explicitly,
        so ``python -O`` keeps them.
        """
        nodes, last = self.nodes, self.layer_count - 1
        if self.d_input < 1 or self.d_output < 1 or last < 1:
            raise AssertionError("bad dimensions or layer count")
        if any(a >= b for a, b in zip(nodes, islice(nodes, 1, None))):
            raise AssertionError("node ids out of ascending order")
        ids = {INPUT: [], HIDDEN: [], OUTPUT: []}
        for n in nodes.values():
            if n.kind not in ids:
                raise AssertionError(f"node {n.id} has unknown kind {n.kind!r}")
            ids[n.kind].append(n.id)
        # Counts first, so a huge declared size fails without building a list.
        if len(ids[INPUT]) != self.d_input or ids[INPUT] != self.input_ids:
            raise AssertionError("input nodes disagree with d_input")
        if len(ids[OUTPUT]) != self.d_output or ids[OUTPUT] != self.output_ids:
            raise AssertionError("output nodes disagree with d_output")
        if max(nodes) >= self.next_id:
            raise AssertionError("node id at or past next_id")
        layers = {n.layer for n in nodes.values()}
        if len(layers) != self.layer_count or layers != set(range(self.layer_count)):
            raise AssertionError("empty or out-of-range layer")
        fan_in = fan_out = 0
        for n in nodes.values():
            nid, inputs, out_ids = n.id, n.inputs, n.out_ids
            if n.kind == INPUT:
                if n.layer != 0 or inputs:
                    raise AssertionError(f"input {nid} outside layer 0 or fed")
            elif n.kind == OUTPUT:
                if n.layer != last:
                    raise AssertionError(f"output {nid} not in the last layer")
            elif not 0 < n.layer < last:
                raise AssertionError(f"hidden {nid} outside the hidden layers")
            elif not (inputs and out_ids):
                raise AssertionError(f"dead hidden node {nid}")
            if len(set(out_ids)) != len(out_ids):
                raise AssertionError(f"node {nid} lists an out-connection twice")
            for dst in out_ids:
                target = nodes.get(dst)
                if target is None or nid not in target.inputs:
                    raise AssertionError(f"connection {nid}->{dst} is not an input of {dst}")
            fan_in += len(inputs)
            fan_out += len(out_ids)
        # Every distinct out-listed edge is an input, and there are as many
        # inputs: the out-lists and the inputs hold one edge set.
        if fan_in != fan_out:
            raise AssertionError("inputs and out-connections disagree")

    # ------------------------------------------------------------------
    # serialization

    def to_obj(self) -> dict:
        """Plain-dict form used by both the genome codec and checkpoints.

        Connections are listed in emitting order (see :meth:`emitting_list`),
        so ``from_obj`` rebuilds every ``out_ids`` order exactly.
        """
        by_id = self.nodes
        nodes = by_id.values()
        return {
            "d_input": self.d_input,
            "d_output": self.d_output,
            "layer_count": self.layer_count,
            "architecture_frozen": self.architecture_frozen,
            "next_id": self.next_id,
            "nodes": [
                {"id": n.id, "kind": n.kind, "layer": n.layer, "bias": n.bias,
                 "in": list(n.inputs)}
                for n in nodes
            ],
            "connections": [
                [n.id, dst, by_id[dst].inputs[n.id]] for n in nodes for dst in n.out_ids
            ],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> Genome:
        """Parse a genome read from disk. Its node graph must pass :meth:`validate`;
        a frozen genome is then returned as a :class:`FrozenNet`."""
        try:
            net = cls.__new__(cls)
            head = {name: exact(obj[name], kind, name)
                    for name, kind in (("d_input", int), ("d_output", int), ("layer_count", int),
                                       ("architecture_frozen", bool), ("next_id", int))}
            frozen = head.pop("architecture_frozen")
            vars(net).update(head)
            net.nodes = {}
            for rec in obj["nodes"]:
                node = Node(exact(rec["id"], int, "node id"), exact(rec["kind"], str, "node kind"),
                            exact(rec["layer"], int, "node layer"),
                            exact(rec["bias"], float, "node bias"))
                sources = rec["in"]
                if not all(type(x) is int for x in sources):
                    raise ValueError(f"node {node.id} inputs must be ints, got {sources!r}")
                node.inputs = dict.fromkeys(sources)  # weights come with the connections
                if len(node.inputs) != len(sources):
                    raise ValueError(f"node {node.id} lists an input twice")
                net.nodes[node.id] = node
            if len(net.nodes) != len(obj["nodes"]):
                raise ValueError("duplicate node id")
            # Rebuild out_ids from the connection list so the recorded
            # emitting order (and thus prune sampling) round-trips exactly.
            for s, d, w in obj["connections"]:
                if type(s) is not int or type(d) is not int or type(w) is not float:
                    raise ValueError(f"connection must be [int, int, float], got {[s, d, w]!r}")
                inputs = net.nodes[d].inputs
                if s not in inputs:
                    raise ValueError(f"connection {s}->{d} is not an input of {d}")
                inputs[s] = w
                net.nodes[s].out_ids.append(d)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise GenomeFormatError(f"malformed genome object: {exc}") from exc
        try:
            net.validate()
        except AssertionError as exc:
            raise GenomeFormatError(f"invalid genome: {exc}") from exc
        # Every bias passed exact(); a valid genome has a float for every weight.
        params = net.parameters()
        if not all_finite(params):
            raise GenomeFormatError("malformed genome object: a weight is not finite")
        return FrozenNet(Topology(net), np.array(params)) if frozen else net

    def copy(self) -> "DynamicNet":
        """Independent copy, field for field (the in-memory clone path)."""
        net = DynamicNet.__new__(DynamicNet)
        net.__dict__.update(self.__dict__)
        net.nodes = {nid: node.copy() for nid, node in self.nodes.items()}
        return net

    def _text(self, params) -> str:
        return to_json(self.to_obj())

    @classmethod
    def deserialize(cls, data: bytes) -> Genome:
        return cls.from_obj(
            decode_framed(data, GENOME_MAGIC, GENOME_VERSION, GenomeFormatError, "genome")
        )

    # ------------------------------------------------------------------
    # DOT export

    def to_dot(self) -> str:
        """Graphviz digraph; recurrent edges are dashed, layers ranked."""
        lines = ["digraph dynamic_net {", "  rankdir=LR;",
                 "  node [shape=circle];"]
        shapes = {INPUT: " [shape=box]", HIDDEN: "", OUTPUT: " [shape=doublecircle]"}
        for layer in range(self.layer_count):
            decls = " ".join(f"n{n.id}{shapes[n.kind]};" for n in self.nodes.values()
                             if n.layer == layer)
            lines.append("  { rank=same; " + decls + " }")
        for src, dst in sorted((s, n.id) for n in self.nodes.values() for s in n.inputs):
            recurrent = self.nodes[src].layer >= self.nodes[dst].layer
            style = " [style=dashed]" if recurrent else ""
            lines.append(f"  n{src} -> n{dst}{style};")
        lines.append("}")
        return "\n".join(lines) + "\n"


class FrozenNet(Genome):
    """A frozen genome: its run's shared :class:`Topology` and ``weights``, one
    float64 vector of its parameters in :meth:`DynamicNet.parameters` order.
    It keeps no nodes."""

    architecture_frozen = True

    def __init__(self, topology: Topology, weights: np.ndarray):
        self.topology = topology
        self.weights = weights

    d_input = property(lambda self: self.topology.d_input)
    d_output = property(lambda self: self.topology.d_output)
    layer_count = property(lambda self: self.topology.layer_count)

    def node_count(self) -> int:
        return self.topology.node_count

    def connection_count(self) -> int:
        return self.topology.connection_count

    def param_count(self) -> int:
        return self.topology.param_count

    def parameters(self) -> list[float]:
        return self.weights.tolist()

    def mutate(self, rng: RngStream, init_sigma: float = 1.0) -> MutationOutcome:
        raise ValueError("architecture is frozen; mutations are disabled")

    def perturb_parameters(self, rng: RngStream, sigma: float = 0.1) -> None:
        """:meth:`DynamicNet.perturb_parameters` on the vector: the same draws,
        added to the non-input parameters in the same order by the same IEEE
        multiply and add (which overflow quietly, as Python floats do)."""
        deltas = rng.normals(self.param_count())
        with np.errstate(all="ignore"):
            self.weights[self.d_input :] += sigma * deltas

    def copy(self) -> "FrozenNet":
        """An independent copy; it shares the topology."""
        return FrozenNet(self.topology, self.weights.copy())

    def to_obj(self) -> dict:
        return self.topology.to_obj(self.parameters())

    def _text(self, params) -> str:
        return self.topology.text(params)

    def to_dot(self) -> str:
        return self.topology.graph(self.parameters()).to_dot()


def new_minimal(d_input: int, d_output: int) -> DynamicNet:
    """Minimal genome: input and output layers, no connections."""
    return DynamicNet(d_input, d_output)


def build_static(d_input: int, d_output: int) -> FrozenNet:
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
    return FrozenNet(Topology(net), np.array(net.parameters()))
