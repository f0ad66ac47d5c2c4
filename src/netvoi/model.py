"""Binary-component networks and monotone structure functions.

Component states pack into integer masks: bit i carries the state of
component i, with 1 meaning the component works and 0 that it failed.
Masks enumerate states in ascending order 0 .. 2^N - 1, so mask 0 is the
fully failed system and the all-ones mask is the fully working one.

Structures evaluate all masks at once on packed bit columns (``_columns``):
component i's column is a uint64 array in which bit b of word w holds its
state in mask 64·w + b, so one ``&`` or ``|`` evaluates 64 masks.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NonMonotoneError, SizeCapError

DEFAULT_COMPONENT_CAP = 20


def check_state(state: int, n_components: int) -> None:
    if state < 0 or state >> n_components:
        raise InvalidStateError(
            f"mask {state} does not encode a {n_components}-component state"
        )


def _check_sizes(*models) -> None:
    """Raise a ValueError unless the models agree on ``n_components``; None fits any count."""
    sized = [(type(m).__name__, m.n_components) for m in models if m.n_components is not None]
    name, n = sized[0]
    for other, count in sized[1:]:
        if count != n:
            raise ValueError(f"{name} has {n} components but {other} has {count}")


@dataclass(frozen=True)
class ComponentRef:
    """Formula leaf referring to one component by index."""

    index: int


@dataclass(frozen=True)
class SeriesNode:
    parts: tuple


@dataclass(frozen=True)
class ParallelNode:
    parts: tuple


def _as_node(part):
    if isinstance(part, (ComponentRef, SeriesNode, ParallelNode)):
        return part
    if isinstance(part, bool):
        raise TypeError(f"cannot use {part!r} in a structure formula")
    try:
        return ComponentRef(operator.index(part))
    except TypeError:
        raise TypeError(f"cannot use {part!r} in a structure formula") from None


def series(*parts) -> SeriesNode:
    """All parts must work for the composition to work."""
    if not parts:
        raise ValueError("series() needs at least one part")
    return SeriesNode(tuple(_as_node(p) for p in parts))


def parallel(*parts) -> ParallelNode:
    """The composition works while at least one part works."""
    if not parts:
        raise ValueError("parallel() needs at least one part")
    return ParallelNode(tuple(_as_node(p) for p in parts))


# Row i is component i's column word for i < 6: bit b is bit i of mask b.
_WORD_BITS = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                       0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000],
                      dtype=np.uint64)
_ALL = ~np.uint64(0)


def _columns(n: int) -> np.ndarray:
    """Packed states of n components over all 2^n masks, as an (n, words) uint64 array.

    Bit b of word w in row i is component i's state in mask 64·w + b. Bits
    0-5 are constant word patterns; bit i >= 6 is runs of 2^(i-6) zero words
    then 2^(i-6) all-ones words. Below n = 6 the one word is only partly used.
    """
    cols = np.empty((n, max(1, (1 << n) >> 6)), dtype=np.uint64)
    cols[:6] = _WORD_BITS[:n, None]
    for i in range(6, n):
        runs = cols[i].reshape(-1, 2, 1 << (i - 6))
        runs[:, 0] = 0
        runs[:, 1] = _ALL
    return cols


def _bit_sums(values) -> np.ndarray:
    """For every mask over len(values) bits, the sum of ``values[j]`` over its set bits j.

    Built by doubling in one array, so each sum adds its terms in bit order.
    """
    values = np.asarray(values)
    out = np.empty(1 << values.size, dtype=values.dtype)
    out[0] = 0
    for j, v in enumerate(values):  # the masks with bit j set are those before, plus values[j]
        np.add(out[:1 << j], v, out=out[1 << j:2 << j])
    return out


def _fold_halves(x: np.ndarray, out: np.ndarray) -> list[tuple[float, float]]:
    """Per bit i, the sums of ``x``, indexed by mask, over the states where i has failed and works.

    One Θ(2^N) fold in place of a strided pass per bit. The top bit splits
    ``x`` into two contiguous rows, failed then working: their sums are that
    bit's halves, and their sum over the rows no longer holds it. Folding
    goes on down to bit 0. The folds overwrite the first 2^(N-1) entries of
    ``out``, which may be ``x`` itself.
    """
    halves = []
    while x.size > 1:
        v = x.reshape(2, -1)
        halves.append(tuple(v.sum(axis=1).tolist()))
        x = np.add(v[0], v[1], out=out[:v.shape[1]])
    return halves[::-1]


class StructureFunction:
    """Monotone map from component-state masks to the binary system state.

    Subclasses set ``n_components`` and define ``_states``, which maps packed
    component columns, an (N, words) uint64 array, to the packed system
    state, one uint64 per word. ``truth_table`` passes the columns of all
    2^N masks (``_columns``: bit b of word w is mask 64·w + b) and unpacks
    the result once; ``evaluate`` passes one word per component, whose bit 0
    is the component's state.
    """

    n_components: int
    _table: np.ndarray | None = None

    def _states(self, cols: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, state: int) -> int:
        check_state(state, self.n_components)
        cols = np.array([(state >> i) & 1 for i in range(self.n_components)], dtype=np.uint64)
        return int(self._states(cols[:, None])[0] & 1)

    def truth_table(self) -> np.ndarray:
        """System state for every mask, as a read-only bool vector of length 2^N."""
        if self._table is None:
            words = self._states(_columns(self.n_components))
            # bit b of a word is byte b // 8 of its little-endian form, bit b % 8
            table = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                                  bitorder="little")[:1 << self.n_components].view(bool)
            table.flags.writeable = False
            self._table = table
        return self._table


class FormulaTree(StructureFunction):
    """Nested series/parallel composition over component references.

    Every component index must appear exactly once, which makes the
    function monotone with every component relevant by construction. The
    nodes are kept in post-order, every part before its composite, so no
    pass over the tree recurses however deep it nests.
    """

    def __init__(self, root):
        root = _as_node(root)
        nodes, stack = [], [root]
        while stack:  # root first, each node's parts last to first: post-order reversed
            node = _as_node(stack.pop())
            nodes.append(node)
            if isinstance(node, ComponentRef):
                if node.index < 0:
                    raise ValueError(f"component index {node.index} is negative")
            elif not node.parts:
                raise ValueError(f"composite {node!r} has no parts")
            else:
                stack.extend(node.parts)
        self._nodes = tuple(reversed(nodes))
        indices = [node.index for node in self._nodes if isinstance(node, ComponentRef)]
        duplicates = sorted(i for i, c in Counter(indices).items() if c > 1)
        if duplicates:
            raise ValueError(f"components referenced more than once: {duplicates}")
        n = max(indices) + 1
        missing = sorted(set(range(n)) - set(indices))
        if missing:
            raise ValueError(
                f"component indices must cover 0..{n - 1} exactly; missing {missing}"
            )
        self.root = root
        self.n_components = n

    def _states(self, cols: np.ndarray) -> np.ndarray:
        values = []  # states of the nodes whose composite is still ahead
        for node in self._nodes:
            if isinstance(node, ComponentRef):
                values.append(cols[node.index])
                continue
            cut = len(values) - len(node.parts)
            parts = values[cut:]
            del values[cut:]
            values.append((np.bitwise_and if isinstance(node, SeriesNode)
                           else np.bitwise_or).reduce(parts))
        return values[0]


class STGraph(StructureFunction):
    """Source-to-sink connectivity with components as nodes.

    ``component_nodes[i]`` is the node label of component i. The source and
    sink terminals always conduct, as does any extra label appearing in the
    edge list (a junction). A component node conducts only while working;
    the system works when the sink is reachable from the source.
    """

    def __init__(self, component_nodes, edges, source="o", sink="s", directed=False):
        comp_labels = list(component_nodes)
        if len(set(comp_labels)) != len(comp_labels):
            raise ValueError("component node labels must be distinct")
        if source == sink:
            raise ValueError("source and sink must differ")
        if source in comp_labels or sink in comp_labels:
            raise ValueError("terminals cannot be component nodes")

        edge_list = []
        for edge in edges:
            u, v = edge
            if u == v:
                raise ValueError(f"self-loop on node {u!r}")
            edge_list.append((u, v))
        if not edge_list:
            raise ValueError("graph has no edges")

        touched = {u for u, _ in edge_list} | {v for _, v in edge_list}
        missing = [c for c in comp_labels if c not in touched]
        if missing:
            raise ValueError(f"components never referenced by an edge: {missing}")
        for terminal in (source, sink):
            if terminal not in touched:
                raise ValueError(f"terminal {terminal!r} never referenced by an edge")

        self.n_components = len(comp_labels)
        self.component_nodes = tuple(comp_labels)
        self.edges = tuple(edge_list)
        self.source = source
        self.sink = sink
        self.directed = bool(directed)

    @functools.cached_property
    def _arcs(self) -> tuple:
        """Number of node rows of the reach fixpoint, and its arcs breadth-first from the source.

        Row 0 is the source and row 1 the sink. An arc is (tail row, head
        row, head's component or None for a node that always conducts).
        Arcs into the source or out of the sink never change whether the
        sink is reached, nor do arcs out of nodes the source cannot reach,
        so none is kept.
        """
        out = {}
        for u, v in self.edges:
            out.setdefault(u, {})[v] = None
            if not self.directed:
                out.setdefault(v, {})[u] = None
        comp_of = {label: i for i, label in enumerate(self.component_nodes)}
        rows, queue, arcs = {self.source: 0, self.sink: 1}, [self.source], []
        for u in queue:  # grows while it is read; the sink is never queued
            for v in out.get(u, ()):
                if v != self.source:
                    if v not in rows:
                        rows[v] = len(rows)
                        queue.append(v)
                    arcs.append((rows[u], rows[v], comp_of.get(v)))
        return len(rows), tuple(arcs)

    def _states(self, cols: np.ndarray) -> np.ndarray:
        # Propagate reachability over all masks at once until a sweep adds
        # nothing; each sweep extends every frontier by at least one arc.
        n_rows, arcs = self._arcs
        reach = np.zeros((n_rows, cols.shape[1]), dtype=np.uint64)
        reach[0] = _ALL
        rows, columns = list(reach), list(cols)
        before, step = np.empty_like(reach), np.empty_like(rows[0])
        while True:
            np.copyto(before, reach)
            for u, v, i in arcs:
                if i is None:  # a junction or the sink conducts
                    np.bitwise_or(rows[v], rows[u], out=rows[v])
                else:
                    np.bitwise_and(rows[u], columns[i], out=step)
                    np.bitwise_or(rows[v], step, out=rows[v])
            if np.array_equal(before, reach):
                return rows[1]


class TruthTable(StructureFunction):
    """Explicit system state per mask, rejected unless monotone."""

    def __init__(self, values):
        # a state is 0 or 1 as an int, a bool or a character: an entry whose str is a key
        known = {"0": False, "1": True, "False": False, "True": True}
        states = [known.get(str(v), v) for v in values]
        bad = next((k for k, s in enumerate(states) if not isinstance(s, bool)), None)
        if bad is not None:
            raise ValueError(f"truth table entry {bad} is {states[bad]!r}, not 0 or 1")
        arr = np.array(states, dtype=bool)
        size = arr.size
        if size < 2 or size & (size - 1):
            raise ValueError("truth table length must be a power of two, at least 2")
        n = size.bit_length() - 1
        for i in range(n):
            split = arr.reshape(-1, 2, 1 << i)  # [:, 0] failed, [:, 1] working
            if np.any(split[:, 0] & ~split[:, 1]):
                raise NonMonotoneError(
                    f"repairing component {i} can flip the system from 1 to 0"
                )
        arr.flags.writeable = False
        self.n_components = n
        self._table = arr

    def evaluate(self, state: int) -> int:
        check_state(state, self.n_components)
        return int(self._table[state])


class Network:
    """A named set of binary components tied together by a structure function."""

    def __init__(self, structure: StructureFunction, names=None,
                 cap: int = DEFAULT_COMPONENT_CAP):
        n = structure.n_components
        if n < 1:
            raise ValueError("a network needs at least one component")
        if n > cap:
            raise SizeCapError(
                f"{n} components exceed the cap of {cap}; pass cap= explicitly "
                "to analyze larger systems"
            )
        if names is None:
            names = tuple(f"c{i + 1}" for i in range(n))
        else:
            names = tuple(str(x) for x in names)
            if len(names) != n:
                raise ValueError(f"expected {n} names, got {len(names)}")
            if len(set(names)) != n:
                raise ValueError("component names must be distinct")
        self.structure = structure
        self.n_components = n
        self.names = names
        self._index = {name: i for i, name in enumerate(names)}

    def index_of(self, name: str) -> int:
        return self._index[name]

    def evaluate(self, state: int) -> int:
        return self.structure.evaluate(state)

    def truth_table(self) -> np.ndarray:
        return self.structure.truth_table()

    def is_pure_series(self) -> bool:
        """True when the system works only with every component up."""
        return int(self.truth_table().sum()) == 1

    def is_pure_parallel(self) -> bool:
        """True when the system fails only with every component down."""
        table = self.truth_table()
        return int(table.size - table.sum()) == 1
