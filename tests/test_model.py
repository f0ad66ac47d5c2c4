"""Structure functions: evaluation, encodings, and monotonicity."""

import tracemalloc
from collections import deque

import numpy as np
import pytest

from netvoi import (ALARM, Explicit, FormulaTree, Independent, InspectionModel,
                    InvalidStateError, LocalCostModel, Network, NonMonotoneError,
                    QuadraticLoss, SimulationConfig, SizeCapError, STGraph, TruthTable,
                    alarm_probability, importance_measures, mc_system_failure, parallel,
                    plan_expected_loss, plan_failure_risks, posterior_given_observation,
                    posterior_interval, posterior_system_failure, rank_global, series,
                    system_failure_prob, voi_global, voi_heuristic, voi_local)
from netvoi.model import ComponentRef, ParallelNode, SeriesNode, _fold_halves

from conftest import make_three_branch, random_formula, random_network, strided_halves


def test_two_component_series_evaluation():
    net = Network(FormulaTree(series(0, 1)))
    assert net.evaluate(0b11) == 1
    assert net.evaluate(0b01) == 0
    assert net.evaluate(0b10) == 0
    assert net.evaluate(0b00) == 0


def test_three_branch_state_with_every_branch_hit():
    # one failed component in each branch, checked against path enumeration
    net = make_three_branch()
    paths = [{0, 1}, {2, 3}, {4, 5}]
    failed = {0, 3, 5}
    mask = sum(1 << i for i in range(6) if i not in failed)
    assert all(path & failed for path in paths)
    assert net.evaluate(mask) == 0


def test_formula_agrees_with_path_enumeration_everywhere():
    net = make_three_branch()
    paths = [{0, 1}, {2, 3}, {4, 5}]
    for mask in range(64):
        up = {i for i in range(6) if (mask >> i) & 1}
        expected = int(any(path <= up for path in paths))
        assert net.evaluate(mask) == expected


def test_state_mask_out_of_range_rejected():
    net = Network(FormulaTree(series(0, 1)))
    with pytest.raises(InvalidStateError):
        net.evaluate(0b100)
    with pytest.raises(InvalidStateError):
        net.evaluate(-1)


def test_formula_each_component_exactly_once():
    with pytest.raises(ValueError):
        FormulaTree(series(0, parallel(1, 0)))
    with pytest.raises(ValueError):
        FormulaTree(series(0, 2))  # gap at index 1


def test_formula_composite_without_parts_rejected():
    # series() and parallel() refuse no parts; nodes built directly are
    # checked by the tree, which names the empty node
    for empty in (SeriesNode(()), ParallelNode(())):
        message = rf"composite {type(empty).__name__}\(parts=\(\)\) has no parts"
        for root in (ParallelNode((ComponentRef(0), empty)), SeriesNode((empty,)), empty):
            with pytest.raises(ValueError, match=message):
                FormulaTree(root)


@pytest.mark.parametrize("root, built", [
    (SeriesNode((0, 1)), series(0, 1)),
    (ParallelNode((SeriesNode((0, 1)), 2)), parallel(series(0, 1), 2)),
])
def test_formula_parts_built_directly_read_as_series_and_parallel_do(root, built):
    # a raw index among a node's parts is a component reference, as in series()
    assert np.array_equal(FormulaTree(root).truth_table(), FormulaTree(built).truth_table())


@pytest.mark.parametrize("root, error, message", [
    (ComponentRef(-1), ValueError, r"component index -1 is negative"),
    (SeriesNode((ComponentRef(0), ComponentRef(-2))), ValueError,
     r"component index -2 is negative"),
    (SeriesNode((0, 1.5)), TypeError, r"cannot use 1\.5 in a structure formula"),
    (ParallelNode((0, True)), TypeError, r"cannot use True in a structure formula"),
])
def test_formula_rejects_a_bad_part_by_name(root, error, message):
    with pytest.raises(error, match=message):
        FormulaTree(root)


def test_truth_table_matches_formula_on_all_states():
    tree = FormulaTree(parallel(series(0, 1), 2))
    table = TruthTable(tree.truth_table())
    for mask in range(8):
        assert table.evaluate(mask) == tree.evaluate(mask)


def test_truth_table_rejects_non_monotone():
    # works only when the single component is down
    with pytest.raises(NonMonotoneError):
        TruthTable([1, 0])


def test_truth_table_accepts_constant_and_requires_power_of_two():
    TruthTable([0, 0])
    TruthTable([1, 1])
    with pytest.raises(ValueError):
        TruthTable([0, 1, 1])


def test_truth_table_states_are_0_or_1():
    # ints, bools and characters all read; nothing else is a state
    for values in ([0, 1, 1, 1], [False, True, True, True], "0111", np.array([0, 1, 1, 1])):
        assert TruthTable(values).truth_table().tolist() == [False, True, True, True]
    for values, k, shown in (([0, 2, 1, 1], 1, "2"), ("0121", 2, "'2'"),
                             ([0, 1, 1.0, 1], 2, "1.0"), ([0, 1, 1, None], 3, "None")):
        with pytest.raises(ValueError, match=rf"^truth table entry {k} is {shown}, not 0 or 1$"):
            TruthTable(values)


def test_st_graph_matches_formula_composition():
    graph = STGraph(["c1", "c2", "c3"],
                    [("o", "c1"), ("c1", "c2"), ("c1", "c3"),
                     ("c2", "s"), ("c3", "s")])
    tree = FormulaTree(series(0, parallel(1, 2)))
    assert np.array_equal(graph.truth_table(), tree.truth_table())
    for mask in range(8):
        assert graph.evaluate(mask) == tree.evaluate(mask)


def test_st_graph_junction_nodes_conduct():
    # bus junction j joins two feeds before the final component
    graph = STGraph(["a", "b", "c"],
                    [("o", "a"), ("o", "b"), ("a", "j"), ("b", "j"), ("j", "c"),
                     ("c", "s")])
    tree = FormulaTree(series(parallel(0, 1), 2))
    assert np.array_equal(graph.truth_table(), tree.truth_table())


def test_st_graph_directed_edges_respected():
    forward = STGraph(["a"], [("o", "a"), ("a", "s")], directed=True)
    assert forward.evaluate(0b1) == 1
    backward = STGraph(["a"], [("a", "o"), ("s", "a")], directed=True)
    assert backward.evaluate(0b1) == 0


def test_st_graph_validation():
    with pytest.raises(ValueError):
        STGraph(["a", "a"], [("o", "a"), ("a", "s")])
    with pytest.raises(ValueError):
        STGraph(["a"], [("o", "s")])  # component never referenced
    with pytest.raises(ValueError):
        STGraph(["a"], [("o", "a")])  # sink never referenced
    with pytest.raises(ValueError):
        STGraph(["a"], [("o", "a"), ("a", "a"), ("a", "s")])  # self loop


def test_monotone_under_single_repairs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        net = random_network(rng, n)
        table = net.truth_table()
        for i in range(n):
            masks = np.arange(1 << n)
            low = masks[(masks >> i) & 1 == 0]
            assert np.all(table[low] <= table[low + (1 << i)])


def test_network_cap_and_names():
    with pytest.raises(SizeCapError):
        Network(FormulaTree(series(*range(21))))
    Network(FormulaTree(series(*range(21))), cap=21)
    with pytest.raises(ValueError):
        Network(FormulaTree(series(0, 1)), names=["x"])
    with pytest.raises(ValueError):
        Network(FormulaTree(series(0, 1)), names=["x", "x"])
    net = Network(FormulaTree(series(0, 1)), names=["left", "right"])
    assert net.index_of("right") == 1


def test_pure_shape_detection():
    assert Network(FormulaTree(series(0, 1, 2))).is_pure_series()
    assert not Network(FormulaTree(series(0, 1, 2))).is_pure_parallel()
    assert Network(FormulaTree(parallel(0, 1, 2))).is_pure_parallel()
    mixed = Network(FormulaTree(series(0, parallel(1, 2))))
    assert not mixed.is_pure_series()
    assert not mixed.is_pure_parallel()


def random_st_graph(rng, n, directed):
    """Components c0.. and up to two junctions on random source-to-sink paths, plus extra edges.

    Paths run from o to s, each through a label no earlier path used, a
    random component and up to three random others, until every label is
    on one.
    """
    comps = [f"c{i}" for i in range(n)]
    inner = comps + [f"j{k}" for k in range(int(rng.integers(0, 3)))]
    edges, unused = [], set(inner)
    while unused:
        mids = {min(unused), comps[rng.integers(n)]}
        mids |= {inner[j] for j in rng.integers(len(inner), size=rng.integers(4))}
        path = ["o", *rng.permutation(sorted(mids)).tolist(), "s"]
        unused -= mids
        edges += zip(path, path[1:])
    for _ in range(int(rng.integers(0, n + 1))):
        if len(inner) > 1:
            u, v = rng.choice(len(inner), size=2, replace=False)
            edges.append((inner[u], inner[v]))
    return STGraph(comps, edges, directed=directed)


def bfs_works(graph, mask):
    """Whether the sink is reachable from the source over working components."""
    up = {label for i, label in enumerate(graph.component_nodes) if (mask >> i) & 1}
    neighbours = {}
    for u, v in graph.edges:
        neighbours.setdefault(u, []).append(v)
        if not graph.directed:
            neighbours.setdefault(v, []).append(u)
    seen, queue = {graph.source}, deque([graph.source])
    while queue:
        for nxt in neighbours.get(queue.popleft(), ()):
            if nxt not in seen and (nxt in up or nxt not in graph.component_nodes):
                seen.add(nxt)
                queue.append(nxt)
    return graph.sink in seen


def test_st_graph_truth_table_matches_per_mask_search():
    rng = np.random.default_rng(23)
    for k in range(30):
        n = 1 + k % 10
        graph = random_st_graph(rng, n, directed=bool(k % 3 == 0))
        expected = [bfs_works(graph, m) for m in range(1 << n)]
        assert graph.truth_table().tolist() == expected, (graph.edges, graph.directed)


def test_evaluate_is_the_one_mask_case_of_the_truth_table():
    rng = np.random.default_rng(29)
    for k in range(12):
        n = 1 + k % 6
        tree = random_network(rng, n).structure if n > 1 else FormulaTree(series(0))
        graph = random_st_graph(rng, n, directed=bool(k % 2))
        for structure in (tree, graph, TruthTable(graph.truth_table())):
            table = structure.truth_table()
            assert not table.flags.writeable
            assert [structure.evaluate(m) for m in range(1 << n)] == table.astype(int).tolist()


def formula_works(node, mask):
    """Whether a formula node works in ``mask``, read straight off the tree."""
    if isinstance(node, ComponentRef):
        return bool((mask >> node.index) & 1)
    states = (formula_works(part, mask) for part in node.parts)
    return all(states) if isinstance(node, SeriesNode) else any(states)


def test_packed_tables_match_one_mask_at_a_time():
    # N = 1..9 spans a part-used word, exactly one word (N = 6) and several
    rng = np.random.default_rng(31)
    for n in range(1, 10):
        for k in range(6):
            directed = bool(k % 2)
            base = random_st_graph(rng, max(n - 1, 1), directed)
            comps = list(base.component_nodes)
            # an arc back into the source, and a component on an island with a
            # junction, which the source cannot reach
            edges = [*base.edges, (comps[int(rng.integers(len(comps)))], "o")]
            if n > 1:
                comps.append("u")
                edges.append(("u", "island"))
            graph = STGraph(comps, edges, directed=directed)
            tree = FormulaTree(random_formula(rng, n))
            for structure, works in ((graph, lambda m: bfs_works(graph, m)),
                                     (tree, lambda m: formula_works(tree.root, m))):
                table = structure.truth_table()
                assert table.dtype == bool and table.shape == (1 << n,)
                assert not table.flags.writeable
                expected = [works(m) for m in range(1 << n)]
                assert table.tolist() == expected, (n, edges, directed, tree.root)
                assert [structure.evaluate(m) for m in range(1 << n)] == list(map(int, expected))


def test_truth_table_peak_memory_below_16_bytes_per_state():
    # packed columns hold 64 states a word: no 2^N array of masks is formed
    n = 20
    rails = [[f"{r}{k}" for k in range(n // 2)] for r in "ab"]
    edges = [("o", "a0"), ("o", "b0"), (rails[0][-1], "s"), (rails[1][-1], "s")]
    edges += [(rail[k], rail[k + 1]) for rail in rails for k in range(n // 2 - 1)]
    edges += list(zip(*rails))
    ladder = STGraph(rails[0] + rails[1], edges)
    four_way = FormulaTree(parallel(*(series(*map(int, part))
                                      for part in np.array_split(np.arange(n), 4))))
    for structure in (ladder, four_way):
        tracemalloc.start()
        try:
            table = structure.truth_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.size == 1 << n
        assert peak < 16 << n, type(structure).__name__


def test_formula_nested_far_past_the_recursion_limit():
    # a library-built tree is not held to the document depth cap; building
    # and evaluating it must not recurse once per level
    node = 0
    for depth in range(3000):
        node = series(node) if depth % 2 else parallel(node)
    tree = FormulaTree(node)
    assert tree.truth_table().tolist() == [False, True]
    assert tree.evaluate(1) == 1


# One size check guards every entry point: a network, a belief, a cost model
# and per-component inspection rates must agree on the component count.

_SIZED = {
    "posterior_interval": lambda net, dist, insp, costs: posterior_interval(net, dist, 0, insp),
    "posterior_system_failure":
        lambda net, dist, insp, costs: posterior_system_failure(net, dist, 0, ALARM, insp),
    "voi_global": lambda net, dist, insp, costs: voi_global(net, dist, 0, insp, QuadraticLoss()),
    "rank_global": lambda net, dist, insp, costs: rank_global(net, dist, insp, QuadraticLoss()),
    "importance_measures": lambda net, dist, insp, costs: importance_measures(net, dist, insp),
    "voi_local": lambda net, dist, insp, costs: voi_local(net, dist, insp, costs),
    "voi_heuristic": lambda net, dist, insp, costs: voi_heuristic(net, dist, insp, costs),
    "plan_failure_risks": lambda net, dist, insp, costs: plan_failure_risks(net, dist),
    "system_failure_prob": lambda net, dist, insp, costs: system_failure_prob(net, dist),
    "mc_system_failure":
        lambda net, dist, insp, costs: mc_system_failure(net, dist, SimulationConfig(10)),
    "plan_expected_loss": lambda net, dist, insp, costs: plan_expected_loss(net, dist, 0, costs),
    # these two take no network: the rates must number the belief's components
    "posterior_given_observation":
        lambda net, dist, insp, costs: posterior_given_observation(dist, 2, ALARM, insp),
    "alarm_probability": lambda net, dist, insp, costs: alarm_probability(dist, 2, insp),
}
_UNNETWORKED = ("posterior_given_observation", "alarm_probability")
_NET3 = Network(FormulaTree(parallel(series(0, 1), 2)))
_DIST3 = Independent([0.1, 0.2, 0.3])
_COSTS3 = LocalCostModel.uniform(3, 1.0, 0.1)
_NOISY = InspectionModel(0.05, 0.1)


_WRONG_BELIEFS = [(Independent([0.1, 0.2, 0.3, 0.4]), "Independent has 4"),
                  (Explicit([0.5, 0.5]), "Explicit has 1")]
_WRONG_COSTS = LocalCostModel.uniform(2, 1.0, 0.1)


@pytest.mark.parametrize("name, dist, costs, message", [
    (name, dist, _COSTS3, message) for name in _SIZED if name not in _UNNETWORKED
    for dist, message in _WRONG_BELIEFS
] + [
    (name, _DIST3, _WRONG_COSTS, "LocalCostModel has 2")
    for name in ("voi_local", "voi_heuristic", "plan_expected_loss")
])
def test_a_belief_or_cost_model_of_the_wrong_size_raises_one_error(name, dist, costs, message):
    with pytest.raises(ValueError, match=f"^Network has 3 components but {message}$"):
        _SIZED[name](_NET3, dist, _NOISY, costs)


_RATED = ("posterior_interval", "posterior_system_failure", "voi_global", "rank_global",
          "importance_measures", "voi_local", "voi_heuristic") + _UNNETWORKED


@pytest.mark.parametrize("name", _RATED)
@pytest.mark.parametrize("eps_fa, eps_fs, count", [
    ((0.1, 0.2, 0.3, 0.4), 0.0, 4),
    ((0.1, 0.2), 0.0, 2),
    (0.0, (0.1, 0.2), 2),
    ((0.1, 0.2, 0.3, 0.4), (0.0, 0.1, 0.2, 0.3), 4),
])
def test_inspection_rates_must_number_the_components(name, eps_fa, eps_fs, count):
    insp = InspectionModel(eps_fa, eps_fs)
    assert insp.n_components == count
    owner = "Independent" if name in _UNNETWORKED else "Network"
    with pytest.raises(ValueError, match=f"^{owner} has 3 components but InspectionModel "
                                         f"has {count}$"):
        _SIZED[name](_NET3, _DIST3, insp, _COSTS3)


def test_inspection_rate_lists_must_agree_and_a_full_list_fits():
    with pytest.raises(ValueError, match="^2 false-alarm rates but 3 false-silence rates$"):
        InspectionModel((0.1, 0.2), (0.0, 0.1, 0.2))
    insp = InspectionModel(0.05, (0.0, 0.1, 0.2))
    assert insp.n_components == 3 and InspectionModel(0.05, 0.1).n_components is None
    for name in _RATED:
        _SIZED[name](_NET3, _DIST3, insp, _COSTS3)


@pytest.mark.parametrize("n", range(1, 15))
def test_one_fold_gives_every_bit_the_halves_of_its_own_pass(n):
    rng = np.random.default_rng(n)
    certain = int(rng.integers(n))
    uniform = rng.uniform(0.0, 1.0, 1 << n)
    dyadic = rng.integers(0, 1 << 20, 1 << n) * 2.0 ** -20  # every sum is exact in any order
    for x in (uniform, dyadic, np.zeros(1 << n)):
        x.reshape(-1, 2, 1 << certain)[:, 1] = 0.0  # a component that always fails
        x.flags.writeable = False  # folded into another array, x is left alone
        halves = _fold_halves(x, np.empty(x.size // 2))
        assert len(halves) == n and halves[certain][1] == 0.0
        for i, pair in enumerate(halves):
            assert pair == pytest.approx(strided_halves(x, i), rel=1e-14, abs=0.0)
        copy = x.copy()
        assert _fold_halves(copy, copy) == halves
    assert halves == [(0.0, 0.0)] * n
    exact = [strided_halves(dyadic, i) for i in range(n)]
    assert _fold_halves(dyadic, np.empty(dyadic.size // 2)) == exact
