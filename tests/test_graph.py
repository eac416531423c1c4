"""Tests for the model-graph substrate (edges, ordering, statistics)."""

from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import GraphError
from repro.models.graph import ModelGraph
from repro.models.layer import conv2d, fc, pwconv
from repro.models.zoo import available_models, build_model


def _three_layer_graph() -> ModelGraph:
    layers = [
        conv2d("a", k=8, c=3, y=18, x=18, r=3, s=3),
        pwconv("b", k=16, c=8, y=16, x=16),
        fc("c", k=10, c=16 * 16 * 16),
    ]
    return ModelGraph.from_layers("toy", layers)


class TestConstruction:
    def test_from_layers_counts(self):
        graph = _three_layer_graph()
        assert len(graph) == 3

    def test_layers_are_attributed_to_model(self):
        graph = _three_layer_graph()
        assert all(layer.model_name == "toy" for layer in graph.layers)

    def test_duplicate_layer_names_rejected(self):
        graph = ModelGraph(name="dup")
        graph.add_layer(fc("same", k=4, c=4))
        with pytest.raises(GraphError):
            graph.add_layer(fc("same", k=8, c=8))

    def test_sequential_chain_edges(self):
        graph = _three_layer_graph()
        assert ("a", "b") in graph.edges()
        assert ("b", "c") in graph.edges()

    def test_non_sequential_graph_has_no_edges(self):
        graph = ModelGraph.from_layers("flat", [fc("a", k=4, c=4), fc("b", k=4, c=4)],
                                       sequential=False)
        assert graph.edges() == []

    def test_contains_and_iter(self):
        graph = _three_layer_graph()
        assert "a" in graph and "missing" not in graph
        assert [layer.name for layer in graph] == ["a", "b", "c"]


class TestEdges:
    def test_add_edge_unknown_layer_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "nope")

    def test_self_edge_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("a", "a")

    def test_cycle_rejected(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("c", "a")

    def test_cycle_rejection_leaves_graph_usable(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.add_edge("c", "a")
        assert len(graph.dependence_order()) == 3

    def test_predecessors_and_successors(self):
        graph = _three_layer_graph()
        assert [l.name for l in graph.predecessors("b")] == ["a"]
        assert [l.name for l in graph.successors("b")] == ["c"]

    def test_skip_connection_edge(self):
        graph = _three_layer_graph()
        graph.add_edge("a", "c")
        assert [l.name for l in graph.predecessors("c")] == ["a", "b"]


class TestOrdering:
    def test_dependence_order_respects_edges(self):
        graph = _three_layer_graph()
        order = [layer.name for layer in graph.dependence_order()]
        assert order.index("a") < order.index("b") < order.index("c")

    def test_dependence_order_with_branches(self):
        graph = ModelGraph(name="branchy")
        for name in ("in", "left", "right", "out"):
            graph.add_layer(fc(name, k=4, c=4))
        graph.add_edge("in", "left")
        graph.add_edge("in", "right")
        graph.add_edge("left", "out")
        graph.add_edge("right", "out")
        order = [layer.name for layer in graph.dependence_order()]
        assert order[0] == "in" and order[-1] == "out"

    def test_layer_lookup_error(self):
        graph = _three_layer_graph()
        with pytest.raises(GraphError):
            graph.layer("missing")


class TestStatistics:
    def test_total_macs_is_sum(self):
        graph = _three_layer_graph()
        assert graph.total_macs == sum(layer.macs for layer in graph.layers)

    def test_total_parameters_is_sum(self):
        graph = _three_layer_graph()
        assert graph.total_parameters == sum(l.filter_elements for l in graph.layers)

    def test_heterogeneity_has_min_le_max(self):
        stats = _three_layer_graph().heterogeneity()
        assert stats["min"] <= stats["median"] <= stats["max"]

    def test_describe_mentions_name(self):
        assert "toy" in _three_layer_graph().describe()


class TestSubgraph:
    def test_subgraph_keeps_induced_edges(self):
        graph = _three_layer_graph()
        sub = graph.subgraph(["a", "b"])
        assert len(sub) == 2
        assert ("a", "b") in sub.edges()

    def test_subgraph_drops_external_edges(self):
        graph = _three_layer_graph()
        sub = graph.subgraph(["a", "c"])
        assert sub.edges() == []

    def test_subgraph_unknown_layer_rejected(self):
        with pytest.raises(GraphError):
            _three_layer_graph().subgraph(["a", "zzz"])


# ---------------------------------------------------------------------------
# Equivalence with the quadratic reference construction
# ---------------------------------------------------------------------------
class _ReferenceGraph(ModelGraph):
    """The straightforward construction the production graph must match.

    ``add_edge`` mutates, runs a full topological sort to look for a cycle
    and rolls back on failure; the dependence order pops the head of a ready
    list that is re-sorted by insertion position after every push.  Both are
    quadratic, which is why :class:`ModelGraph` checks reachability before
    mutating and keeps the ready layers in a heap instead.
    """

    def add_edge(self, producer: str, consumer: str) -> None:
        for endpoint in (producer, consumer):
            if endpoint not in self._layers:
                raise GraphError(
                    f"model {self.name!r}: unknown layer {endpoint!r} in edge "
                    f"({producer!r} -> {consumer!r})"
                )
        if producer == consumer:
            raise GraphError(f"model {self.name!r}: self-edge on {producer!r}")
        self._successors[producer].add(consumer)
        self._predecessors[consumer].add(producer)
        self._derived.clear()
        try:
            self.dependence_order()
        except GraphError:
            self._successors[producer].discard(consumer)
            self._predecessors[consumer].discard(producer)
            self._derived.clear()
            raise GraphError(
                f"model {self.name!r}: edge ({producer!r} -> {consumer!r}) creates a cycle"
            ) from None

    def _dependence_order_names(self) -> Tuple[str, ...]:
        position = {name: index for index, name in enumerate(self._order)}
        in_degree = {name: len(self._predecessors[name]) for name in self._order}
        ready = [name for name in self._order if in_degree[name] == 0]
        result: List[str] = []
        while ready:
            current = ready.pop(0)
            result.append(current)
            for successor in sorted(self._successors[current]):
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
                    ready.sort(key=position.__getitem__)
        if len(result) != len(self._order):
            raise GraphError(f"model {self.name!r}: dependence graph contains a cycle")
        return tuple(result)


def _structure(graph: ModelGraph):
    return (graph.edges(),
            [layer.name for layer in graph.dependence_order()],
            graph.predecessor_indices(),
            graph.successor_indices())


def _adjacency(graph: ModelGraph):
    return ({name: set(edges) for name, edges in graph._successors.items()},
            {name: set(edges) for name, edges in graph._predecessors.items()})


def _add_edge(graph: ModelGraph, producer: str, consumer: str):
    """Apply one edge; return the rejection message, or None if accepted."""
    try:
        graph.add_edge(producer, consumer)
    except GraphError as error:
        return str(error)
    return None


@st.composite
def _edge_sequences(draw):
    size = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=size - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return size, edges


class TestReferenceEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(_edge_sequences())
    def test_random_edge_sequences_match_the_reference(self, case):
        size, edges = case
        # Names out of alphabetical order, so insertion position and name
        # order disagree.
        names = [f"l{(7 * index) % size:02d}_{index}" for index in range(size)]
        graph, reference = ModelGraph(name="g"), _ReferenceGraph(name="g")
        for name in names:
            graph.add_layer(fc(name, k=4, c=4))
            reference.add_layer(fc(name, k=4, c=4))
        for producer, consumer in edges:
            before = _adjacency(graph)
            outcome = _add_edge(graph, names[producer], names[consumer])
            assert outcome == _add_edge(reference, names[producer],
                                        names[consumer])
            if outcome is not None:
                assert _adjacency(graph) == before
            assert _structure(graph) == _structure(reference)

    @pytest.mark.parametrize("model_name", available_models())
    def test_zoo_graphs_match_the_reference(self, model_name):
        graph = build_model(model_name)
        reference = _ReferenceGraph(name=graph.name)
        for layer in graph.layers:
            reference.add_layer(layer)
        for producer, consumer in graph.edges():
            reference.add_edge(producer, consumer)
        assert _structure(graph) == _structure(reference)
        assert graph.sorted_predecessor_indices() == \
            reference.sorted_predecessor_indices()
        assert graph.retirement_indices() == reference.retirement_indices()

    def test_rejected_cycle_leaves_the_graph_unchanged(self):
        graph = _three_layer_graph()
        order = graph.dependence_order()
        before = (_adjacency(graph), _structure(graph))
        with pytest.raises(GraphError, match=r"edge \('c' -> 'a'\) creates a cycle"):
            graph.add_edge("c", "a")
        assert (_adjacency(graph), _structure(graph)) == before
        assert graph.dependence_order() == order
