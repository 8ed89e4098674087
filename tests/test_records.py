"""The package's records: read-only fields, equality by value, and the
repr they print (certificate digests hash that repr)."""

import pytest

from spidersearch.graph import (
    Graph,
    complete_bipartite,
    path_graph,
    spider_pattern,
    subdivide,
)
from spidersearch.oracle import contains
from spidersearch.patterns import compile_template, parse_pattern
from spidersearch.sweep import SweepConfig


def _witness():
    g = subdivide(complete_bipartite(2, 3), 2)
    return contains(g, parse_pattern("kst:2,3^2")).witness


@pytest.mark.parametrize("make, field", [
    (lambda: path_graph(2), "n"),
    (lambda: path_graph(2), "edges"),
    (_witness, "paths"),
    (lambda: parse_pattern("kst:2,3^2"), "s"),
    (lambda: compile_template(parse_pattern("kst:2,3^2")), "requirements"),
    (lambda: contains(path_graph(2), parse_pattern("cycle:3")), "status"),
    (lambda: spider_pattern((1, 2)), "roots"),
    (lambda: SweepConfig(parse_pattern("cycle:3"), 3, 5), "seeds"),
], ids=["Graph.n", "Graph.edges", "Witness", "PatternDescriptor", "Template",
        "ContainmentResult", "RootedPattern", "SweepConfig"])
def test_fields_are_read_only(make, field):
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before


def test_graph_equality_and_hash_follow_n_and_edges():
    a = Graph.from_edges(3, [(1, 2), (0, 1)])
    b = Graph(3, frozenset({(0, 1), (1, 2)}))
    assert a == b and hash(a) == hash(b)
    assert a != Graph(4, b.edges)
    assert a != Graph(3, frozenset({(0, 1)}))
    assert a != (3, b.edges)
    assert len({a, b, path_graph(2)}) == 1


@pytest.mark.parametrize("make, text", [
    (lambda: Graph.from_edges(3, [(1, 2), (0, 1)]),
     "Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))"),
    (lambda: parse_pattern("kst:2,3^2"),
     "PatternDescriptor(kind='kst', s=2, t=3, length=0, legs=(), "
     "edge_list=(), num_vertices=0, subdivision=2, blowup=None)"),
    (_witness,
     "Witness(pattern=PatternDescriptor(kind='kst', s=2, t=3, length=0, "
     "legs=(), edge_list=(), num_vertices=0, subdivision=2, blowup=None), "
     "terminals=(0, 1, 2, 3, 4), paths=((2, 5, 0), (2, 8, 1), (3, 6, 0), "
     "(3, 9, 1), (4, 7, 0), (4, 10, 1)), route='oracle')"),
], ids=["Graph", "PatternDescriptor", "Witness"])
def test_repr(make, text):
    assert repr(make()) == text
