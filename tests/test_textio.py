import random

import pytest

from conftest import G
from reltutte import EdgeRecord, format_graph, parse_graph_text, tensor_product
from reltutte.errors import EngineError
from reltutte.randgen import derived_seed, random_graph_with_zero_edges, random_pointed_graph, random_tensor_instance
from reltutte.errors import (
    DuplicateEdgeId,
    ParseError,
    PointedZeroConflict,
    TwoPointedEdges,
)


def test_parse_two_parallel_example():
    g = G("edge a 1 2 color=mu\nedge h 1 2 color=z0 zero")
    assert sorted(g.edge_ids()) == ["a", "h"]
    assert g.edge("h").is_zero and not g.edge("a").is_zero
    assert tuple(sorted(g.vertex_set)) == ("1", "2")


def test_comments_and_blank_lines():
    g = parse_graph_text("# header\n\nedge a 1 2 color=mu  # trailing\n")
    assert g.edge_ids() == ("a",)


def test_duplicate_edge_id():
    with pytest.raises(DuplicateEdgeId):
        parse_graph_text("edge a 1 2 color=mu\nedge a 2 3 color=mu")


def test_two_pointed_edges():
    with pytest.raises(TwoPointedEdges):
        parse_graph_text(
            "edge a 1 2 color=nu pointed\nedge b 2 3 color=nu pointed"
        )


def test_pointed_zero_conflict():
    with pytest.raises(PointedZeroConflict):
        parse_graph_text("edge a 1 2 color=nu zero pointed")


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as exc:
        parse_graph_text("edge a 1 2 color=mu\nvertex b", source="f.graph")
    assert "f.graph:2" in str(exc.value)


def test_reserved_colors_rejected():
    with pytest.raises(ParseError):
        parse_graph_text("edge a 1 2 color=nu")  # nu without pointed
    with pytest.raises(ParseError):
        parse_graph_text("edge a 1 2 color=lambda0 zero")
    with pytest.raises(ParseError):
        parse_graph_text("edge a 1 2 color=mu pointed")  # pointed must use nu


def test_zero_flag_consistency_per_color():
    with pytest.raises(ParseError):
        parse_graph_text("edge a 1 2 color=mu\nedge b 2 3 color=mu zero")


def test_round_trip_identity():
    g = G(
        """
        edge ep a b color=nu pointed
        edge m b c color=mu
        edge h c a color=z0 zero
        """
    )
    assert parse_graph_text(format_graph(g, header="round trip")) == g


def test_format_then_parse_round_trips_seeded_graphs():
    for i in range(60):
        rng = random.Random(derived_seed(71, i))
        ti = random_tensor_instance(rng)
        for g in (random_graph_with_zero_edges(rng), random_pointed_graph(rng).graph, ti.g1, tensor_product(ti)):
            assert parse_graph_text(format_graph(g)) == g


def test_unwritable_edge_record_is_refused():
    # unchecked, it would build and format_graph would write "edge e1 a b c color=mu"
    with pytest.raises(EngineError):
        EdgeRecord("e1", "a b", "c", "mu")
