from fractions import Fraction

import pytest

from spidersearch.graph import complete_bipartite, cycle_graph, subdivide
from spidersearch.oracle import are_isomorphic
from spidersearch.patterns import (
    as_cycle_length,
    compile_template,
    instantiate,
    parse_pattern,
    theoretical_exponent,
)


class TestParse:
    @pytest.mark.parametrize("text", [
        "kst:2,2", "kst:3,4^2", "cycle:8", "spider:1,2,3",
        "spider:2,2^2*3", "arbitrary:4:0-1;1-2;2-3",
    ])
    def test_round_trip(self, text):
        assert str(parse_pattern(text)) == text

    def test_defaults(self):
        d = parse_pattern("kst:2,3")
        assert d.subdivision == 1 and d.blowup is None

    @pytest.mark.parametrize("text", [
        "kst:2", "kst:0,2", "cycle:2", "spider:0,1", "nonsense",
        "kst:2,2*3", "cycle:6*2", "kst:2,2^0", "arbitrary:2:1-1^3",
        "arbitrary:2:0-5^2", "arbitrary:3:0--1", "kst:2,", "spider:1,,2",
        "arbitrary:3:0-", "arbitrary:3:0-1-2", "arbitrary:3:",
        "arbitrary::0-1", "arbitrary:2:0-1;0-1", "arbitrary:3:0-1;1-0",
    ])
    def test_rejects(self, text):
        with pytest.raises(ValueError) as exc:
            parse_pattern(text)
        assert "invalid literal" not in str(exc.value)  # int()'s own message

    @pytest.mark.parametrize("text", [
        "kst:2,2*3", "cycle:6*2", "arbitrary:2:0-1*2",
        # the blowup is checked first, before the kind's own arguments
        "kst:2*3", "cycle:2*2", "arbitrary:2:1-1*2",
    ])
    def test_blowup_outside_spiders(self, text):
        with pytest.raises(ValueError,
                           match="^blowup modifier applies to spider "
                                 "patterns only$"):
            parse_pattern(text)

    @pytest.mark.parametrize("text, message", [
        ("spider:1,2*0", "blowup modifier must be >= 1"),
        ("foo:1", "unknown pattern kind 'foo'"),
    ])
    def test_rejects_with_message(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_pattern(text)
        assert str(exc.value) == message


class TestTemplates:
    def test_kst_template_shape(self):
        tmpl = compile_template(parse_pattern("kst:2,3^2"))
        assert tmpl.num_terminals == 5
        assert tmpl.requirements == tuple(
            (2 + j, i, 2) for j in range(3) for i in range(2)
        )

    def test_kst_equals_spider_blowup(self):
        a = compile_template(parse_pattern("kst:2,3^2"))
        b = compile_template(parse_pattern("spider:2,2*3"))
        assert a == b

    def test_instantiate_matches_constructors(self):
        g = instantiate(parse_pattern("kst:3,3^2"))
        assert are_isomorphic(g, subdivide(complete_bipartite(3, 3), 2))
        c = instantiate(parse_pattern("cycle:6"))
        assert are_isomorphic(c, cycle_graph(6))


class TestCycleShape:
    def test_k22_subdivisions_are_cycles(self):
        assert as_cycle_length(parse_pattern("kst:2,2^2")) == 8
        assert as_cycle_length(parse_pattern("cycle:5^2")) == 10
        assert as_cycle_length(parse_pattern("spider:3,3*2")) == 12

    def test_non_cycles(self):
        assert as_cycle_length(parse_pattern("kst:2,3^2")) is None
        assert as_cycle_length(parse_pattern("kst:3,3")) is None


class TestExponent:
    def test_kst(self):
        assert theoretical_exponent(parse_pattern("kst:2,2^2")) == Fraction(5, 4)
        assert theoretical_exponent(parse_pattern("kst:3,5^2")) == \
            1 + Fraction(2, 6)

    def test_spider(self):
        assert theoretical_exponent(parse_pattern("spider:2,2*3")) == \
            Fraction(5, 4)

    def test_none_for_cycles(self):
        assert theoretical_exponent(parse_pattern("cycle:8")) is None

    def test_none_for_one_leg_spider(self):
        # a path, outside the formula's s >= 2
        assert theoretical_exponent(parse_pattern("spider:3")) is None
