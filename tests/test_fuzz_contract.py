"""The fuzz contract of every reader of outside input.

A JSON reader of `skeinlab.formats` and a text parser may only return or
raise `ValueError`, `KeyError` or `TypeError`, which the CLI turns into exit
code 2 with one `error:` line.  Any text that the two expression grammars
read prints text that reads back to the same value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from skeinlab import formats
from skeinlab.diagram import parse_pd
from skeinlab.poly import parse_laurent, render_laurent
from skeinlab.torus_skein import parse_skein, render_skein

BAD_INPUT = (ValueError, KeyError, TypeError)

READERS = [formats.diagram_from_json, formats.rep_from_json, formats.graph_from_json,
           formats.connection_from_json, formats.qlink_from_json, formats.qconnection_from_json]

# Field names the readers look up, so that documents reach past the first lookup.
FIELDS = ["word", "strands", "crossings", "over", "free_loops", "vertices", "edges",
          "ciliation", "faces", "loops", "at", "sign", "coeff", "1", "2", "-3", "a", "b"]

json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-4, 8),
    st.builds(int.__mul__, st.integers(2 ** 1100, 2 ** 1200), st.sampled_from([1, -1])),
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300, 0.5]),
    st.text(max_size=4))
json_docs = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(FIELDS), st.text(max_size=2)), inner,
                        max_size=4)),
    max_leaves=12)


@pytest.mark.parametrize("reader", READERS, ids=[r.__name__ for r in READERS])
@settings(deadline=None, max_examples=60)
@given(doc=json_docs)
def test_json_readers_refuse_only_as_bad_input(reader, doc):
    try:
        reader(doc)
    except BAD_INPUT:
        pass


# Mostly grammar characters, so that texts get past the tokenizer.
texts = st.one_of(st.text(max_size=24),
                  st.text("0123456789/+-*^() AxyzXO[],", max_size=24))


@pytest.mark.parametrize("parse", [parse_laurent, parse_skein, parse_pd],
                         ids=["parse_laurent", "parse_skein", "parse_pd"])
@settings(deadline=None, max_examples=200)
@given(text=texts)
def test_text_parsers_refuse_only_as_bad_input(parse, text):
    try:
        parse(text)
    except BAD_INPUT:
        pass


# Expression text over unit powers (exponents up to +-3000), small numbers
# and small powers of sums (exponents up to 4, at most three terms a sum).
def _expressions(names):
    unit = st.one_of(
        st.builds("A^{}".format, st.integers(-3000, 3000)),
        st.builds("(-A)^{}".format, st.integers(-3000, 3000)),
        *(st.builds(f"{name}^{{}}".format, st.integers(0, 3000)) for name in names))
    number = st.one_of(st.integers(1, 9).map(str), st.builds("{}/{}".format, st.integers(1, 9),
                                                             st.integers(1, 9)))

    def compound(inner):
        product = st.lists(inner, min_size=1, max_size=3).map("*".join)
        sum_ = st.lists(product, min_size=1, max_size=3).map(" - ".join)
        power = st.builds("({})^{}".format, sum_, st.integers(0, 4))
        return st.one_of(product, sum_, power)

    return st.recursive(st.one_of(unit, number, *map(st.just, names)), compound, max_leaves=8)


@pytest.mark.parametrize("parse, render, names", [
    (parse_laurent, render_laurent, ["A"]),
    (parse_skein, render_skein, ["x", "y", "z"]),
], ids=["laurent", "skein"])
@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_every_parsed_value_reads_back(parse, render, names, data):
    text = data.draw(_expressions(names))
    try:
        value = parse(text)
    except ValueError:
        return                  # over a budget: refused, not read
    assert parse(render(value)) == value, text
