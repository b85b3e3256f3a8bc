from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from qgcl import classical as cs
from qgcl.errors import ArityError, DomainClashError


def test_empty_is_concat_unit():
    d = cs.bind("x", 3)
    assert cs.concat(cs.EPS, d) == d
    assert cs.concat(d, cs.EPS) == d
    assert cs.concat(cs.EPS, cs.EPS) == cs.EPS


def test_concat_merges_domains():
    s = cs.concat(cs.bind("x", 1), cs.bind("y", 2))
    assert cs.dom(s) == frozenset({"x", "y"})
    assert cs.render(s) == "[x<-1]*[y<-2]"


def test_concat_rejects_domain_clash():
    with pytest.raises(DomainClashError):
        cs.concat(cs.bind("x", 1), cs.bind("x", 2))


def test_concat_is_order_insensitive():
    a, b = cs.bind("b", 0), cs.bind("a", 1)
    assert cs.concat(a, b) == cs.concat(b, a)
    assert hash(cs.concat(a, b)) == hash(cs.concat(b, a))


def test_oplus_keeps_branch_order_and_arity():
    two = cs.oplus([cs.EPS, cs.EPS])
    assert two != cs.EPS
    assert len(two.parts) == 2
    one = cs.oplus([cs.bind("x", 1)])
    assert isinstance(one, cs.Oplus) and len(one.parts) == 1
    with pytest.raises(ArityError):
        cs.oplus([])


def test_oplus_domain_is_union():
    s = cs.oplus([cs.bind("x", 1), cs.bind("y", 2)])
    assert cs.dom(s) == frozenset({"x", "y"})


def test_oplus_order_significant():
    a, b = cs.bind("x", 0), cs.bind("x", 1)
    assert cs.oplus([a, b]) != cs.oplus([b, a])


def test_duplicate_empty_domain_children_are_kept():
    twin = cs.oplus([cs.EPS, cs.EPS])
    both = cs.concat(twin, twin)
    assert isinstance(both, cs.Concat)
    assert len(both.parts) == 2


def test_state_set_product():
    assert cs.state_set_product([cs.EPS], [cs.EPS]) == [cs.EPS]
    got = cs.state_set_product([cs.bind("x", 0), cs.bind("x", 1)], [cs.bind("y", 0)])
    assert got == [
        cs.concat(cs.bind("x", 0), cs.bind("y", 0)),
        cs.concat(cs.bind("x", 1), cs.bind("y", 0)),
    ]


def test_four_state_product_of_two_measure_like_sets():
    first = [cs.bind("x", 0), cs.bind("x", 1)]
    second = [cs.bind("y", 0), cs.bind("y", 1)]
    got = cs.state_set_product(first, second)
    assert len(got) == len(set(got)) == 4


def test_render_forms():
    assert cs.render(cs.EPS) == "eps"
    assert cs.render(cs.bind("x", 3)) == "[x<-3]"
    nested = cs.oplus([cs.bind("x", 0), cs.concat(cs.bind("y", 1), cs.bind("z", 2))])
    assert cs.render(nested) == "(+ [x<-0] [y<-1]*[z<-2])"


# -- property tests --------------------------------------------------------

names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def states(draw, depth=2, forbidden=frozenset()):
    """Random normalized classical state avoiding the forbidden domain."""
    choice = draw(st.integers(0, 3 if depth > 0 else 1))
    if choice == 0:
        return cs.EPS
    if choice == 1:
        name = draw(names.filter(lambda n: n not in forbidden))
        return cs.bind(name, draw(st.integers(0, 3)))
    if choice == 2:
        parts = draw(st.lists(states(depth=depth - 1, forbidden=forbidden), min_size=1, max_size=3))
        return cs.oplus(parts)
    left = draw(states(depth=depth - 1, forbidden=forbidden))
    right = draw(states(depth=depth - 1, forbidden=forbidden | cs.dom(left)))
    return cs.concat(left, right)


@given(states())
@settings(max_examples=200, deadline=None)
def test_normalization_idempotent(s):
    if isinstance(s, cs.Concat):
        again = reduce(cs.concat, s.parts)
    else:
        again = cs.concat(s, cs.EPS)
    assert again == s
    assert hash(again) == hash(s)


@given(states(), states())
@settings(max_examples=200, deadline=None)
def test_concat_domain_additivity(a, b):
    if cs.dom(a) & cs.dom(b):
        with pytest.raises(DomainClashError):
            cs.concat(a, b)
        return
    joined = cs.concat(a, b)
    assert cs.dom(joined) == cs.dom(a) | cs.dom(b)
    assert joined == cs.concat(b, a)
