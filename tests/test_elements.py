"""Interned generators: one object per generator, validated once."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleeis.elements import G1, G2, GP, FormalElement, GenId, Z1, Z2, ZP, parse_genid
from doubleeis.expressions import parse_expression

_FACTORIES = {"G1": G1, "G2": G2, "GP": GP, "Z1": Z1, "Z2": Z2, "ZP": ZP}


def test_a_generator_is_one_object():
    assert G2(1, 2, 0, 0) is GenId("G2", (1, 2, 0, 0)) is parse_genid("G(1,2;0,0)")
    assert GenId("G2", [1, 2, 0, 0]) is G2(1, 2, 0, 0)
    assert Z1(3) is not Z2(1, 2)


def test_copies_and_pickles_are_the_same_object():
    for g in (G1(4, 0), G2(1, 2, 0, 3), GP(2, 2, 1, 0), Z1(5), Z2(2, 3), ZP(1, 1)):
        assert copy.copy(g) is g
        assert copy.deepcopy(g) is g
        assert copy.deepcopy([g, {g: 1}])[1] == {g: 1}
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(g, protocol)) is g


def test_attributes_are_stored_and_immutable():
    g = G2(1, 2, 3, 4)
    assert (g.kind, g.args, g.space, g.weight) == ("G2", (1, 2, 3, 4), "E", 10)
    assert (Z2(2, 3).space, Z2(2, 3).weight) == ("Z", 5)
    assert hash(g) == hash(("G2", (1, 2, 3, 4)))
    assert repr(g) == "GenId(kind='G2', args=(1, 2, 3, 4))"
    for attr in ("kind", "args", "space", "weight", "other"):
        with pytest.raises(AttributeError):
            setattr(g, attr, 1)
        with pytest.raises(AttributeError):
            delattr(g, attr)
    assert G2(1, 2, 3, 4).args == (1, 2, 3, 4)


_generators = st.one_of(
    st.builds(G1, st.integers(1, 6), st.integers(0, 6)),
    st.builds(G2, st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)),
    st.builds(GP, st.integers(1, 4), st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)),
    st.builds(Z1, st.integers(1, 8)),
    st.builds(Z2, st.integers(1, 5), st.integers(1, 5)),
    st.builds(ZP, st.integers(1, 5), st.integers(1, 5)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_generators, max_size=30))
def test_generators_sort_by_kind_then_indices(gens):
    assert sorted(gens) == sorted(gens, key=lambda g: (g.kind, g.args))
    for a, b in zip(gens, gens[1:]):
        key_a, key_b = (a.kind, a.args), (b.kind, b.args)
        assert (a < b, a <= b, a > b, a >= b) == (key_a < key_b, key_a <= key_b,
                                                 key_a > key_b, key_a >= key_b)


def test_generators_do_not_order_against_other_types():
    with pytest.raises(TypeError):
        G1(2, 0) < (1, 2)


@pytest.mark.parametrize("kind, args, message", [
    ("G3", (1, 2), "unknown generator kind 'G3'"),
    ("G3", (1.5,), "unknown generator kind 'G3'"),
    ("G1", (1, 2, 3), "G1 takes 2 indices, got (1, 2, 3)"),
    ("GP", (1, 1, 0), "GP takes 4 indices, got (1, 1, 0)"),
    ("Z1", (), "Z1 takes 1 indices, got ()"),
    ("G1", (0, 0), "invalid indices (0, 0) for kind G1"),
    ("G1", (1, -1), "invalid indices (1, -1) for kind G1"),
    ("G2", (1, 0, 0, 0), "invalid indices (1, 0, 0, 0) for kind G2"),
    ("GP", (1, 1, -1, 0), "invalid indices (1, 1, -1, 0) for kind GP"),
    ("Z2", (0, 3), "invalid indices (0, 3) for kind Z2"),
    ("ZP", (2, 0), "invalid indices (2, 0) for kind ZP"),
])
def test_invalid_generators_keep_their_messages(kind, args, message):
    with pytest.raises(ValueError) as err:
        GenId(kind, args)
    assert str(err.value) == message


@pytest.mark.parametrize("kind, args", [
    ("G1", (2.5, 0)),
    ("G1", (4.0, 0)),
    ("G1", (4, 0.0)),
    ("G1", (True, 0)),
    ("G2", (1, 1, False, 0)),
    ("Z1", ("3",)),
    ("ZP", (1, 2.0)),
])
def test_non_integer_indices_are_rejected(kind, args):
    int_args = tuple(int(a) for a in args)
    made = GenId(kind, int_args)  # the equal int generator exists first
    with pytest.raises(ValueError, match="invalid indices"):
        GenId(kind, args)
    with pytest.raises(ValueError, match="invalid indices"):
        _FACTORIES[kind](*args)
    assert GenId(kind, int_args) is made
    assert all(type(a) is int for a in made.args)


def test_a_float_index_made_first_does_not_enter_the_table():
    with pytest.raises(ValueError):
        G1(7.0, 3)
    assert G1(7, 3).args == (7, 3)
    assert str(G1(7, 3)) == "G(7;3)"
    assert G1(7, 3).weight == 10


def test_threads_naming_new_generators_get_one_object():
    import sys
    import threading

    fresh = [(k1, k2, d1, d2) for k1 in range(101, 105) for k2 in range(1, 6)
             for d1 in range(4) for d2 in range(4)]
    results = [[] for _ in range(8)]
    start = threading.Barrier(len(results))

    def name_all(out):
        start.wait(timeout=10)
        out.extend(GP(*args) for args in fresh)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=name_all, args=(out,)) for out in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in results:
        assert len(out) == len(fresh)
        assert all(a is b for a, b in zip(out, results[0]))
    assert all(GP(*args) is g for args, g in zip(fresh, results[0]))


@pytest.mark.parametrize("text, gen", [
    ("G( 3 ; 0 )", G1(3, 0)),
    ("P(2,2;0,0)", GP(2, 2, 0, 0)),
    ("ZP(1,2)", ZP(1, 2)),
    ("G(1_2;0)", None),
    ("G(+3;0)", None),
    ("G(\u0663;0)", None),  # an Arabic-Indic digit three: digits are ASCII
    ("P(1;0)", None),
    ("Z(2;)", None),
    ("G(3;0)x", None),
    ("ZP(1)", None),
])
def test_parse_genid_reads_a_generator_as_parse_expression_does(text, gen):
    if gen is None:
        with pytest.raises(ValueError):
            parse_genid(text)
        with pytest.raises(ValueError):
            parse_expression(text)
    else:
        assert parse_genid(text) is gen
        assert parse_expression(text) == FormalElement.single(gen)
