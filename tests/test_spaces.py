import hashlib
import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doubleeis.elements import (
    EISENSTEIN,
    ZETA,
    FormalElement,
    G1,
    G2,
    GP,
    MixedSpaceError,
    MixedWeightError,
    Z1,
    Z2,
    ZP,
    parse_genid,
)
from doubleeis.maps import map_partial, map_pi, map_sigma
from doubleeis.spaces import (
    RelationSystem,
    _digest,
    _fraction_rows,
    _rref,
    _rref_blocks,
    eisenstein_relations,
    enumerate_generators,
    is_zero_in_space,
    normal_form,
    relation_system,
    relations_to_csv,
    relations_to_json,
    shuffle_row,
    stuffle_row,
    zeta_relations,
)

EISEN_DIMS = {1: 1, 2: 2, 3: 5, 4: 8, 5: 15, 6: 22, 7: 35, 8: 48}


def test_enumerate_returns_a_fresh_list():
    gens = enumerate_generators("E", 3)
    expected = list(gens)
    gens.clear()
    assert enumerate_generators("e", 3) == expected
    zeta = enumerate_generators("Z", 3)
    zeta[0] = G1(3, 0)
    zeta.append(Z1(4))
    assert enumerate_generators("Z", 3) == [Z1(3), Z2(1, 2), Z2(2, 1), ZP(1, 2), ZP(2, 1)]
    with pytest.raises(ValueError):
        enumerate_generators("E", 0)


def test_enumerate_weight_one():
    assert enumerate_generators("E", 1) == [G1(1, 0)]


def test_enumerate_weight_two():
    assert enumerate_generators("E", 2) == [G1(2, 0), G1(1, 1), G2(1, 1, 0, 0), GP(1, 1, 0, 0)]


def test_enumerate_zeta_three():
    assert enumerate_generators("Z", 3) == [Z1(3), Z2(1, 2), Z2(2, 1), ZP(1, 2), ZP(2, 1)]


def test_weight_two_rows():
    assert stuffle_row(1, 1, 0, 0) == FormalElement(
        [(GP(1, 1, 0, 0), 1), (G2(1, 1, 0, 0), -2), (G1(2, 0), -1)]
    )
    assert shuffle_row(1, 1, 0, 0) == FormalElement(
        [(GP(1, 1, 0, 0), 1), (G2(1, 1, 0, 0), -2), (G1(1, 1), -1)]
    )
    diff = stuffle_row(1, 1, 0, 0) - shuffle_row(1, 1, 0, 0)
    assert diff == FormalElement([(G1(1, 1), 1), (G1(2, 0), -1)])


def test_relation_rows_against_symbolic_series():
    """Oracle: rebuild both defining rows from the generating-series identity,
    evaluating the matrix action on series with element-valued coefficients."""
    from doubleeis.action import MATRICES, act, act_group_ring, GroupRingElem
    from doubleeis.identities import generating_series
    from doubleeis.multipoly import divided_difference

    for weight in (2, 3, 4, 5):
        gens = enumerate_generators("E", weight)
        sg2 = generating_series(g for g in gens if g.kind == "G2")
        sg1 = generating_series(g for g in gens if g.kind == "G1")
        eps = GroupRingElem.matrix(MATRICES["epsilon"])
        t = GroupRingElem.matrix(MATRICES["T"])
        stuffle_series = act_group_ring(1 + eps, sg2) + divided_difference(sg1, "star")
        shuffle_series = act_group_ring(t * (1 + eps), sg2) + divided_difference(sg1, "shuffle")
        for (k1, k2, d1, d2) in [g.args for g in enumerate_generators("E", weight) if g.kind == "G2"]:
            scale = factorial(d1) * factorial(d2)
            mono = (k1 - 1, k2 - 1, d1, d2)
            expect_st = FormalElement.single(GP(k1, k2, d1, d2)) - stuffle_series.coefficient(mono) * scale
            expect_sh = FormalElement.single(GP(k1, k2, d1, d2)) - shuffle_series.coefficient(mono) * scale
            assert stuffle_row(k1, k2, d1, d2) == expect_st
            assert shuffle_row(k1, k2, d1, d2) == expect_sh


def test_zeta_relations_weight_two():
    rows = zeta_relations(2)
    assert rows[0] == FormalElement([(ZP(1, 1), 1), (Z2(1, 1), -2), (Z1(2), -1)])
    sys_ = relation_system("Z", 2)
    assert sys_.dimension == 1
    assert sys_.is_zero(FormalElement.single(Z1(2)))


def test_dimensions_small():
    for weight, dim in EISEN_DIMS.items():
        assert relation_system("E", weight).dimension == dim
    assert relation_system("Z", 4).dimension == 2
    assert relation_system("Z", 11).dimension == 6


def test_zeta_dimension_formula():
    for k in range(1, 16):
        assert relation_system("Z", k).dimension == (k + 1) // 2


def test_rref_invariants():
    sys_ = relation_system("E", 5)
    pivots = [c for c, _ in sys_.rref_rows]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for c, row in sys_.rref_rows:
        assert row[c] == 1
        assert min(row) == c
        for other_c, _ in sys_.rref_rows:
            if other_c != c:
                assert other_c not in row
    assert sys_.rank + sys_.dimension == len(sys_.basis)


def _reference_rref(rows):
    """Textbook Gauss-Jordan elimination in Fraction arithmetic on dense rows."""
    cols = sorted({j for row in rows for j in row})
    m = [[Fraction(row.get(j, 0)) for j in cols] for row in rows]
    r = 0
    for k in range(len(cols)):
        p = next((i for i in range(r, len(m)) if m[i][k]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][k] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][k]:
                f = m[i][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    out = []
    for row in m[:r]:
        entries = {cols[k]: v for k, v in enumerate(row) if v}
        out.append((min(entries), entries))
    return out


_F = Fraction
_ROW = st.dictionaries(
    st.integers(0, 7), st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3)), max_size=4
)
# repeating up to half of the rows makes most systems rank deficient
_ROWS = st.lists(_ROW, max_size=8).flatmap(lambda rows: st.permutations(rows + rows[: len(rows) // 2]))


@settings(max_examples=200, deadline=None)
@given(_ROWS)
@example([{}, {0: _F(1)}, {}, {0: _F(1)}, {0: _F(1)}])  # zero and repeated rows
@example([{0: _F(-3, 2), 2: _F(1, 3)}, {0: _F(-2, 5), 1: _F(7)}, {1: _F(-1, 6), 2: _F(-4)}])  # pivots < 0
@example([{0: _F(2), 1: _F(-1)}, {1: _F(1, 2), 3: _F(3)}, {0: _F(2), 1: _F(-1, 2), 3: _F(3)}])  # rank 2
def test_rref_equals_the_fraction_reference(rows):
    assert _fraction_rows(_rref(rows)) == _reference_rref(rows)


def _grouped(rows):
    """Rows with a random partition of them into up to three groups."""
    labels = st.lists(st.integers(0, 2), min_size=len(rows), max_size=len(rows))
    return labels.map(lambda ls: [[r for r, l in zip(rows, ls) if l == g] for g in range(3)])


@settings(max_examples=200, deadline=None)
@given(_ROWS.flatmap(lambda rows: st.tuples(st.just(rows), _grouped(rows))))
@example(([{0: _F(1)}, {1: _F(2, 3)}], [[{0: _F(1)}], [{1: _F(2, 3)}], []]))
def test_reducing_blocks_then_their_union_gives_the_reduced_form(case):
    rows, groups = case
    assert _rref_blocks(groups) == _rref(rows)
    # negative control: a group that adds rank to the others cannot be left out
    for g in range(len(groups)):
        rest = groups[:g] + groups[g + 1:]
        if len(_reference_rref([r for other in rest for r in other])) < len(_reference_rref(rows)):
            assert _rref_blocks(rest) != _rref(rows)


def test_dimensions_to_weight_16():
    assert [relation_system("E", w).dimension for w in range(13, 17)] == [195, 238, 295, 352]


def _reduced_rows_digest(spaces_and_weights):
    h = hashlib.sha256()
    for space, weights in spaces_and_weights:
        for weight in weights:
            rows = [[c, [[j, str(v)] for j, v in sorted(row.items())]]
                    for c, row in relation_system(space, weight).rref_rows]
            h.update(json.dumps([space, weight, rows], separators=(",", ":")).encode())
    return h.hexdigest()


def test_reduced_rows_digest():
    # recorded with the Fraction elimination that took the rows as generated
    digest = _reduced_rows_digest((("E", range(1, 13)), ("Z", range(1, 21))))
    assert digest == "68358b1bc3bce28f96919d662a117bb38b7f8aec23e37dabacaaa3ea3eba5bd9"


def test_reduced_rows_digest_to_weight_16():
    # recorded with one reduction of all rows of a weight, before the k1 + k2 blocks
    digest = _reduced_rows_digest((("E", range(13, 17)),))
    assert digest == "3c092b0372fe2dc42e8697afb4a58121b66f135332e743972126ed9fe8ad2a0c"


def test_raw_relation_rows_digest():
    # recorded with the Eisenstein and zeta rows each written out on their own
    h = hashlib.sha256()
    for space, weights in (("E", range(1, 14)), ("Z", range(1, 21))):
        for weight in weights:
            h.update(relations_to_csv(space, weight).encode())
    assert h.hexdigest() == "75b37e75e54dfb18920ec6835be344463902d5c39a78b33eb33a2358300caf56"


def test_normal_form_examples():
    e = FormalElement([(G1(2, 0), 1), (G1(1, 1), -1)])
    assert is_zero_in_space(e)
    for row in eisenstein_relations(4):
        assert is_zero_in_space(row)
    g = FormalElement.single(G1(1, 0))
    assert normal_form(g) == g


def _reference_normal_form(sys_, element):
    """Subtract each reduced row in turn, in Fraction arithmetic."""
    v = {sys_.index[g]: c for g, c in element._terms.items()}
    for c, row in sys_.rref_rows:
        f = v.pop(c, None)
        if f is None:
            continue
        for j, w in row.items():
            if j != c:
                u = v.get(j, 0) - f * w
                if u:
                    v[j] = u
                else:
                    v.pop(j, None)
    return FormalElement([(sys_.basis[i], c) for i, c in v.items()])


_COEFFICIENT = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _elements(space, weight):
    gens = st.sampled_from(relation_system(space, weight).basis)
    return st.lists(st.tuples(gens, _COEFFICIENT), max_size=6).map(FormalElement)


_SPACE_WEIGHT = st.one_of(
    st.tuples(st.just("E"), st.integers(1, 12)), st.tuples(st.just("Z"), st.integers(1, 20))
)


@settings(max_examples=100, deadline=None)
@given(_SPACE_WEIGHT.flatmap(lambda sw: st.tuples(_elements(*sw), _elements(*sw), _COEFFICIENT)))
def test_normal_form_equals_the_row_by_row_reference(data):
    x, y, c = data
    nx, ny, nxy = normal_form(x), normal_form(y), normal_form(x + y * c)
    for element, nf in ((x, nx), (y, ny)):
        if element:
            expected = _reference_normal_form(relation_system(element.space, element.weight), element)
            assert nf == expected
            assert (nf.space, nf.weight) == (expected.space, expected.weight)
    assert nxy == nx + ny * c
    assert normal_form(nx) == nx


def test_normal_forms_of_all_generators_digest():
    # recorded with the normal form that subtracted every reduced row in turn
    h = hashlib.sha256()
    for space, weights in (("E", range(1, 13)), ("Z", range(1, 21))):
        for weight in weights:
            sys_ = relation_system(space, weight)
            for g in enumerate_generators(space, weight):
                h.update(f"{g} -> {sys_.normal_form(FormalElement.single(g)).to_text()}\n".encode())
    assert h.hexdigest() == "494fa1319f9bb12de763988effa826ab2eae7706f4f647cad19f1268b0adb18d"


def test_normal_form_idempotent():
    e = FormalElement([(GP(2, 1, 0, 0), 3), (G1(3, 0), Fraction(1, 2))])
    nf = normal_form(e)
    assert normal_form(nf) == nf


def test_product_symmetry():
    for weight in range(2, 7):
        for g in enumerate_generators("E", weight):
            if g.kind == "GP":
                k1, k2, d1, d2 = g.args
                e = FormalElement.single(g) - FormalElement.single(GP(k2, k1, d2, d1))
                assert is_zero_in_space(e)


# -- structural maps ---------------------------------------------------------

def test_pi_examples():
    assert map_pi(FormalElement.single(G1(3, 0))) == FormalElement.single(Z1(3))
    assert map_pi(FormalElement.single(G1(1, 2))) == FormalElement.single(Z1(3), 2)
    assert map_pi(FormalElement.single(G2(1, 1, 1, 0))) == FormalElement(
        [(Z2(1, 2), 1), (Z2(2, 1), 1)]
    )


def test_pi_against_series_expansion():
    """Oracle: expand the two zeta generating series directly."""
    for weight in range(2, 9):
        for g in enumerate_generators("E", weight):
            if g.kind != "G2":
                continue
            k1, k2, d1, d2 = g.args
            expected = []
            if d1 == 0 and d2 == 0:
                expected.append((Z2(k1, k2), Fraction(1)))
            if k1 == 1 and k2 == 1:
                # coefficient of Y1^d1 Y2^d2 in (Y1+Y2)^(a-1) Y1^(b-1), times d1! d2!
                for a in range(1, weight):
                    b = weight - a
                    if a - 1 >= d2 and b - 1 == d1 - (a - 1 - d2):
                        c = comb(a - 1, d2) * factorial(d1) * factorial(d2)
                        expected.append((Z2(a, b), Fraction(c)))
            assert map_pi(FormalElement.single(g)) == FormalElement(expected)


def test_pi_depth_one_against_series_expansion():
    # coefficient of X^(k-1) Y^d / d! in z(X) + z(Y)
    for weight in range(1, 9):
        for d in range(weight):
            k = weight - d
            expected = []
            if d == 0:
                expected.append((Z1(k), Fraction(1)))
            if k == 1:
                expected.append((Z1(d + 1), Fraction(factorial(d))))
            assert map_pi(FormalElement.single(G1(k, d))) == FormalElement(expected)


def test_sigma_examples():
    assert not map_sigma(FormalElement.single(Z1(2)))
    assert map_sigma(FormalElement.single(Z1(3))) == FormalElement.single(G1(3, 0))
    assert map_sigma(FormalElement.single(Z2(2, 1))) == FormalElement(
        [(G2(2, 1, 0, 0), 1), (G1(2, 1), 1)]
    )


def test_partial_examples():
    assert map_partial(FormalElement.single(G1(2, 0))) == FormalElement.single(G1(3, 1), 2)
    assert map_partial(FormalElement.single(G2(1, 1, 0, 0))) == FormalElement(
        [(G2(2, 1, 1, 0), 1), (G2(1, 2, 0, 1), 1)]
    )
    assert map_partial(FormalElement.single(G1(1, 0))) == FormalElement.single(G1(2, 1))


def test_pi_well_defined_on_relations():
    for weight in range(2, 9):
        for row in eisenstein_relations(weight):
            assert is_zero_in_space(map_pi(row))


def test_partial_well_defined_on_relations():
    for weight in range(2, 7):
        for row in eisenstein_relations(weight):
            assert is_zero_in_space(map_partial(row))


def test_sigma_well_defined_on_relations():
    for weight in range(2, 11):
        for row in zeta_relations(weight):
            assert is_zero_in_space(map_sigma(row))


def test_pi_sigma_splitting():
    for weight in range(3, 11):
        for g in enumerate_generators("Z", weight):
            e = FormalElement.single(g)
            assert is_zero_in_space(map_pi(map_sigma(e)) - e)


#: sha256 over "<gen> -> <image>" lines, image as ``to_text()``, for every
#: generator of the source space in the given weights; recorded before the
#: per-generator images were cached.
MAP_IMAGE_DIGESTS = {
    "pi": ("E", range(1, 13), "d16c34e69b1539dc7ae0d782da22c0bda71e8bf51f75d63ff52903c1607cbb31"),
    "partial": ("E", range(1, 13), "f909e1f0c94a8bfa5ad6c2353dca6b9b97b5a9e6edf52fe21130692946cbf0cd"),
    "sigma": ("Z", range(1, 21), "9d6a50513df85297c19f98ebfc263f52b7f3b5e8b48c77b94cb84a3ce7b55e43"),
}


@pytest.mark.parametrize("name", sorted(MAP_IMAGE_DIGESTS))
def test_map_images_of_generators_digest(name):
    fn = {"pi": map_pi, "partial": map_partial, "sigma": map_sigma}[name]
    space, weights, digest = MAP_IMAGE_DIGESTS[name]
    for _ in range(2):  # the second pass reads the cached images
        h = hashlib.sha256()
        for w in weights:
            for g in enumerate_generators(space, w):
                h.update(f"{g} -> {fn(FormalElement.single(g)).to_text()}\n".encode())
        assert h.hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_maps_are_the_linear_extension_of_the_generator_images(data):
    name = data.draw(st.sampled_from(["pi", "partial", "sigma"]))
    fn = {"pi": map_pi, "partial": map_partial, "sigma": map_sigma}[name]
    space, target, shift = {"pi": ("E", ZETA, 0), "partial": ("E", EISENSTEIN, 2), "sigma": ("Z", EISENSTEIN, 0)}[name]
    weight = data.draw(st.integers(1, 8))
    gens = data.draw(st.lists(st.sampled_from(enumerate_generators(space, weight)), min_size=1, max_size=6))
    coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    terms = [(g, data.draw(coefficients)) for g in gens]
    reference = FormalElement.zero(target)
    for g, c in terms:
        reference = reference + fn(FormalElement.single(g)) * c
    image = fn(FormalElement(terms))
    assert image == reference
    assert image.space == target
    assert image.weight == (weight + shift if image else None)


def test_maps_reject_wrong_space():
    with pytest.raises(ValueError):
        map_pi(FormalElement.single(Z1(3)))
    with pytest.raises(ValueError):
        map_sigma(FormalElement.single(G1(3, 0)))


# -- element plumbing ---------------------------------------------------------

def test_genid_text_roundtrip():
    gens = [g for w in range(1, 11) for g in enumerate_generators("E", w)]
    gens += [g for w in range(1, 13) for g in enumerate_generators("Z", w)]
    for g in gens:
        assert parse_genid(str(g)) == g


def test_mixed_space_and_weight_errors():
    with pytest.raises(MixedSpaceError):
        FormalElement([(G1(2, 0), 1), (Z1(2), 1)])
    with pytest.raises(MixedWeightError):
        FormalElement([(G1(2, 0), 1), (G1(3, 0), 1)])


def test_element_rendering():
    e = FormalElement([(G1(4, 0), Fraction(5, 2)), (GP(2, 2, 0, 0), -1), (G1(3, 1), -1)])
    assert e.to_text() == "5/2*G(4;0) - G(3;1) - P(2,2;0,0)"
    assert FormalElement.zero().to_text() == "0"


# -- persistence ---------------------------------------------------------------

def test_disk_cache_roundtrip(tmp_path):
    sys_ = relation_system("E", 3, cache_dir=tmp_path)
    f = tmp_path / "relations_E_3.json"
    assert f.exists()
    reloaded = RelationSystem.from_json_dict(json.loads(f.read_text()))
    assert reloaded.dimension == sys_.dimension
    assert reloaded.rref_rows == sys_.rref_rows
    assert [str(g) for g in reloaded.basis] == [str(g) for g in sys_.basis]


def test_cache_file_is_the_json_of_the_system(tmp_path):
    sys_ = relation_system("E", 5, cache_dir=tmp_path)
    assert (tmp_path / "relations_E_5.json").read_bytes() == json.dumps(sys_.to_json_dict()).encode()


def _drop_two_rows(data):
    data["rows"] = data["rows"][:-2]


def _drop_two_rows_and_edit_counts(data):
    data["rows"] = data["rows"][:-2]
    data["rank"] -= 2
    data["dimension"] += 2


def _format_version_one(data):
    data["format_version"] = 1
    del data["digest"]


def _redigest(edit):
    """A corruption that keeps the file's digest consistent, so that only the
    reduced-form checks can tell."""
    def corrupt(data):
        edit(data)
        data["digest"] = _digest(data["basis"], data["rows"])
    corrupt.__name__ = edit.__name__
    return corrupt


@_redigest
def _repeat_a_pivot(data):
    data["rows"][1][0] = data["rows"][0][0]


@_redigest
def _pivot_out_of_range(data):
    data["rows"][-1][0] = len(data["basis"])


@_redigest
def _pivot_a_float(data):
    data["rows"][0][0] = float(data["rows"][0][0])


@_redigest
def _format_version_two(data):
    """The same system in the layout that format 2 wrote, with Fraction strings."""
    data["format_version"] = 2
    data["rows"] = [{"pivot": c, "entries": [[c, "1"]] + [[j, str(Fraction(n, den))] for j, n in entries]}
                    for c, den, entries in data["rows"]]


@_redigest
def _pivot_in_its_own_entries(data):
    c, den, entries = data["rows"][0]
    entries.insert(0, [c, den])


@_redigest
def _entry_left_of_pivot(data):
    row = data["rows"][-1]
    pivots = {r[0] for r in data["rows"]}
    j = max(set(range(row[0])) - pivots)
    row[2].insert(0, [j, 3])


@_redigest
def _entry_in_another_pivot_column(data):
    row = data["rows"][0]
    row[2] = sorted(row[2] + [[data["rows"][1][0], 3]])


@_redigest
def _den_zero(data):
    data["rows"][-1][1] = 0


@_redigest
def _den_minus_one(data):
    """The last row (den 1) negated: the same rational row, not canonical."""
    row = data["rows"][-1]
    row[1] = -row[1]
    row[2] = [[j, -n] for j, n in row[2]]


@_redigest
def _den_a_float(data):
    data["rows"][-1][1] = 1.0


@_redigest
def _den_true(data):
    data["rows"][-1][1] = True


@_redigest
def _row_scaled_by_two(data):
    row = data["rows"][0]
    row[1] *= 2
    row[2] = [[j, 2 * n] for j, n in row[2]]


@_redigest
def _zero_entry(data):
    """A zero in a free column: the same rational row, not canonical."""
    c, _, entries = data["rows"][0]
    taken = {r[0] for r in data["rows"]} | {j for j, _ in entries}
    j = min(set(range(c + 1, len(data["basis"]))) - taken)
    entries[:] = sorted(entries + [[j, 0]])


@_redigest
def _repeated_column(data):
    entries = data["rows"][0][2]
    entries.append(list(entries[-1]))


@_redigest
def _column_a_float(data):
    entry = data["rows"][0][2][0]
    entry[0] = float(entry[0])


@_redigest
def _entry_a_string(data):
    entry = data["rows"][0][2][0]
    entry[1] = str(entry[1])


@_redigest
def _entry_true(data):
    data["rows"][-1][2][0][1] = True


@pytest.mark.parametrize("weight, corrupt, expected", [
    (5, None, 15),  # the weight-4 file copied to the weight-5 name
    (4, _drop_two_rows, 8),
    (4, _drop_two_rows_and_edit_counts, 8),  # only the digest tells
    (4, _format_version_one, 8),
    (4, _format_version_two, 8),
    (4, _repeat_a_pivot, 8),
    (4, _pivot_out_of_range, 8),
    (4, _pivot_a_float, 8),
    (4, _pivot_in_its_own_entries, 8),
    (4, _entry_left_of_pivot, 8),
    (4, _entry_in_another_pivot_column, 8),
    (4, _den_zero, 8),
    (4, _den_minus_one, 8),
    (4, _den_a_float, 8),
    (4, _den_true, 8),
    (4, _row_scaled_by_two, 8),
    (4, _zero_entry, 8),
    (4, _repeated_column, 8),
    (4, _column_a_float, 8),
    (4, _entry_a_string, 8),
    (4, _entry_true, 8),
])
def test_disk_cache_rejects_files_that_do_not_match(tmp_path, monkeypatch, weight, corrupt, expected):
    from doubleeis import spaces

    relation_system("E", 4, cache_dir=tmp_path)
    data = json.loads((tmp_path / "relations_E_4.json").read_text())
    if corrupt:
        corrupt(data)
    bad = tmp_path / f"relations_E_{weight}.json"
    bad.write_text(json.dumps(data))
    monkeypatch.setattr(spaces, "_MEMO", {})  # force a read from disk
    loaded = relation_system("E", weight, cache_dir=tmp_path)
    assert loaded.dimension == expected
    fresh = RelationSystem.build("E", weight)
    assert json.loads(bad.read_text()) == fresh.to_json_dict()
    for g in enumerate_generators("E", weight):
        assert loaded.normal_form(FormalElement.single(g)) == fresh.normal_form(FormalElement.single(g))


def test_disk_cache_rebuilds_a_file_nested_too_deeply_to_decode(tmp_path, monkeypatch):
    from doubleeis import spaces

    bad = tmp_path / "relations_E_4.json"
    bad.write_text("[" * 100000 + "]" * 100000)  # json.loads raises RecursionError
    monkeypatch.setattr(spaces, "_MEMO", {})
    assert relation_system("E", 4, cache_dir=tmp_path).dimension == 8
    assert json.loads(bad.read_text()) == RelationSystem.build("E", 4).to_json_dict()


def test_loaded_systems_keep_the_built_integer_rows():
    for space, weights in (("E", range(1, 13)), ("Z", range(1, 21))):
        for weight in weights:
            built = RelationSystem.build(space, weight)
            data = built.to_json_dict()
            loaded = RelationSystem.from_json_dict(json.loads(json.dumps(data)))
            assert loaded._rows == built._rows
            assert loaded.to_json_dict() == data


def test_disk_cache_reads_a_matching_file(tmp_path, monkeypatch):
    from doubleeis import spaces

    built = relation_system("E", 4, cache_dir=tmp_path)
    monkeypatch.setattr(spaces, "_MEMO", {})
    monkeypatch.setattr(RelationSystem, "build", None)  # a rebuild would raise
    loaded = relation_system("E", 4, cache_dir=tmp_path)
    assert loaded is not built and loaded.rref_rows == built.rref_rows


@pytest.mark.parametrize("space, weight", [("E", 9), ("Z", 14)])
def test_loaded_and_built_systems_agree(tmp_path, monkeypatch, space, weight):
    from doubleeis import spaces

    monkeypatch.setattr(spaces, "_MEMO", {})
    built = relation_system(space, weight, cache_dir=tmp_path)
    monkeypatch.setattr(spaces, "_MEMO", {})
    monkeypatch.setattr(RelationSystem, "build", None)  # a rebuild would raise
    loaded = relation_system(space, weight, cache_dir=tmp_path)
    assert loaded is not built
    for g in enumerate_generators(space, weight):
        e = FormalElement.single(g, Fraction(-3, 5))
        assert loaded.normal_form(e) == built.normal_form(e)
    assert loaded.rref_rows == built.rref_rows


def test_cache_directory_is_resolved_on_every_call(tmp_path, monkeypatch):
    from doubleeis.spaces import default_cache_dir

    relation_system("E", 3)  # memoized before any of the directories below exist
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("DOUBLEEIS_CACHE_DIR", "~/env-cache")
    assert default_cache_dir() == tmp_path / "env-cache"
    relation_system("E", 3)
    assert (tmp_path / "env-cache" / "relations_E_3.json").exists()
    relation_system("E", 3, cache_dir=tmp_path / "given")
    relation_system("E", 3, cache_dir=str(tmp_path / "given-str"))
    assert (tmp_path / "given" / "relations_E_3.json").exists()
    assert (tmp_path / "given-str" / "relations_E_3.json").exists()
    monkeypatch.delenv("DOUBLEEIS_CACHE_DIR")
    assert default_cache_dir() == tmp_path / ".cache" / "doubleeis"
    relation_system("E", 3)
    assert (tmp_path / ".cache" / "doubleeis" / "relations_E_3.json").exists()


def test_cache_status_and_clear(tmp_path):
    from doubleeis.spaces import cache_clear, cache_status

    relation_system("Z", 6, cache_dir=tmp_path)
    status = cache_status(tmp_path)
    assert status["files"] == ["relations_Z_6.json"]
    assert cache_clear(tmp_path) == 1
    assert cache_status(tmp_path)["files"] == []


def test_csv_and_json_exports():
    text = relations_to_csv("E", 2)
    lines = text.strip().split("\n")
    assert lines[0] == "G(2;0),G(1;1),\"G(1,1;0,0)\",\"P(1,1;0,0)\""
    assert len(lines) == 3  # header + two rows
    data = relations_to_json("E", 2, reduced=True)
    assert data["basis"][0] == "G(2;0)"
    assert len(data["rows"]) == 2
