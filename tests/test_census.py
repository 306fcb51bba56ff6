import hashlib
import itertools
import json
import random
from collections import Counter
from functools import lru_cache

import gf2_screen
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz import census as census_mod
from leibniz import lattice
from leibniz.census import algebra_from_int, census, class_key, valid_tensor_ints
from leibniz.core import algebra_in_basis


def _exact_valid(dim, start, stop):
    """The values in [start, stop) whose tensor satisfies the left Leibniz identity over GF(2).

    Bit (i dim + j) dim + k of a value is the coefficient of e_k in
    [e_i, e_j], so [e_i, e_j] is the dim-bit mask at (i dim + j) dim, and a
    bracket of masks is the xor of the basis brackets of their bits.  The
    identity [[e_i,e_j],e_k] = [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]] (signs
    vanish mod 2) is checked on every basis triple, independently of the
    library.
    """
    triples = list(itertools.product(range(dim), repeat=3))

    def bracket(x, y, table):
        out = 0
        for i in range(dim):
            if x >> i & 1:
                for j in range(dim):
                    if y >> j & 1:
                        out ^= table[i][j]
        return out

    valid = []
    for v in range(start, stop):
        table = [[v >> (i * dim + j) * dim & ((1 << dim) - 1) for j in range(dim)] for i in range(dim)]
        if all(
            bracket(table[i][j], 1 << k, table)
            == bracket(1 << i, table[j][k], table) ^ bracket(1 << j, table[i][k], table)
            for i, j, k in triples
        ):
            valid.append(v)
    return valid


def test_census_record_counts_dims_1_and_2():
    assert census(1).valid == 1
    assert census(2).valid == 13


def test_census_records_are_sorted_and_distinct():
    values = [r["tensor"] for r in census(2).records]
    assert values == sorted(set(values))


# the library's window over the constructed set and the oracle screen, both against the exact check
def test_screen_matches_exact_check_dim2():
    assert valid_tensor_ints(2, 0, 256) == gf2_screen.valid_tensor_ints(2, 0, 256) == _exact_valid(2, 0, 256)


@pytest.mark.parametrize("start", [0, 1 << 26])
def test_screen_matches_exact_check_dim3_window(start):
    stop = start + 4096
    expected = _exact_valid(3, start, stop)
    assert valid_tensor_ints(3, start, stop) == expected
    assert gf2_screen.valid_tensor_ints(3, start, stop) == expected


# windows that start or stop off a 64-tensor word boundary, one inside a single word, an empty one
@pytest.mark.parametrize(
    "dim, start, stop", [(3, 7, 1000), (2, 3, 200), (3, 65, 70), (3, 64, 64), (1, 0, 2)]
)
def test_screen_matches_exact_check_off_word_boundaries(dim, start, stop):
    expected = _exact_valid(dim, start, stop)
    assert valid_tensor_ints(dim, start, stop) == expected
    assert gf2_screen.valid_tensor_ints(dim, start, stop) == expected


# past the last tensor, where a word would alias a real one; a negative
# start; a dimension outside 1..3; an inverted window; a bool or a float
@pytest.mark.parametrize(
    "dim, start, stop",
    [(3, 0, (1 << 27) + 1), (3, 0, 1 << 28), (3, -64, 10), (0, 0, 1), (4, 0, 1), (2, 10, 5), (True, 0, 2), (3, 0.0, 64)],
)
def test_screen_rejects_windows_outside_the_tensors(dim, start, stop):
    for screen in (valid_tensor_ints, gf2_screen.valid_tensor_ints):
        with pytest.raises(ValueError):
            screen(dim, start, stop)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_screen_triple_order_is_a_permutation_of_the_basis_triples(dim):
    triples = list(itertools.product(range(dim), repeat=3))
    assert sorted(gf2_screen._triple_order(dim)) == triples
    stages = gf2_screen._stages(dim)
    assert sorted(t for t, _ in stages) == triples
    # every word bit is assigned once, by the first triple that reads it
    assert sorted(b for _, new in stages for b in new) == list(range(max(dim**3 - 6, 0)))


def test_screen_triple_order_dim3():
    order = gf2_screen._triple_order(3)
    assert order[:5] == ((2, 2, 2), (2, 1, 2), (1, 2, 2), (1, 1, 2), (2, 2, 1))
    assert order[-1] == (0, 0, 0)
    stages = gf2_screen._stages(3)
    assert stages[:9] == (
        ((0, 0, 2), (0, 1, 2, 9, 10, 11, 18, 19, 20)),
        ((2, 2, 2), (12, 13, 14, 15, 16, 17)),
        ((2, 0, 2), ()),
        ((0, 2, 2), ()),
        ((2, 2, 1), (6, 7, 8)),
        ((2, 0, 1), ()),
        ((0, 2, 1), ()),
        ((0, 0, 1), ()),
        ((2, 1, 2), (3, 4, 5)),
    )
    # the other 18 triples read only assigned bits, and run in `_triple_order`
    rest = [t for t, _ in stages[9:]]
    assert all(not new for _, new in stages[9:])
    assert rest == [t for t in order if t in rest]


def _live_words(monkeypatch, dim, start, stop):
    """The result of the oracle screen, and the live words each triple evaluated."""
    evaluated = []
    flatnonzero = np.flatnonzero

    def counting_flatnonzero(a):
        evaluated.append(a.shape[0])
        return flatnonzero(a)

    monkeypatch.setattr(gf2_screen.np, "flatnonzero", counting_flatnonzero)
    valid = gf2_screen.valid_tensor_ints(dim, start, stop)
    monkeypatch.undo()
    return valid, evaluated


def test_screen_live_words_over_the_whole_range(monkeypatch):
    valid, evaluated = _live_words(monkeypatch, 3, 0, 1 << 27)
    assert len(valid) == 806
    assert gf2_screen._MAX_LIVE == 1 << 14
    # one entry per slice: (2,2,2) evaluates its words in two slices, (2,1,2) in three
    assert evaluated == [
        512, 16384, 16384, 7168, 3616, 12928, 9024, 6796, 5680, 16384, 16384, 11536, 14300, 9680,
        5968, 5352, 2720, 1460, 1228, 1120, 852, 804, 792, 716, 692, 673, 658, 658, 657, 657,
    ]
    assert max(evaluated) <= gf2_screen._MAX_LIVE
    assert sum(evaluated) == 171783
    # the slices of each triple add up to the words the triple evaluated
    slices = [1, 2, 1, 1, 1, 1, 1, 1, 3] + [1] * 18
    ends = list(itertools.accumulate(slices))
    assert [sum(evaluated[end - n:end]) for n, end in zip(slices, ends)] == [
        512, 32768, 7168, 3616, 12928, 9024, 6796, 5680, 44304, 14300, 9680, 5968, 5352, 2720,
        1460, 1228, 1120, 852, 804, 792, 716, 692, 673, 658, 658, 657, 657,
    ]


# slices of at most 1 to 4 words, so that most triples run in several slices
@pytest.mark.parametrize("dim, start, stop, cap", [(2, 0, 256, 1), (2, 3, 200, 1), (3, 7, 1000, 2), (3, 1000, 3000, 4)])
def test_screen_in_small_slices_matches_exact_check(monkeypatch, dim, start, stop, cap):
    monkeypatch.setattr(gf2_screen, "_MAX_LIVE", cap)
    valid, evaluated = _live_words(monkeypatch, dim, start, stop)
    assert len(evaluated) > len(gf2_screen._stages(dim))
    assert valid == _exact_valid(dim, start, stop)


def test_screen_of_the_whole_range_in_small_slices(monkeypatch, screen3):
    monkeypatch.setattr(gf2_screen, "_MAX_LIVE", 1 << 10)
    valid, evaluated = _live_words(monkeypatch, 3, 0, 1 << 27)
    assert max(evaluated) == 1 << 10
    assert sum(evaluated) == 171783
    assert valid == screen3


def test_screen_stops_once_every_word_has_died(monkeypatch):
    for start, evaluated in (
        # live words each triple evaluated; the last word dies at the 13th of 27 triples, or the 2nd
        (1 << 23, [64, 8, 8, 4, 2, 2, 2, 1, 8, 8, 8, 8, 8]),
        (1 << 26, [8, 8]),
    ):
        stop = start + 4096
        assert _live_words(monkeypatch, 3, start, stop) == ([], evaluated)
        assert _exact_valid(3, start, stop) == []


@pytest.fixture(scope="module")
def screen3():
    return gf2_screen.valid_tensor_ints(3, 0, 1 << 27)


def test_constructed_tensors_are_the_screened_ones(screen3):
    assert valid_tensor_ints(3, 0, 1 << 27) == screen3


@pytest.mark.parametrize("dim, window", [(2, 16), (2, 1 << 20), (3, 1 << 20)])
def test_screen_of_the_whole_range_is_the_concatenation_of_its_windows(screen3, dim, window):
    total = 1 << dim**3
    whole = screen3 if dim == 3 else gf2_screen.valid_tensor_ints(dim, 0, total)
    windows = (gf2_screen.valid_tensor_ints(dim, lo, min(lo + window, total)) for lo in range(0, total, window))
    assert [v for part in windows for v in part] == whole


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_screen_is_the_concatenation_of_its_screens_at_random_split_points(screen3, data):
    dim = data.draw(st.sampled_from([2, 3]))
    total = 1 << dim**3
    whole = screen3 if dim == 3 else gf2_screen.valid_tensor_ints(dim, 0, total)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=6)))
    bounds = [0, *cuts, total]
    assert [v for lo, hi in zip(bounds, bounds[1:]) for v in gf2_screen.valid_tensor_ints(dim, lo, hi)] == whole


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screen_matches_exact_check_on_random_windows(data):
    dim = data.draw(st.integers(1, 3))
    total = 1 << dim**3
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, min(total, start + 300)))
    expected = _exact_valid(dim, start, stop)
    assert valid_tensor_ints(dim, start, stop) == expected
    assert gf2_screen.valid_tensor_ints(dim, start, stop) == expected


def test_dim3_screen_finds_the_806_tensors(census3):
    # the fixture's census decided all 2^27 tensors; its records are the valid ones
    values = [r["tensor"] for r in census3.records]
    assert len(values) == 806
    assert values[:3] == [0, 2, 4]
    assert values[-3:] == [133954560, 133956095, 134217216]
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert digest == "1e6ef7a60f644246aa8da347115d2aef1e4eb4fdb4e15d944c436972fe8044c1"
    # census() runs the exact check only on each class's least member, so check every valid tensor here
    assert all(not algebra_from_int(3, v).check_left_leibniz() for v in values)


def test_census_builds_one_record_per_class(monkeypatch):
    built = []
    record = census_mod.census_record

    def counting_record(dim, value):
        built.append(value)
        return record(dim, value)

    monkeypatch.setattr(census_mod, "census_record", counting_record)
    result = census(2, jobs=1)
    assert built == [0, 2, 8, 20]
    assert result.valid == 13


def test_census_record_reads_nilpotency_from_its_profile(monkeypatch):
    # the report takes the profile's nilpotency flag; the lattice computes no
    # second lower central series
    expected = [census_mod.census_record(2, v) for v in (0, 2, 8, 20)]

    def refuse(algebra):
        raise AssertionError("the record computed the lower central series twice")

    monkeypatch.setattr(lattice, "nilpotency_class", refuse)
    assert [census_mod.census_record(2, v) for v in (0, 2, 8, 20)] == expected


def test_census_classes_are_stored(monkeypatch):
    result = census(2)

    def no_keys(dim, value):
        raise AssertionError("class_key called after the census")

    monkeypatch.setattr(census_mod, "class_key", no_keys)
    expected = {0: (0,), 2: (2, 64, 255), 8: (8, 10, 16, 51, 80, 204), 20: (20, 40, 60)}
    assert result.classes == expected
    assert result.classes == expected


def test_class_members_share_no_record_objects():
    by_tensor = {r["tensor"]: r for r in census(2).records}
    first, second = by_tensor[2], by_tensor[64]  # both in class 2
    assert (first["fingerprint"], second["fingerprint"]) == ("d2-02", "d2-40")
    assert first["profile"] == second["profile"]
    assert first["profile"] is not second["profile"]
    for name, value in first["profile"].items():
        if isinstance(value, list):
            assert value == second["profile"][name] and value is not second["profile"][name]
    first["profile"]["lower_central_series_dims"].append(-1)
    assert second["profile"]["lower_central_series_dims"] == [2, 1, 0]


# [e1, e1] = e1 fails the identity; 264 = 256 + 8 is out of range at dimension 2
@pytest.mark.parametrize("dim, value", [(2, 1), (2, 264), (2, -1), (4, 0)])
def test_census_record_rejects_a_tensor_the_screen_would_not_pass(dim, value):
    with pytest.raises(ValueError):
        census_mod.census_record(dim, value)


def test_census_argument_validation():
    for dim in (4, True, 2.0):
        with pytest.raises(ValueError):
            census(dim)
    # jobs has no effect, but must be an int >= 1
    for jobs in (0, -1, 1.5, 2.0, True, "2"):
        with pytest.raises(ValueError):
            census(1, jobs=jobs)
    assert census(1, jobs=2) == census(1)


@pytest.fixture(scope="module")
def census3():
    return census(3)


DIM3_CLASS_SIZES = {
    0: 1, 2: 21, 16: 84, 20: 84, 32: 42, 34: 42, 160: 84, 176: 56, 272: 28, 520: 42,
    524: 84, 1044: 42, 1296: 84, 2080: 7, 2084: 21, 16420: 14, 526496: 21, 527536: 14,
    1049872: 7, 2656416: 28,
}


def test_dim3_classes(census3):
    classes = census3.classes
    assert {key: len(members) for key, members in classes.items()} == DIM3_CLASS_SIZES
    assert list(classes) == sorted(DIM3_CLASS_SIZES)
    assert all(members[0] == key and list(members) == sorted(members) for key, members in classes.items())
    assert sorted(v for members in classes.values() for v in members) == [r["tensor"] for r in census3.records]


def test_dim3_classes_group_every_survivor_by_its_class_key(census3):
    # census() looks keys up in one orbit per class; class_key computes each value's orbit afresh
    grouped = {}
    for r in census3.records:
        grouped.setdefault(class_key(3, r["tensor"]), []).append(r["tensor"])
    assert census3.classes == {key: tuple(grouped[key]) for key in sorted(grouped)}


def test_small_dim_classes():
    assert list(census(2).classes) == [0, 2, 8, 20]
    assert list(census(1).classes) == [0]


def _lanes(dim, values):
    """The values bit-sliced by a plain transpose: bit t of lane b is bit b of values[t]."""
    return [sum(1 << t for t, v in enumerate(values) if v >> b & 1) for b in range(dim**3)]


def _lane_valid(dim, values, lanes):
    """The values that the lane evaluator passes, in their order."""
    bad = census_mod._violations(dim, lanes)
    return [v for t, v in enumerate(values) if not bad >> t & 1]


def test_construction_candidates_dim3():
    # (k, m) = (3, 0), (2, 1), (1, 2), (0, 3): an alternating table on the complement, omega and rho
    candidates = [census_mod._candidates(3, m) for m in range(4)]
    assert [len(tensors) for tensors, _ in candidates] == [512, 256, 64, 1]
    assert sum(len(tensors) for tensors, _ in candidates) == 833
    assert all(lanes == _lanes(3, tensors) for tensors, lanes in candidates)
    assert len({v for tensors, lanes in candidates for v in _lane_valid(3, tensors, lanes)}) == 232


def test_construction_dims_1_and_2():
    for dim in (1, 2):
        values = list(range(1 << dim**3))
        assert _lane_valid(dim, values, _lanes(dim, values)) == _exact_valid(dim, 0, len(values))
    for dim, tensors, classes in ((1, 1, 1), (2, 13, 4)):
        key_of = census_mod._class_keys(dim)
        assert (len(key_of), len(set(key_of.values()))) == (tensors, classes)


def test_lane_evaluator_matches_exact_check_off_the_candidates(screen3):
    # lanes of arbitrary tensors, not candidates: uniform ones, one-bit neighbours of valid ones, and the valid ones
    rng = random.Random(37)
    sample = [rng.randrange(1 << 27) for _ in range(2048)]
    sample += [v ^ 1 << rng.randrange(27) for v in rng.choices(screen3, k=2048)]
    sample += screen3
    rng.shuffle(sample)
    expected = [v for v in sample if _exact_valid(3, v, v + 1)]
    assert len(screen3) <= len(expected) < len(sample)
    assert _lane_valid(3, sample, _lanes(3, sample)) == expected
    assert census_mod._violations(3, _lanes(3, [])) == 0
    for v in (0, 1, screen3[-1], 1 << 26):
        assert _lane_valid(3, [v], _lanes(3, [v])) == _exact_valid(3, v, v + 1)


def test_every_class_holds_a_valid_candidate_with_its_leibniz_kernel_dim(census3):
    # completeness on data: every algebra is a candidate in a basis adapted to Leib(L), with m = dim Leib(L)
    by_tensor = {r["tensor"]: r for r in census3.records}
    for key, members in census3.classes.items():
        m = by_tensor[key]["profile"]["leibniz_kernel_dim"]
        tensors, lanes = census_mod._candidates(3, m)
        assert set(members) & set(_lane_valid(3, tensors, lanes))


def test_profile_and_label_are_class_invariants(census3):
    by_tensor = {r["tensor"]: r for r in census3.records}
    for members in census3.classes.values():
        seen = {json.dumps([by_tensor[v]["profile"], by_tensor[v]["matched_family"]], sort_keys=True) for v in members}
        assert len(seen) == 1


def test_matched_family_counts(census3):
    assert Counter(r["matched_family"] for r in census3.records) == {
        "A-i": 21, "A-ii": 21, "A-iii": 42, "unmatched": 14, None: 708,
    }
    assert Counter(r["matched_family"] for r in census(2).records) == {"abelian": 1, "L1": 3, None: 9}
    # [e1,e1] = [e1,e2] = [e2,e2] = e3 is isomorphic to no constructed A-i/ii/iii instance
    unmatched = {r["tensor"] for r in census3.records if r["matched_family"] == "unmatched"}
    assert unmatched == set(census3.classes[16420])


def test_reference_match_tuples():
    # A-iii references use the derived convention only: at t = n printed tau = 0 is the same table
    assert census_mod.reference_match_tuples(3) == (
        ("A-i", 2), ("A-ii", 2084), ("A-iii", 32), ("A-iii", 2084),
    )
    assert census_mod.reference_match_tuples(2) == (("abelian", 0), ("L1", 2))


def _invertible_gf2_matrices(dim):
    for flat in itertools.product((0, 1), repeat=dim * dim):
        rows = [flat[r * dim:(r + 1) * dim] for r in range(dim)]
        if round(np.linalg.det(np.array(rows, dtype=float))) % 2:
            yield rows


def _orbit_minimum(dim, value):
    algebra = algebra_from_int(dim, value)
    return min(
        sum(
            int(c) << (i * dim * dim + j * dim + k)
            for i, plane in enumerate(algebra_in_basis(algebra, rows).tensor)
            for j, vec in enumerate(plane)
            for k, c in enumerate(vec)
        )
        for rows in _invertible_gf2_matrices(dim)
    )


def test_invertible_gf2_matrix_count():
    assert len(list(_invertible_gf2_matrices(3))) == 168


# (2, 264): 264 = 256 + 8 must not be read as tensor 8 with its high bit dropped;
# a bool or a float is not an int
@pytest.mark.parametrize(
    "dim, value", [(0, 0), (4, 0), (2, -1), (2, 256), (2, 264), (3, 1 << 27), (True, 0), (2.0, 0), (3, 2.0)]
)
def test_class_key_rejects_out_of_range_input(dim, value):
    with pytest.raises(ValueError):
        class_key(dim, value)
    with pytest.raises(ValueError):
        algebra_from_int(dim, value)


@pytest.mark.parametrize("value", [0, 2, 32, 2084, 16420, 18436, 132153287])
def test_class_key_is_the_orbit_minimum(value):
    assert class_key(3, value) == _orbit_minimum(3, value)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_class_key_is_the_orbit_minimum_on_survivors(census3, data):
    value = data.draw(st.sampled_from([r["tensor"] for r in census3.records]))
    assert class_key(3, value) == _orbit_minimum(3, value)


@lru_cache(maxsize=None)
def _group_tables(dim):
    """For each g in GL(dim, 2), the image under g of each single-entry tensor, by bit.

    The route through every group element: with the rows of g the new basis
    and h = g^-1, the entry [e_i, e_j] = e_k becomes
    [f_a, f_b] = sum_m g[a][i] g[b][j] h[k][m] f_m.
    """
    matrices = list(_invertible_gf2_matrices(dim))
    stack = np.array(matrices)
    entries = list(itertools.product(range(dim), repeat=3))
    tables = []
    for g in matrices:
        # h by a plain search: the one matrix with g h = I mod 2
        (n,) = np.flatnonzero((np.array(g) @ stack % 2 == np.eye(dim)).all(axis=(1, 2)))
        h = matrices[n]
        tables.append([
            sum(1 << (a * dim * dim + b * dim + m) for a, b, m in entries if g[a][i] & g[b][j] & h[k][m])
            for i, j, k in entries
        ])
    return tables


def _group_orbit(dim, value):
    """The set of images of value under every element of GL(dim, 2)."""
    set_bits = [b for b in range(dim**3) if value >> b & 1]
    orbit = set()
    for table in _group_tables(dim):
        image = 0
        for b in set_bits:
            image ^= table[b]
        orbit.add(image)
    return orbit


# the tensors of dimensions 2 and 3 are the first two draws of random.Random(0),
# randrange(2^8) then randrange(2^27); an orbit under a subgroup has at most as
# many elements as the subgroup, so orbits of |GL(2, 2)| = 6 and |GL(3, 2)| = 168
# elements show that the generators generate the group
@pytest.mark.parametrize("dim, value, size, generators", [(1, 1, 1, 0), (2, 197, 6, 2), (3, 112896325, 168, 3)])
def test_orbit_generators_generate_the_group(dim, value, size, generators):
    assert len(census_mod._generator_tables(dim)) == generators
    orbit = census_mod._orbit(dim, value)
    assert orbit[0] == value
    assert len(orbit) == len(set(orbit)) == size


def test_orbit_is_the_orbit_under_every_group_element(census3):
    rng = random.Random(3)
    cases = [(dim, key) for dim in (1, 2) for key in census(dim).classes]
    cases += [(3, key) for key in census3.classes] + [(3, rng.randrange(1 << 27)) for _ in range(200)]
    for dim, value in cases:
        assert set(census_mod._orbit(dim, value)) == _group_orbit(dim, value)


def test_dim3_orbits_are_the_classes(census3):
    assert sum(DIM3_CLASS_SIZES.values()) == 806
    for key, members in census3.classes.items():
        orbit = census_mod._orbit(3, key)
        assert len(orbit) == DIM3_CLASS_SIZES[key] and 168 % len(orbit) == 0
        assert set(orbit) == set(members)
