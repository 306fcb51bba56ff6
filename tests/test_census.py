import pytest

from leibniz import census as census_mod
from leibniz.census import algebra_from_int, census, valid_tensor_ints


def _exact_valid(dim, start, stop):
    return [v for v in range(start, stop) if not algebra_from_int(dim, v).check_left_leibniz()]


def test_census_record_counts_dims_1_and_2():
    assert census(1).valid == 1
    assert census(2).valid == 13
    assert census(2).scanned == 256


def test_census_records_are_sorted_and_distinct():
    values = [r["tensor"] for r in census(2).records]
    assert values == sorted(set(values))


def test_screen_matches_exact_check_dim2():
    assert valid_tensor_ints(2, 0, 256) == _exact_valid(2, 0, 256)


@pytest.mark.parametrize("start", [0, 1 << 26])
def test_screen_matches_exact_check_dim3_window(start):
    assert valid_tensor_ints(3, start, start + 4096) == _exact_valid(3, start, start + 4096)


def test_census_is_independent_of_worker_count(monkeypatch):
    monkeypatch.setattr(census_mod, "_CHUNK", 64)  # four chunks, so the pool really runs
    assert census(2, jobs=2).records == census(2, jobs=1).records


def test_census_argument_validation():
    with pytest.raises(ValueError):
        census(2, p=3)
    with pytest.raises(ValueError):
        census(4)
    with pytest.raises(ValueError):
        census(2, jobs=0)
