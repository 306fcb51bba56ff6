import hashlib
import multiprocessing
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz import census as census_mod
from leibniz.census import _CHUNK, algebra_from_int, census, valid_tensor_ints


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


# windows that start or stop off a 64-tensor word boundary, one inside a single word, an empty one
@pytest.mark.parametrize(
    "dim, start, stop", [(3, 7, 1000), (2, 3, 200), (3, 65, 70), (3, 64, 64), (1, 0, 2)]
)
def test_screen_matches_exact_check_off_word_boundaries(dim, start, stop):
    assert valid_tensor_ints(dim, start, stop) == _exact_valid(dim, start, stop)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screen_matches_exact_check_on_random_windows(data):
    dim = data.draw(st.integers(1, 3))
    total = 1 << dim**3
    start = data.draw(st.integers(0, total))
    stop = data.draw(st.integers(start, min(total, start + 300)))
    assert valid_tensor_ints(dim, start, stop) == _exact_valid(dim, start, stop)


def test_dim3_screen_finds_the_806_tensors():
    total = 1 << 27
    values = [v for lo in range(0, total, _CHUNK) for v in valid_tensor_ints(3, lo, lo + _CHUNK)]
    assert len(values) == 806
    assert values[:3] == [0, 2, 4]
    assert values[-3:] == [133954560, 133956095, 134217216]
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert digest == "1e6ef7a60f644246aa8da347115d2aef1e4eb4fdb4e15d944c436972fe8044c1"
    # census_record trusts the screen (checked=True), so check every survivor exactly here
    assert all(not algebra_from_int(3, v).check_left_leibniz() for v in values)


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


def _failing_record(dim, value):
    raise RuntimeError(f"record failed at tensor {value}")


def _timed_out(signum, frame):
    raise TimeoutError("census pool did not report the worker's failure")


def test_census_pool_reraises_a_worker_failure(monkeypatch):
    monkeypatch.setattr(census_mod, "_CHUNK", 64)
    # the pool's workers are forked, so they see the patched census_record
    monkeypatch.setattr(census_mod, "census_record", _failing_record)
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        # Pool.map reports whichever chunk fails first in time, so only the prefix is fixed
        with pytest.raises(RuntimeError, match="^record failed at tensor "):
            census(2, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
