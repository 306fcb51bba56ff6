import os
import random
import subprocess
import sys
from itertools import combinations, product
from pathlib import Path

import pytest

from conftest import build_corpus, random_basis
from leibniz import core, cyclic, lattice
from leibniz.census import algebra_from_int, census
from leibniz.core import (
    LeibnizAlgebra,
    algebra_in_basis,
    is_ideal,
    is_subalgebra,
    nilpotency_class,
    restrict_to_subalgebra,
)
from leibniz.cyclic import is_cyclic_subalgebra
from leibniz.families import abelian, cyclic_nilpotent, dim2_l2, family_a_i, family_b
from leibniz.lattice import (
    LatticeEntry,
    _closed_bases,
    enumerate_subspaces,
    gaussian_binomial,
    maximal_cyclic_report,
    rational_codim1_report,
    subalgebra_lattice,
)
from leibniz.linalg import GF, QQ, Subspace, basis_vector


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 2, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 5) == 1
    assert gaussian_binomial(3, 4, 5) == 0


def test_gaussian_binomial_rejects_a_bad_space():
    # q below 2, a negative n, and an n or q that is not an int, bools included
    for n, k, q in [(2, 1, 0), (2, 1, -3), (2, 1, 1), (-1, 0, 2), (2.0, 1, 2), (2, 1, 2.0), (True, 1, 2), (2, 1, True)]:
        with pytest.raises(ValueError):
            gaussian_binomial(n, k, q)


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_subspaces(2, 2)) == 5
    assert sum(1 for _ in enumerate_subspaces(1, 3)) == 2
    assert sum(1 for _ in enumerate_subspaces(3, 2)) == 16


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerate_matches_gaussian_binomials(n, p):
    seen = {}
    for s in enumerate_subspaces(n, p):
        assert s not in seen, "duplicate subspace emitted"
        seen[s] = True
        assert Subspace.from_vectors(GF(p), n, s.rows).rows == s.rows
    by_dim = {}
    for s in seen:
        by_dim[s.dim] = by_dim.get(s.dim, 0) + 1
    for k in range(n + 1):
        assert by_dim.get(k, 0) == gaussian_binomial(n, k, p)


def test_enumerate_limit():
    # the limit is the (subspace, element) pair count of GF(5)^5; p must be a prime, n >= 0, both ints
    for n, p in [(8, 2), (4, 11), (6, 11), (2, 0), (2, 1), (-1, 2), (2.0, 2), (2, 2.0), (True, 2), (2, True)]:
        with pytest.raises(ValueError):
            next(enumerate_subspaces(n, p))


def test_enumerate_limit_admits_every_space_up_to_gf5_5():
    for n, p in [(5, 5), (7, 2), (6, 3), (4, 7), (2, 101)]:
        assert next(enumerate_subspaces(n, p)).dim == 0


def test_lattice_cyclic2_gf2():
    lat = subalgebra_lattice(cyclic_nilpotent(2, GF(2)))
    proper_nonzero = [e for e in lat.entries if 0 < e.subspace.dim < 2]
    assert len(proper_nonzero) == 1
    only = proper_nonzero[0]
    assert only.subspace == Subspace.from_vectors(GF(2), 2, [(0, 1)])
    assert only.is_maximal and only.is_ideal
    assert only.generator == (0, 1)


def test_lattice_dim1_no_proper_nonzero():
    lat = subalgebra_lattice(abelian(1, GF(2)))
    assert [e.subspace.dim for e in lat.entries] == [0, 1]


def test_lattice_family_a_i_2_gf3():
    alg = family_a_i(2, GF(3))
    lat = subalgebra_lattice(alg)
    k = Subspace.from_vectors(GF(3), 3, [(1, 0, 0), (0, 1, 0)])
    entry = next(e for e in lat.entries if e.subspace == k)
    assert entry.is_maximal and entry.is_cyclic
    assert entry.generator == (1, 0, 0)
    # nilpotent: every maximal subalgebra is an ideal
    rep = maximal_cyclic_report(alg)
    assert rep.nilpotent and rep.all_maximal_are_ideals
    assert rep.has_maximal_cyclic


def test_lattice_rejects_unsupported_parameters():
    # both public functions, and the walk they read, refuse at the call, before any subspace is visited
    for walk in (subalgebra_lattice, maximal_cyclic_report, lattice._subalgebras):
        with pytest.raises(ValueError):
            walk(cyclic_nilpotent(8, GF(2)))
        with pytest.raises(ValueError):
            walk(cyclic_nilpotent(4, GF(11)))
        with pytest.raises(ValueError, match=r"prime field GF\(p\).*rational_codim1_report"):
            walk(cyclic_nilpotent(2, QQ))


def test_lattice_cyclic2_gf7():
    # GF(7)^2 has 10 subspaces; of its 8 lines only <e2> is closed under [e1, e1] = e2
    lat = subalgebra_lattice(cyclic_nilpotent(2, GF(7)))
    assert [e.subspace.rows for e in lat.entries] == [(), ((0, 1),), ((1, 0), (0, 1))]
    assert [(e.is_ideal, e.is_maximal, e.generator) for e in lat.entries] == [
        (True, False, None), (True, True, (0, 1)), (True, False, (1, 0)),
    ]


def test_codim1_subalgebras_are_maximal():
    for alg in (cyclic_nilpotent(3, GF(2)), family_a_i(2, GF(3)), dim2_l2(GF(3))):
        lat = subalgebra_lattice(alg)
        for e in lat.entries:
            if e.subspace.dim == alg.dim - 1:
                assert e.is_maximal
            if e.is_ideal:
                # every ideal is in particular a subalgebra: it is listed
                assert e.subspace in [x.subspace for x in lat.entries]


def test_maximal_cyclic_report_abelian2():
    rep = maximal_cyclic_report(abelian(2, GF(2)))
    assert len(rep.entries) == 3
    assert all(e.subspace.dim == 1 and e.is_cyclic for e in rep.entries)


def test_maximal_cyclic_report_l2_gf3():
    rep = maximal_cyclic_report(dim2_l2(GF(3)))
    assert not rep.nilpotent
    assert rep.all_maximal_are_ideals is None
    spans = {e.subspace for e in rep.entries}
    assert Subspace.from_vectors(GF(3), 2, [(0, 1)]) in spans
    assert Subspace.from_vectors(GF(3), 2, [(1, 2)]) in spans
    assert len(spans) == 2


def test_quaternion_analog_every_subalgebra_ideal_gf3():
    from leibniz.families import quaternion_analog

    lat = subalgebra_lattice(quaternion_analog(GF(3)))
    assert all(e.is_ideal for e in lat.entries)


def test_rational_codim1_report_family_a_i():
    alg = family_a_i(3, QQ)
    rep = rational_codim1_report(alg)
    k = Subspace.from_vectors(QQ, 4, [basis_vector(QQ, 4, i) for i in range(3)])
    got = {c.subspace: c for c in rep.candidates}
    assert k in got
    assert got[k].nilpotent
    assert got[k].generator == tuple(basis_vector(QQ, 4, 0))
    # the hyperplane Leib + <d> is a subalgebra but has no single generator
    other = Subspace.from_vectors(
        QQ, 4, [basis_vector(QQ, 4, 1), basis_vector(QQ, 4, 2), basis_vector(QQ, 4, 3)]
    )
    assert other in got
    assert got[other].generator is None


def test_rational_codim1_report_one_dimensional():
    # the only hyperplane is the zero subspace: nilpotent, with no generator
    for alg in (abelian(1, QQ), cyclic_nilpotent(1, QQ)):
        (candidate,) = rational_codim1_report(alg).candidates
        assert candidate.subspace == Subspace.zero(QQ, 1)
        assert candidate.nilpotent
        assert candidate.generator is None


def test_rational_codim1_report_builds_each_table_once(monkeypatch):
    # one _closed_products per hyperplane serves both its nilpotency flag and
    # its cyclicity, which agree with restrict_to_subalgebra and
    # is_cyclic_subalgebra, each computing its own table
    closed_products = core._closed_products
    calls = []

    def counted(algebra, s):
        calls.append(s)
        return closed_products(algebra, s)

    for alg in (family_a_i(4, QQ), family_b(4, [0, 1, 1], 1, QQ)):
        calls.clear()
        with monkeypatch.context() as patch:
            for module in (core, cyclic, lattice):
                patch.setattr(module, "_closed_products", counted)
            candidates = rational_codim1_report(alg).candidates
        assert candidates and sorted(calls, key=lambda s: s.rows) == [c.subspace for c in candidates]
        for c in candidates:
            assert c.nilpotent == (nilpotency_class(restrict_to_subalgebra(alg, c.subspace)) is not None)
            assert c.generator == is_cyclic_subalgebra(alg, c.subspace)


def test_rational_codim1_report_requires_q():
    with pytest.raises(ValueError):
        rational_codim1_report(cyclic_nilpotent(2, GF(2)))


@pytest.mark.parametrize("n,p", [(4, 2), (3, 3), (3, 5)])
def test_enumerated_bases_are_canonical(n, p):
    # enumerate_subspaces builds its bases in RREF and skips elimination
    field = GF(p)
    for s in enumerate_subspaces(n, p):
        assert Subspace.from_vectors(field, n, s.rows) == s


@pytest.mark.parametrize("n,p", [(4, 2), (3, 3)])
def test_enumerate_order_is_free_entry_product_order(n, p):
    # the reference: by dimension, then pivot pattern, then one product over
    # the free positions (row by row, left to right)
    expected = []
    for k in range(n + 1):
        for pivots in combinations(range(n), k):
            free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
            for values in product(range(p), repeat=len(free)):
                rows = [[0] * n for _ in range(k)]
                for r, pc in enumerate(pivots):
                    rows[r][pc] = 1
                for (r, c), v in zip(free, values):
                    rows[r][c] = v
                expected.append(tuple(map(tuple, rows)))
    assert [s.rows for s in enumerate_subspaces(n, p)] == expected


def test_patterns_are_built_once_per_space():
    # the patterns depend on (ambient, p) alone: one immutable copy per process
    patterns = lattice._patterns(3, 3)
    assert lattice._patterns(3, 3) is patterns
    assert all(type(choices) is tuple and all(type(rows) is tuple for rows in choices) for _, choices in patterns)
    assert [s.rows for s in enumerate_subspaces(3, 3)] == [s.rows for s in enumerate_subspaces(3, 3)]


def _brute_force_entries(algebra):
    """The lattice from first principles: every subspace, every pair compared."""
    n = algebra.dim
    subalgebras = [s for s in enumerate_subspaces(n, algebra.field.characteristic) if is_subalgebra(algebra, s)]
    entries = [
        LatticeEntry(
            subspace=s,
            is_ideal=is_ideal(algebra, s),
            is_maximal=s.dim < n and not any(s.dim < t.dim < n and s <= t for t in subalgebras),
            generator=is_cyclic_subalgebra(algebra, s),
        )
        for s in subalgebras
    ]
    return tuple(sorted(entries, key=lambda e: (e.subspace.dim, e.subspace.rows)))


@pytest.mark.parametrize("p", [2, 3])
def test_lattice_matches_brute_force(p):
    # the corpus in the standard basis and in a random GL(n, p) basis, whose
    # tables are dense and not triangular
    rng = random.Random(12)
    field = GF(p)
    for name, alg in build_corpus(field):
        for algebra in (alg, algebra_in_basis(alg, random_basis(field, alg.dim, rng))):
            assert subalgebra_lattice(algebra).entries == _brute_force_entries(algebra), name


@pytest.mark.parametrize("p", [2, 3, 5])
def test_lattice_decides_cyclicity_from_the_filter_table(p, monkeypatch):
    # no subalgebra is bracketed or tested for closure twice: neither the
    # lattice nor the report calls _closed_products, and their generators and
    # ideal flags agree with is_cyclic_subalgebra and is_ideal, which compute
    # theirs afresh
    def refuse(*args):
        raise AssertionError("the walk called _closed_products")

    rng = random.Random(23)
    field = GF(p)
    for name, alg in build_corpus(field):
        if alg.dim > 4:
            continue
        for algebra in (alg, algebra_in_basis(alg, random_basis(field, alg.dim, rng))):
            with monkeypatch.context() as patch:
                patch.setattr(core, "_closed_products", refuse)
                patch.setattr(cyclic, "_closed_products", refuse)
                entries = subalgebra_lattice(algebra).entries
                report = maximal_cyclic_report(algebra).entries
            for e in (*entries, *report):
                assert e.generator == is_cyclic_subalgebra(algebra, e.subspace), (name, e.subspace)
                assert e.is_ideal == is_ideal(algebra, e.subspace), (name, e.subspace)


def _assert_filter_matches_brute_force(algebra, name):
    n, p = algebra.dim, algebra.field.characteristic
    expected = [s.rows for s in enumerate_subspaces(n, p) if is_subalgebra(algebra, s)]
    assert [basis for basis, _ in _closed_bases(algebra)] == expected, name


@pytest.mark.parametrize("p", [5, 7])
def test_closed_bases_match_brute_force(p):
    # the filter solves each head for its tail; every subspace is tested
    # afresh here, in the same canonical order
    rng = random.Random(24)
    field = GF(p)
    for name, alg in build_corpus(field):
        if alg.dim > 4:
            continue
        for algebra in (alg, algebra_in_basis(alg, random_basis(field, alg.dim, rng))):
            _assert_filter_matches_brute_force(algebra, name)


def test_closed_bases_match_brute_force_on_a_i4_gf5():
    field = GF(5)
    alg = family_a_i(4, field)
    _assert_filter_matches_brute_force(algebra_in_basis(alg, random_basis(field, alg.dim, random.Random(4))), "A-i(4)")


def test_closed_bases_try_every_tail_of_an_abelian_algebra():
    # every square is 0, so no head forces a tail and every subspace is kept
    algebra = abelian(4, GF(3))
    _assert_filter_matches_brute_force(algebra, "abelian4")
    assert sum(1 for _ in _closed_bases(algebra)) == sum(gaussian_binomial(4, k, 3) for k in range(5))


def test_closed_bases_square_each_row_vector_once(monkeypatch):
    # A-i(4) is 5-dimensional: each of the (5^5 - 1) / 4 RREF rows of
    # GF(5)^5 is squared once, whichever patterns list it
    squares = 0
    product = lattice._product

    def counted(table, x, y):
        nonlocal squares
        squares += x == y
        return product(table, x, y)

    monkeypatch.setattr(lattice, "_product", counted)
    list(_closed_bases(family_a_i(4, GF(5))))
    assert squares == (5**5 - 1) // 4 == 781


@pytest.mark.parametrize("p", [3, 5])
def test_closed_bases_tables_are_congruent_to_the_brackets(p):
    # the filter keeps the unreduced accumulators of the integer table; each
    # entry must be the bracket modulo p
    field = GF(p)
    for name, algebra in build_corpus(field):
        for basis, table in _closed_bases(algebra):
            brackets = [[algebra.bracket(x, y) for y in basis] for x in basis]
            assert [[tuple(v % p for v in w) for w in line] for line in table] == brackets, (name, basis)


def _assert_report_reads_the_lattice(algebra, name):
    report = maximal_cyclic_report(algebra)
    maximal = subalgebra_lattice(algebra).maximal()
    nilpotent = nilpotency_class(algebra) is not None
    assert report.entries == maximal, name
    assert report.nilpotent == nilpotent, name
    assert report.all_maximal_are_ideals == (all(e.is_ideal for e in maximal) if nilpotent else None), name


@pytest.mark.parametrize("p", [2, 3, 5])
def test_maximal_cyclic_report_reads_the_lattice(p):
    # the report decides flags for the maximal subalgebras alone
    rng = random.Random(29)
    field = GF(p)
    for name, alg in build_corpus(field):
        for algebra in (alg, algebra_in_basis(alg, random_basis(field, alg.dim, rng))):
            _assert_report_reads_the_lattice(algebra, name)


def test_maximal_cyclic_report_reads_the_lattice_of_every_census_class():
    result = census(3)
    assert len(result.classes) == 20
    for key in result.classes:  # the orbit minimum, the first member
        _assert_report_reads_the_lattice(algebra_from_int(3, key), key)


def test_a_i4_gf7_lattice_past_the_enumeration_limit(monkeypatch):
    # GF(7)^5 is over the limit; opened, the report still reads the lattice
    monkeypatch.setattr(lattice, "_MAX_PAIRS", 10**9)
    algebra = family_a_i(4, GF(7))
    entries = subalgebra_lattice(algebra).entries
    assert len(entries) == 3660
    assert sum(e.is_ideal for e in entries) == 34
    assert sum(e.is_cyclic for e in entries) == 407
    maximal = tuple(e for e in entries if e.is_maximal)
    assert len(maximal) == 8
    assert maximal_cyclic_report(algebra).entries == maximal


def _sl2(field):
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h, antisymmetric; basis h, e, f
    return LeibnizAlgebra.from_brackets(
        field,
        3,
        {
            (0, 1): {1: 2},
            (1, 0): {1: -2},
            (0, 2): {2: -2},
            (2, 0): {2: 2},
            (1, 2): {0: 1},
            (2, 1): {0: -1},
        },
    )


@pytest.mark.parametrize("p,lines,planes", [(3, 3, 4), (5, 10, 6)])
def test_sl2_has_maximal_subalgebras_of_two_dimensions(p, lines, planes):
    # the maximal subalgebras of sl2 over GF(p) are the Borel planes and the
    # non-split tori, which are lines: maximality is not read off one dimension
    maximal = subalgebra_lattice(_sl2(GF(p))).maximal()
    dims = [e.subspace.dim for e in maximal]
    assert (dims.count(1), dims.count(2), len(dims)) == (lines, planes, lines + planes)


def test_lattice_path_imports_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from leibniz.families import family_a_i\n"
        "from leibniz.lattice import subalgebra_lattice\n"
        "from leibniz.linalg import GF\n"
        "subalgebra_lattice(family_a_i(2, GF(3)))\n"
        "assert 'numpy' not in sys.modules, 'the lattice path imported numpy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_census_and_cli_import_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "from leibniz.census import census\n"
        "from leibniz.cli import main\n"
        "assert census(3).valid == 806\n"
        "assert main(['census', '--dim', '2']) == 0\n"
        "assert 'numpy' not in sys.modules, 'the census or the CLI imported numpy'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60, stdout=subprocess.PIPE, text=True)
    assert len(out.stdout.splitlines()) == 13
