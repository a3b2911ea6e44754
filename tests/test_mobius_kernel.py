"""Differential tests of the streamed Mobius kernel, the structures a poset
derives on first read and the one-candidate lattice check against the
sum-over-bits recursion, an eager closure, the popcount-ordered sweep
(`oracles`) and the full upper-set scan they replaced; the two shapes that
break a lagged row (a transitive cover pair, and a value class whose least
element drops in a walk that is not ascending); every family with its
indices shuffled, so the key-indexed frontier meets its keys out of order
and grows past its end; a check that the mu(0-hat, 1-hat) path never
builds the closure; a check that the stream drops each row once its
element is visited; and a bound on the memory the stream takes on L_7(2),
on its own and fed by the growth in `mobius`.

Oracle notes.
[ORACLE] `oracle_mobius_table`, `oracle_mobius_table_to_top` and
`oracle_is_lattice` are the previous implementations, kept verbatim: one dict
lookup per interval element, and a scan of every common upper (lower) bound.
[ORACLE] `oracle_closure` walks the covers up from every element, eagerly
and independently of the poset's own rows.
[ORACLE] `oracles.assert_matches_eager` compares every derived structure
and both Mobius tables of every element with the former eager closure and
popcount-ordered sweep (see `oracles`).
"""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from oracles import assert_matches_eager, is_lattice, verify_mobius_identity
from hypothesis import strategies as st

from expdowling import identities, poset, shelling, structures
from expdowling.cli import EXIT_OK, main
from expdowling.poset import (
    PosetError,
    _bits,
    close_order,
    from_covers,
    mobius_table,
    mobius_table_to_top,
)
from expdowling.structures import (
    build_D_rk,
    build_dowling_lattice,
    build_extended,
    build_partition_lattice,
    build_Q_r,
    build_r_divisible,
    build_restricted_dowling,
    build_restricted_partition,
)


def oracle_mobius_table(P, x):
    table = {}
    order = sorted(_bits(P.up_rows[x]), key=lambda y: P.up_rows[y].bit_count(), reverse=True)
    for y in order:
        if y == x:
            table[y] = 1
            continue
        below = P.up_rows[x] & P.down_rows[y] & ~(1 << y)
        table[y] = -sum(table[z] for z in _bits(below))
    return table


def oracle_mobius_table_to_top(P, y):
    table = {}
    order = sorted(_bits(P.down_rows[y]), key=lambda x: P.down_rows[x].bit_count(), reverse=True)
    for x in order:
        if x == y:
            table[x] = 1
            continue
        above = P.down_rows[y] & P.up_rows[x] & ~(1 << x)
        table[x] = -sum(table[z] for z in _bits(above))
    return table


def oracle_is_lattice(P):
    if len(P.minimals) != 1 or len(P.maximals) != 1:
        return False
    for x in range(P.n):
        for y in range(x + 1, P.n):
            uppers = P.up_rows[x] & P.up_rows[y]
            if not any((uppers & ~P.up_rows[u]) == 0 for u in _bits(uppers)):
                return False
            lowers = P.down_rows[x] & P.down_rows[y]
            if not any((lowers & ~P.down_rows[u]) == 0 for u in _bits(lowers)):
                return False
    return True


def oracle_closure(P):
    """(up rows, down rows) of the transitive closure of the covers, from a
    depth-first walk up from every element."""
    up = []
    for x in range(P.n):
        seen = {x}
        stack = [x]
        while stack:
            for y in P.covers_up[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        up.append(sum(1 << y for y in seen))
    down = [sum(1 << x for x in range(P.n) if up[x] >> y & 1) for y in range(P.n)]
    return tuple(up), tuple(down)


def check_closure(P):
    assert "up_rows" not in vars(P)
    up, down = oracle_closure(P)
    assert P.down_rows == down
    for x in range(P.n):
        assert sum(P.leq(x, y) << y for y in range(P.n)) == up[x]
    assert "up_rows" not in vars(P)  # leq reads the down rows only
    assert P.up_rows == up
    assert "up_rows" in vars(P)
    for x in range(P.n):
        for y in _bits(up[x]):
            assert P.interval(x, y) == up[x] & down[y]
        incomparable = ((1 << P.n) - 1) & ~up[x]
        if incomparable:
            with pytest.raises(PosetError):
                P.interval(x, (incomparable & -incomparable).bit_length() - 1)


def check_both_tables(P):
    for x in range(P.n):
        assert mobius_table(P, x) == oracle_mobius_table(P, x)
        assert mobius_table_to_top(P, x) == oracle_mobius_table_to_top(P, x)


def extended_parameters(m_max):
    # r = 1 stops one size short: Pi_m^{1,j} for small j is Pi_m with a 0-hat
    # adjoined, already covered, and the oracles take seconds on it at m = 7
    for m in range(1, m_max + 1):
        for r in range(1, m + 1):
            for j in range(1, m + 1):
                if (m - j) % r == 0 and (r > 1 or m < m_max):
                    yield m, r, j


def bowtie():
    # 0 < a, b < c, d < 1 with a, b both below c and d: a and b have two
    # minimal upper bounds, so no join
    return from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def shuffled(build, seed):
    """The poset of `build` with its indices permuted at random, through
    `from_covers`, so that a walk meets its keys out of numeric order."""
    P = build().poset
    perm = list(range(P.n))
    random.Random(seed).shuffle(perm)
    return from_covers(P.n, [(perm[x], perm[y]) for x in range(P.n) for y in P.covers_up[x]])


# one small member of each of the 8 families of `cli.FAMILIES`
FAMILY_BUILDS = [
    ("pi6", lambda: build_partition_lattice(6)),
    ("dowling4,2", lambda: build_dowling_lattice(4, 2)),
    ("pi-r8,2", lambda: build_r_divisible(8, 2)),
    ("pi-rj7,2,3", lambda: build_extended(7, 2, 3)),
    ("q-r4,2", lambda: build_Q_r(4, 2)),
    ("d-rk2,2,1,2", lambda: build_D_rk(2, 2, 1, 2)),
    ("q-I7,{2,3}", lambda: build_restricted_partition(7, frozenset({2, 3}))),
    ("r-IJ4,2", lambda: build_restricted_dowling(4, 2, frozenset({1, 2, 3}), frozenset(range(5)))),
]

CASES = (
    [(f"pi{m}", lambda m=m: build_partition_lattice(m).poset) for m in range(1, 8)]
    + [
        (f"dowling{n},{s}", lambda n=n, s=s: build_dowling_lattice(n, s).poset)
        for n in range(0, 5)
        for s in range(1, 4)
    ]
    + [
        (f"extended{m},{r},{j}", lambda m=m, r=r, j=j: build_extended(m, r, j).poset)
        for m, r, j in extended_parameters(7)
    ]
    + [
        (f"d-rk{n},{r},{k},{s}", lambda n=n, r=r, k=k, s=s: build_D_rk(n, r, k, s).poset)
        for n, r, k, s in [(1, 1, 1, 2), (2, 1, 2, 1), (2, 2, 0, 1), (1, 2, 1, 2), (2, 2, 1, 1)]
    ]
    + [
        ("q-I6,{1,2}", lambda: build_restricted_partition(6, frozenset({1, 2})).poset),
        ("q-I6,{2,3}", lambda: build_restricted_partition(6, frozenset({2, 3})).poset),
        ("q-r3,2", lambda: build_Q_r(3, 2).poset),
        ("q-r2,3", lambda: build_Q_r(2, 3).poset),
        ("bowtie", bowtie),
    ]
    + [
        (f"shuffled-{name}", lambda build=build, seed=seed: shuffled(build, seed))
        for seed, (name, build) in enumerate(FAMILY_BUILDS)
    ]
)


@pytest.mark.parametrize("build", [b for _, b in CASES], ids=[name for name, _ in CASES])
def test_kernel_matches_oracle(monkeypatch, build):
    # with one spare slot, every key past the end of the frontier list grows
    # it, and a walk down meets its largest key first
    monkeypatch.setattr(poset, "_SPARE", 1)
    P = build()
    check_closure(P)
    assert_matches_eager(P)
    check_both_tables(P)
    assert is_lattice(P)[0] == oracle_is_lattice(P)


@pytest.mark.parametrize("n,covers", [
    (3, [(0, 1), (0, 2), (1, 2)]),
    (4, [(0, 1), (1, 2), (1, 3), (2, 3)]),
], ids=["from-start", "above-start"])
def test_transitive_cover_pair(n, covers):
    # a chain with (n - 3, n - 1) given as a cover too: n - 3 is a lower
    # cover of n - 1 and also lies in the row that n - 2 passes on, and must
    # be counted once, in the row or as the start
    P = from_covers(n, covers)
    assert mobius_table(P, 0) == {0: 1, 1: -1, **dict.fromkeys(range(2, n), 0)}
    assert mobius_table_to_top(P, n - 1) == {n - 1: 1, n - 2: -1, **dict.fromkeys(range(n - 2), 0)}
    check_both_tables(P)


def test_class_least_element_drops_in_walk_order():
    # the walk visits 2 before 1, both with mu -1: keyed by index, the class
    # of -1 would first hold 2 and then gain 1, its least element dropping;
    # keyed by visit label, as the kernel keys it, its least label stays put
    P = close_order(((1, 2, 3, 4), (3, 4), (4,), (4,), ()), (0, 2, 1, 3, 4))
    assert mobius_table(P, 0) == {0: 1, 2: -1, 1: -1, 3: 0, 4: 1}
    check_both_tables(P)


def test_bowtie_and_q_r_are_not_lattices():
    ok, reason = is_lattice(bowtie())
    assert not ok and reason == "no join for 1, 2"
    ok, reason = is_lattice(build_Q_r(3, 2).poset)
    assert not ok and reason == "missing unique bottom or top"


@st.composite
def random_bounded_poset(draw):
    # a random DAG between an adjoined bottom 0 and top n + 1; its transitive
    # edges make it non-graded, which exercises the height fallback
    n = draw(st.integers(min_value=0, max_value=7))
    edges = {(0, i) for i in range(1, n + 2)} | {(i, n + 1) for i in range(n + 1)}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if draw(st.booleans()):
                edges.add((i, j))
    return from_covers(n + 2, sorted(edges))


@given(random_bounded_poset())
@settings(max_examples=80, deadline=None)
def test_random_bounded_posets_match_oracle(P):
    check_closure(P)
    assert_matches_eager(P)
    for x in range(P.n):
        assert mobius_table(P, x) == oracle_mobius_table(P, x)
        assert mobius_table_to_top(P, x) == oracle_mobius_table_to_top(P, x)
        assert verify_mobius_identity(P, x)
    assert is_lattice(P)[0] == oracle_is_lattice(P)


@pytest.fixture
def made_posets(monkeypatch):
    """Every poset the builders make during the test, recorded at each
    constructor `structures` calls: the poset of grown covers, the adjoined
    0-hat and the poset of arbitrary cover pairs."""
    made = []

    def recording(make):
        def record(*args):
            made.append(make(*args))
            return made[-1]
        return record

    for name in ("close_order", "adjoin_bottom", "from_covers"):
        monkeypatch.setattr(structures, name, recording(getattr(structures, name)))
    return made


# what the mu(0-hat, 1-hat) path of each run must never build: no closure
# (the EL labels read the rank); `mobius` (None) makes no poset at all, as it
# streams the growth into the Mobius walk
CLOSURE = {"down_rows", "up_rows", "covers_down"}


@pytest.mark.parametrize("run,mu,unbuilt", [
    (lambda: identities.brute_mu(build_dowling_lattice(4, 2)), 105, CLOSURE),
    (lambda: identities.brute_mu(build_extended(7, 2, 3)), -61, CLOSURE),
    (lambda: shelling.el_verify(7, 2, 3)["mu"], -61, CLOSURE),
    (lambda: main(["mobius", "--family", "dowling", "--n", "4", "--s", "2"]), EXIT_OK, None),
    (lambda: main(["el-check", "--m", "7", "--r", "2", "--j", "3"]), EXIT_OK, CLOSURE),
    (lambda: main(["mobius", "--family", "d-rk", "--n", "2", "--r", "2", "--k", "1", "--s", "2"]), EXIT_OK,
     None),
], ids=["brute_mu-dowling4,2", "brute_mu-extended7,2,3", "el_verify7,2,3", "cli-mobius", "cli-el-check",
        "cli-mobius-adjoined"])
def test_mu_path_never_builds_up_rows(made_posets, capsys, run, mu, unbuilt):
    assert run() == mu
    if unbuilt is None:
        assert made_posets == []
    else:
        assert made_posets
        assert all(unbuilt.isdisjoint(vars(P)) for P in made_posets)


def test_one_int_object_per_value():
    # the walk keeps each value as the one int object of its class: the
    # 4,140 values of Pi_8 are 17 objects, though Python shares no int
    # past 256 by itself
    P = build_partition_lattice(8).poset
    table = mobius_table(P, P.bottom)
    assert len({id(v) for v in table.values()}) == len(set(table.values())) == 17


def test_stream_drops_each_row():
    # on a chain the stream holds one row at a time; kept rows would hold
    # n^2 / 2 bits, 4 MB at n = 8000, and the table of n entries takes about
    # 0.4 MB
    n = 8000
    P = from_covers(n, [(x, x + 1) for x in range(n - 1)])
    tracemalloc.start()
    try:
        table = mobius_table(P, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table == {0: 1, 1: -1, **dict.fromkeys(range(2, n), 0)}
    assert peak < n * n // 32


def test_stream_memory_on_dowling_7_2():
    # L_7(2), 28,640 elements: a row one cover level behind keeps the traced
    # peak of the walk, its table of 28,640 values included, at 10.0 MiB,
    # where rows holding the whole segment [0-hat, z) took 21 MiB and a
    # frontier dict with one int object per value 11.0 MiB
    P = build_dowling_lattice(7, 2).poset
    tracemalloc.start()
    try:
        table = mobius_table(P, P.bottom)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table[P.top] == -135135
    assert peak < 10.5 * 2**20


def test_streamed_mobius_memory_on_dowling_7_2(capsys):
    # `mobius` streams the growth of L_7(2) into the walk, so it holds no
    # poset, no linear extension, no table of 28,640 values and no code of
    # a stepped element: the traced peak of the whole command, growth
    # included, reads 11.1 MiB, where building the lattice first peaked at
    # 17.7 MiB and the stream into a frontier dict at 13.4 MiB
    tracemalloc.start()
    try:
        code = main(["mobius", "--family", "dowling", "--n", "7", "--s", "2"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert capsys.readouterr().out == "-135135\n"
    assert peak < 12.5 * 2**20
