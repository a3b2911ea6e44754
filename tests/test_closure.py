"""The posets made by cover growth and by adjoining a 0-hat, against the
same covers rebuilt from scratch and against the eager closure they
replaced.

Oracle notes.
[ORACLE] `from_covers` of a grown poset's own cover pairs: it checks and
deduplicates the pairs and finds a linear extension by Kahn's sort,
independently of the growth pass.
[ORACLE] `oracles.assert_matches_eager`: the former eager closure and
popcount-ordered Mobius sweep (see `oracles`), compared on every structure
a poset derives and on its Mobius tables from every element.
[ORACLE] `oracle_adjoin` is the former `adjoin_zero` closure, kept verbatim:
the covers of P plus one cover from the new bottom to each minimal element,
closed again from scratch by `from_covers`.
"""

from types import SimpleNamespace

import pytest
from oracles import assert_matches_eager, extended_to_dowling

from expdowling import structures
from expdowling.cli import EXIT_INTERNAL, main
from expdowling.poset import PosetError, adjoin_bottom, close_order, from_covers


def cover_pairs(P):
    return [(x, y) for x in range(P.n) for y in P.covers_up[x]]


def oracle_adjoin(P):
    V = P.n
    edges = cover_pairs(P)
    edges.extend((V, m) for m in P.minimals)
    return from_covers(V + 1, edges)


def assert_same_poset(P, Q):
    assert P.n == Q.n
    assert P.covers_up == Q.covers_up
    assert P.covers_down == Q.covers_down
    assert P.down_rows == Q.down_rows
    assert P.rank == Q.rank
    assert P.minimals == Q.minimals
    assert P.maximals == Q.maximals
    assert P.up_rows == Q.up_rows
    assert sorted(P.topo) == list(range(P.n))
    where = {x: i for i, x in enumerate(P.topo)}
    assert all(where[x] < where[y] for x, y in cover_pairs(P))


# (builder, arguments) over small grids of all 8 families; Q_7^{2} and
# R_4^{{2,4},{1,3}} are empty, Q_6^{1,2,3,6} is not graded, and
# Q_6^{2,...,6} and R_5^{{2,...,5},{1,...,5}} grow from seeds of two block
# counts
FAMILIES = (
    [("build_partition_lattice", (m,)) for m in range(1, 7)]
    + [("build_dowling_lattice", (n, s)) for n in range(0, 5) for s in (1, 2, 3) if n + s <= 6]
    + [("build_r_divisible", (m, r)) for m in range(1, 9) for r in range(1, m + 1)
       if m % r == 0 and (r > 1 or m <= 6)]
    + [("build_extended", (m, r, j)) for m in range(1, 8) for r in range(1, m + 1)
       for j in range(m % r, m + 1, r) if r > 1 or m <= 6]
    + [("build_Q_r", (n, r)) for r in range(1, 5) for n in range(1, 8 // r + 1) if r > 1 or n <= 6]
    + [("build_D_rk", ((total - k) // r, r, k, s)) for s in (1, 2) for total in range(0, 6)
       for r in range(1, max(total, 1) + 1) for k in range(total % r, total + 1, r)]
    + [("build_restricted_partition", (n, frozenset(I)))
       for n, I in [(7, {2}), (6, {1, 2, 3, 6}), (6, {2, 3, 6}), (7, {2, 3}), (5, {1, 2, 5}),
                    (6, {2, 3, 4, 5, 6})]]
    + [("build_restricted_dowling", (n, s, frozenset(I), frozenset(J)))
       for n, s, I, J in [(4, 1, {2, 4}, {1, 3}), (4, 2, {1, 2}, {0, 2}), (3, 1, {1, 3}, {0, 3}),
                          (4, 1, {1, 2}, {0, 1, 2}), (5, 2, {2, 3, 4, 5}, {1, 2, 3, 4, 5})]]
)


@pytest.fixture
def made(monkeypatch):
    """The posets a build closes while growing, and (input, output) of each
    adjoined 0-hat."""
    grown, adjoined = [], []

    def close(*args):
        grown.append(close_order(*args))
        return grown[-1]

    def adjoin(P):
        adjoined.append((P, adjoin_bottom(P)))
        return adjoined[-1][1]

    monkeypatch.setattr(structures, "close_order", close)
    monkeypatch.setattr(structures, "adjoin_bottom", adjoin)
    return grown, adjoined


@pytest.mark.parametrize("builder,args", FAMILIES,
                         ids=[f"{b}{a}" for b, a in FAMILIES])
def test_grown_and_adjoined_closures_match_full_rebuild(made, builder, args):
    built = getattr(structures, builder)(*args)
    grown, adjoined = made
    for P in grown:
        assert_same_poset(P, from_covers(P.n, cover_pairs(P)))
        assert_matches_eager(P)
    for P, Q in adjoined:
        assert_same_poset(Q, oracle_adjoin(P))
        assert_matches_eager(Q)
    assert len(adjoined) == (built.bottom is not None)
    assert any(built.poset is P for P in grown + [Q for _, Q in adjoined])


def test_adjoined_empty_and_ungraded_families():
    empty = structures.build_restricted_partition(7, frozenset({2}))
    assert empty.elements == ()
    assert (empty.poset.n, empty.poset.rank, empty.bottom) == (1, (0,), 0)
    assert empty.poset.minimals == empty.poset.maximals == (0,)
    ungraded = structures.build_restricted_partition(6, frozenset({1, 2, 3, 6}))
    assert ungraded.poset.rank is None


def chain(x):
    return {x + 1} if x < 3 else set()


def toy_code(covers, level=lambda x: -x):
    """What `_grow` reads of a BlockCode: the level of each element, the
    moves `covers`, each meant for the next level, and codes that are their
    own elements."""
    return SimpleNamespace(covers=lambda x: (level(x), covers(x), ()), count_blocks=level,
                           decode_all=tuple)


@pytest.mark.parametrize("covers_fn,level", [
    (lambda x: chain(x) or {0}, lambda x: -x),  # the top moves back to the seed
    # 1 and 2 share a level, and 2 moves to 1, placed before it
    (lambda x: {0: {1, 2}, 2: {1}}.get(x, set()), lambda x: -min(x, 1)),
    (lambda x: {x}, lambda x: -x),  # every element covers itself
], ids=["to-seed", "to-earlier", "to-itself"])
def test_grow_rejects_moves_back(covers_fn, level):
    with pytest.raises(PosetError, match="goes back"):
        structures._grow([0], toy_code(covers_fn, level), guard=100)


def test_grow_accepts_forward_moves():
    built = structures._grow([0], toy_code(chain), guard=100)
    assert built.poset.covers_up == ((1,), (2,), (3,), ())
    assert built.poset.rank == (0, 1, 2, 3)


@pytest.mark.parametrize("command", ["lattice", "mobius"])
def test_move_back_through_cli_is_internal(capsys, monkeypatch, command):
    # the top of Pi_3 "covered" by its bottom, injected through the integer
    # cover moves: a fault of the program, not bad usage and not a pass
    moves = structures.BlockCode.covers

    def back_to_bottom(self, code):
        m = self.n + 1
        bottom = extended_to_dowling(tuple((e,) for e in range(1, m + 1)), m)
        level, near, far = moves(self, code)
        return level, near or [self.encode(bottom)], far

    monkeypatch.setattr(structures.BlockCode, "covers", back_to_bottom)
    code = main([command, "--family", "pi", "--m", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL
    assert captured.out == ""
    assert "goes back" in captured.err
