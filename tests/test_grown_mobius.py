"""The growth stream fed straight into the Mobius walk against the built
lattice it replaces on every mu-only path.

`mobius`, `identities.d_rk_mu`, `check_mu_series` and `_restricted_mu` no
longer build a lattice: `structures.grown_mobius` hands the steps of the
growth (an element's key and the keys of its up covers) to
`poset.mobius_walk`, from the virtual 0-hat whose up covers are the seeds
when a 0-hat is adjoined.  The oracle is the path it replaced, still the
build path of `lattice` and `el-check`: the built poset and
`poset.mobius_table` from its bottom.  Each family of `cli.FAMILIES` is
checked at every size where the build is cheap: mu(0-hat, z) and "z has no
up cover" of every element in placement order, mu(0-hat, 1-hat) or the same
PosetError, and the guard.  A growth that lists a pair that is not a cover
makes `mobius` exit 3 rather than print a number.
"""

from itertools import combinations

import pytest

from expdowling import cli, identities, structures
from expdowling.poset import PosetError, mobius_table, top_mu
from expdowling.structures import GuardError, grown_mobius


def family_cases():
    """(family, arguments) of every case, each a size where building is cheap."""
    cases = [("pi", (m,)) for m in range(1, 8)]
    cases += [("dowling", (n, s)) for n in range(0, 5) for s in (1, 2, 3)]
    cases += [("pi-r", (m, r)) for m in range(1, 9) for r in range(1, m + 1) if m % r == 0]
    cases += [("pi-rj", (m, r, j)) for m in range(1, 8) for r in range(1, m + 1)
              for j in range(0, m + 1) if (m - j) % r == 0 and (r > 1 or m < 7)]
    cases += [("q-r", (n, r)) for r in range(1, 5) for n in range(1, 8 // r + 1)]
    cases += [("d-rk", (n, r, k, s)) for s in (1, 2) for r in (1, 2, 3) for k in range(0, 4)
              for n in range(0, 4) if r * n + k <= 6]
    sets = [frozenset(c) for size in (1, 2, 3) for c in combinations(range(1, 6), size)]
    cases += [("q-I", (n, I)) for n in range(1, 7) for I in sets]
    cases += [("q-I", (7, frozenset({2, 3}))), ("q-I", (8, frozenset({1, 2, 3})))]
    zeros = [frozenset({0}), frozenset({1}), frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 1, 4})]
    cases += [("r-IJ", (n, s, I, J)) for n in range(0, 5) for s in (1, 2)
              for I in (frozenset({1}), frozenset({2}), frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}))
              for J in zeros]
    return cases


CASES = family_cases()


def built_and_family(family, args):
    builder, maker, _ = cli.FAMILIES[family]
    return getattr(structures, builder)(*args), getattr(structures, maker)(*args)


def far_pairs(built, family_value):
    """The cover pairs of a built family that drop several block counts."""
    code, covers_up = family_value.code, built.poset.covers_up
    blocks = [code.count_blocks(c) for c in built.codes]
    return sum(blocks[x] - blocks[y] > 1 for x in range(len(blocks)) for y in covers_up[x]
               if y < len(blocks))


def built_walk(built):
    """[(mu(0-hat, z), z has no up cover)] of the built lattice in the order
    of the stream: the 0-hat, then every element by index."""
    P = built.poset
    bottom = P.bottom if built.bottom is None else built.bottom
    table = mobius_table(P, bottom)
    order = [bottom] + [i for i in range(len(built.codes)) if i != bottom]
    return [(table[z], not P.covers_up[z]) for z in order]


@pytest.mark.parametrize("family,args", CASES, ids=[f"{f}{a}" for f, a in CASES])
def test_stream_matches_built_table(family, args):
    built, family_value = built_and_family(family, args)
    try:
        expected = built_walk(built)
    except PosetError as exc:  # several minimal elements and no 0-hat adjoined
        with pytest.raises(PosetError, match=str(exc)):
            grown_mobius(family_value)
        return
    assert [(mu, maximal) for _, mu, maximal in grown_mobius(family_value)] == expected
    try:
        mu = built.mu
    except PosetError as exc:  # several maximal elements
        with pytest.raises(PosetError, match=str(exc)):
            identities.grown_mu(family_value)
        return
    assert identities.grown_mu(family_value) == mu


def test_cases_cover_far_moves_and_one_seed_and_one_element():
    # covers that drop several block counts (Q^I and R^{I,J} without the
    # semigroup condition), an adjoined 0-hat over one seed (D^(r,k) at
    # n = 0), and the one-element lattices Pi_1 and L_0(s)
    far = [(f, a) for f, a in CASES
           if f in ("q-I", "r-IJ") and far_pairs(*built_and_family(f, a)) > 0]
    assert ("q-I", (4, frozenset({1, 3}))) in far  # three singletons merge at once
    assert any(f == "r-IJ" for f, _ in far)
    for family, args in [("d-rk", (0, 1, 2, 1)), ("d-rk", (0, 2, 3, 2))]:
        built, family_value = built_and_family(family, args)
        assert family_value.zero and len(built.poset.covers_up[built.bottom]) == 1
    for family, args in [("pi", (1,)), ("dowling", (0, 2))]:
        built, family_value = built_and_family(family, args)
        assert built.poset.n == 1
        assert list(grown_mobius(family_value)) == [(0, 1, True)]


def test_r_IJ_with_many_far_covers():
    # R_7^{{1,2,3},{1,3,7}}(2): 8,794 elements with its 0-hat, 2,100 of them
    # with a cover that drops several block counts; `mobius` prints -64
    family_value = structures.restricted_dowling_family(7, 2, frozenset({1, 2, 3}), frozenset({1, 3, 7}))
    assert identities.grown_mu(family_value) == -64


def test_mobius_exits_3_on_an_injected_redundant_cover(monkeypatch, capsys):
    # the first element stepped that has a near cover y with near covers of
    # its own also lists one of those, z, as a far cover: x <| y <| z with
    # (x, z) handed over too, which the walk must refuse, not subtract away
    covers = structures.BlockCode.covers
    injected = []

    def with_redundant(code, x):
        count, near, far = covers(code, x)
        if not injected:
            for y in near:
                above = covers(code, y)[1]
                if above:
                    injected.append(above[0])
                    return count, near, [*far, (count - 2, above[0])]
        return count, near, far

    monkeypatch.setattr(structures.BlockCode, "covers", with_redundant)
    argv = ["mobius", "--family", "r-IJ", "--n", "5", "--s", "2", "--I", "1,2,3", "--J", "1,3,5"]
    assert cli.main(argv) == cli.EXIT_INTERNAL
    assert injected
    out, err = capsys.readouterr()
    assert out == ""
    assert "PosetError" in err and "not a cover" in err


def test_no_unique_top_raises_the_poset_error():
    # Q_4^{2}: the three perfect matchings of [4] over an adjoined 0-hat
    built, family_value = built_and_family("q-I", (4, frozenset({2})))
    with pytest.raises(PosetError, match="no unique maximal element"):
        built.poset.top
    with pytest.raises(PosetError, match="no unique maximal element"):
        identities.grown_mu(family_value)
    # Q^(2)_2 has no 0-hat adjoined and three minimal elements
    with pytest.raises(PosetError, match="no unique minimal element"):
        identities.grown_mu(structures.Q_r_family(2, 2))


@pytest.mark.parametrize("family,args", [
    ("pi", (5,)), ("dowling", (3, 2)), ("d-rk", (2, 2, 1, 2)), ("q-I", (7, frozenset({2, 3}))),
    ("r-IJ", (4, 2, frozenset({1, 2}), frozenset({0, 2}))), ("q-r", (3, 1)),
])
def test_guard_counts_the_same_elements_on_both_paths(family, args):
    built, family_value = built_and_family(family, args)
    size = len(built.codes)  # the adjoined 0-hat is not counted
    builder = getattr(structures, cli.FAMILIES[family][0])
    assert builder(*args, guard=size).poset.n == built.poset.n
    list(grown_mobius(family_value, guard=size))
    with pytest.raises(GuardError):
        builder(*args, guard=size - 1)
    with pytest.raises(GuardError):
        list(grown_mobius(family_value, guard=size - 1))


@pytest.mark.parametrize("n,s,I,J", [
    (n, s, I, J)
    for n in range(0, 7)
    for s, J in [(1, None), (1, frozenset({1})), (2, frozenset({0, 2})), (2, frozenset({1, 3}))]
    for I in (frozenset({2}), frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3}), frozenset({2, 4, 6}))
    if J is not None or n >= 1
])
def test_restricted_sums_match_the_built_table(n, s, I, J):
    # m_n and p_n sum mu(0-hat, z) over every z, the 0-hat included; mu is
    # read only when n is in I (Q^I) or J (R^{I,J}), where the top is unique
    if J is None:
        built = structures.build_restricted_partition(n, I)
    else:
        built = structures.build_restricted_dowling(n, s, I, J)
    table = mobius_table(built.poset, built.bottom)
    mu = table[built.poset.top] if n in (I if J is None else J) else 0
    assert identities._restricted_mu(n, s, I, J) == (mu, sum(table.values()))


def test_top_mu_reads_the_maximal_steps():
    assert top_mu([(0, 1, False), (1, -1, False), (2, 0, True)]) == 0
    with pytest.raises(PosetError, match="no unique maximal element"):
        top_mu([(0, 1, False), (1, -1, True), (2, -1, True)])
