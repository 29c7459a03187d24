import random

from hypothesis import given, strategies as st

from cca.perms import (identity, is_perm, pconj, pinv, pmul, porder, ppow,
                       reader)


def rand_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


perms = st.integers(min_value=1, max_value=9).flatmap(
    lambda n: st.permutations(list(range(n))).map(tuple))


def test_identity_and_is_perm():
    assert identity(4) == (0, 1, 2, 3)
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))


def test_product_applies_left_factor_first():
    a = (1, 2, 0)   # 0 -> 1
    b = (0, 2, 1)   # 1 -> 2
    assert pmul(a, b)[0] == b[a[0]] == 2


@given(perms)
def test_inverse(a):
    n = len(a)
    assert pmul(a, pinv(a)) == identity(n)
    assert pmul(pinv(a), a) == identity(n)


def test_associativity_random():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(2, 10)
        a, b, c = (rand_perm(rng, n) for _ in range(3))
        assert pmul(pmul(a, b), c) == pmul(a, pmul(b, c))


@given(perms, st.integers(min_value=-8, max_value=8))
def test_power_matches_repeated_product(a, k):
    n = len(a)
    expect = identity(n)
    step = a if k >= 0 else pinv(a)
    for _ in range(abs(k)):
        expect = pmul(expect, step)
    assert ppow(a, k) == expect


@given(perms)
def test_order(a):
    o = porder(a)
    assert ppow(a, o) == identity(len(a))
    for d in range(1, o):
        if o % d == 0:
            assert ppow(a, d) != identity(len(a)) or d == o


def test_conjugation():
    g = (1, 0, 2)
    h = (0, 2, 1)
    assert pconj(g, h) == pmul(pmul(pinv(h), g), h)
    # conjugation by h relabels the moved points through h
    assert pconj(g, h) == (2, 1, 0)


def genexpr_pmul(a, b):
    """The product by a generator expression over a's images."""
    return tuple(b[x] for x in a)


def test_low_degree_products_are_tuples():
    assert pmul((), ()) == ()
    assert pmul((0,), (0,)) == (0,)
    for a in ((0, 1), (1, 0)):
        for b in ((0, 1), (1, 0)):
            assert pmul(a, b) == genexpr_pmul(a, b)
            assert type(pmul(a, b)) is tuple
    assert pconj((1, 0), (1, 0)) == (1, 0)
    assert ppow((1, 0), 3) == (1, 0)


def test_reader_returns_a_tuple_for_any_number_of_points():
    # itemgetter takes no empty list and returns a bare value for one point
    p = (4, 3, 2, 1, 0)
    for points in ([], [2], (3,), [0, 4], (1, 2, 3), range(5)):
        read = reader(points)
        assert read(p) == genexpr_pmul(points, p)
        assert type(read(p)) is tuple
        assert type(read(list(p))) is tuple
    assert reader([])(p) == ()
    assert reader([2])(p) == (2,)
    assert reader([0, 4])(p) == (4, 0)


def test_product_matches_genexpr_seeded():
    rng = random.Random(3)
    for n in list(range(1, 12)) + [21, 42, 168]:
        for _ in range(20):
            a, b = rand_perm(rng, n), rand_perm(rng, n)
            assert pmul(a, b) == genexpr_pmul(a, b)
            assert pmul(a, list(b)) == genexpr_pmul(a, b)
