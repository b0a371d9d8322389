from hypothesis import given, settings
from hypothesis import strategies as st

from racepred.vclock import join_into, leq, render

vectors = st.lists(st.integers(min_value=0, max_value=6), max_size=6).map(tuple)
BOTTOM = ()


def join(a, b):
    """Pointwise max through join_into, as a new tuple."""
    out = list(a)
    join_into(out, b)
    return tuple(out)


def trim(v):
    """Canonical form: trailing zeros dropped."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return tuple(v)


def test_leq_bottom_below_everything():
    assert leq(BOTTOM, (3, 1, 4))
    assert leq(BOTTOM, BOTTOM)


def test_leq_incomparable_pair():
    assert not leq((1, 0), (0, 1))
    assert not leq((0, 1), (1, 0))


def test_leq_pointwise():
    assert leq((1, 1), (2, 1))
    assert not leq((2, 1), (1, 1))


def test_leq_width_extension():
    assert leq((1, 0, 0), (1,))
    assert not leq((1, 0, 1), (1,))


def test_join_pointwise_max():
    assert join((1, 2), (2, 1)) == (2, 2)


def test_join_identity_and_idempotence():
    v = (3, 0, 2)
    assert trim(join(v, BOTTOM)) == trim(v)
    assert join(v, v) == v


def test_join_into_grows():
    dst = [1, 0]
    join_into(dst, (0, 2, 3))
    assert dst == [1, 2, 3]


def test_render():
    assert render((1, 0, 2)) == "[1,0,2]"
    assert render(()) == "[]"


@given(vectors, vectors)
def test_join_commutative(a, b):
    assert join(a, b) == join(b, a)


@given(vectors, vectors, vectors)
@settings(deadline=None)
def test_join_associative(a, b, c):
    assert trim(join(join(a, b), c)) == trim(join(a, join(b, c)))


@given(vectors, vectors)
def test_leq_iff_join_absorbed(a, b):
    assert leq(a, b) == (trim(join(a, b)) == trim(b))


@given(vectors, vectors, vectors)
@settings(deadline=None)
def test_leq_partial_order(a, b, c):
    assert leq(a, a)
    if leq(a, b) and leq(b, c):
        assert leq(a, c)
    if leq(a, b) and leq(b, a):
        assert trim(a) == trim(b)
