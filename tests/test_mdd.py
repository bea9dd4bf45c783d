"""Property tests for the multi-valued (MDD) layer.

Encode/decode round-trips, domain-predicate model counts and frame
conditions are checked against brute-force enumeration over random
domain vectors, given both as the numpy array ``StateSpace.radices``
holds and as a plain list of Python ints — the MDD layer is the contract
``symbolic.encode`` now builds on, so its validity story (invalid bit
patterns of non-power-of-two domains never leak into counts or frames)
is what keeps every state count in the engine honest.
"""

import itertools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import ONE, ZERO
from repro.bdd.mdd import MDD, bits_for
from repro.protocol.state_space import STATE_DTYPE

DOMAINS = st.lists(st.integers(2, 6), min_size=1, max_size=3)
#: "array": a numpy integer vector, the form ``StateSpace.radices`` and
#: decoded state arrays take; "reference": a plain list of Python ints
FORMS = ("array", "reference")


def as_form(form, ints):
    if form == "array":
        return np.array(ints, dtype=STATE_DTYPE)
    return list(ints)


@pytest.mark.parametrize("form", FORMS)
@given(domains=DOMAINS, data=st.data())
@settings(max_examples=60, deadline=None)
def test_encode_decode_round_trip(form, domains, data):
    mdd = MDD(as_form(form, domains))
    values = tuple(
        data.draw(st.integers(0, d - 1), label=f"v{i}")
        for i, d in enumerate(domains)
    )
    cube = mdd.encode(as_form(form, values))
    model = mdd.bdd.pick(cube)
    assert model is not None
    assert mdd.decode(model) == values
    # the cube is a single in-domain assignment
    assert mdd.count_assignments(cube) == 1


@pytest.mark.parametrize("form", FORMS)
@given(domains=DOMAINS)
@settings(max_examples=40, deadline=None)
def test_valid_counts_exactly_the_domain_product(form, domains):
    mdd = MDD(as_form(form, domains))
    product = 1
    for d in domains:
        product *= d
    assert mdd.count_assignments(mdd.valid()) == product
    # every domain cube counts its own domain, all other bits free
    for i, d in enumerate(domains):
        others = sum(b for j, b in enumerate(mdd.n_bits) if j != i)
        assert mdd.bdd.count_sat(mdd.domain_cube(i)) == d << others


@pytest.mark.parametrize("form", FORMS)
@given(domains=DOMAINS)
@settings(max_examples=30, deadline=None)
def test_domain_cube_matches_enumeration(form, domains):
    """The threshold-ladder construction equals the or-of-value-cubes
    construction node for node (canonicity makes this an id check)."""
    mdd = MDD(as_form(form, domains))
    for i, d in enumerate(domains):
        enumerated = mdd.bdd.or_all(
            mdd.value_cube(i, v) for v in range(d)
        )
        assert mdd.domain_cube(i) == enumerated


@pytest.mark.parametrize("form", FORMS)
@given(domains=DOMAINS)
@settings(max_examples=30, deadline=None)
def test_unchanged_matches_enumeration(form, domains):
    """The bit-equality ladder equals the or-of-pair-cubes construction,
    including the exclusion of out-of-domain pairs."""
    mdd = MDD(as_form(form, domains), pairs=True)
    for i, d in enumerate(domains):
        enumerated = mdd.bdd.or_all(
            mdd.bdd.and_(
                mdd.value_cube(i, v), mdd.value_cube(i, v, primed=True)
            )
            for v in range(d)
        )
        assert mdd.unchanged(i) == enumerated


@pytest.mark.parametrize("form", FORMS)
def test_eq_is_cached_and_symmetric(form):
    mdd = MDD(as_form(form, [3, 5, 4]))
    assert mdd.eq(0, 1) == mdd.eq(1, 0)
    # brute force: count of in-domain pairs with equal values, free bits
    # of the third variable included by count_assignments' valid() mask
    eq01 = mdd.bdd.and_(mdd.eq(0, 1), mdd.valid())
    assert mdd.count_assignments(eq01) == 3 * 4  # min(3,5) matches x 4 free


def test_primed_layout_is_interleaved():
    mdd = MDD([3, 3], pairs=True)
    assert mdd.cur_levels == [[0, 2], [4, 6]]
    assert mdd.next_levels == [[1, 3], [5, 7]]
    # primed encode/decode round-trips through the primed bits
    cube = mdd.encode([2, 1], primed=True)
    model = mdd.bdd.pick(cube)
    assert mdd.decode(model, primed=True) == (2, 1)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        MDD([0])
    with pytest.raises(ValueError):
        MDD([2, 2], names=["only-one"])
    mdd = MDD([3])
    with pytest.raises(ValueError):
        mdd.value_cube(0, 3)
    with pytest.raises(ValueError):
        mdd.encode([3])
    with pytest.raises(ValueError):
        mdd.encode([0, 0])
    with pytest.raises(ValueError):
        mdd.unchanged(0)  # pairs=False


def test_bits_for():
    assert [bits_for(d) for d in (1, 2, 3, 4, 5, 8, 9)] == [1, 1, 2, 2, 3, 3, 4]
