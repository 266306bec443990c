"""Property, below the CLI: whatever lists, symbols and int indices `decode`,
`local_repair`, `is_correctable` and `ErasurePattern.from_group_positions`
get, only MrCodesError subclasses escape; on a real codeword, a correctable
erasure set decodes to the message and `local_repair` returns the erased
symbol."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from mrcodes.errors import MrCodesError, MultipleErasuresInGroup, NotCorrectable
from mrcodes.field import make_field
from mrcodes.mrcode import ErasurePattern, decode, encode, is_correctable, local_repair
from mrcodes.pipeline import construct

_FUZZ = settings(deadline=None, max_examples=150, derandomize=True)


@pytest.fixture(scope="module")
def codes():
    """The (2, 101) code, and the same G with its groups listed out of order."""
    code = construct(2, 101)[0]
    permuted = type(code)(field=code.field, family=code.family, r=2, n=6, k=3,
                          G=code.G, repair_groups=((2, 1, 0), (5, 3, 4)))
    return code, permuted


_symbols = st.one_of(st.none(), st.integers(-3, 104), st.integers(),
                     st.sampled_from([True, 1.5, math.nan, "7", b"7", [7], {},
                                      make_field(101).element(7), make_field(13).element(7)]))
_received = st.one_of(st.lists(_symbols, min_size=6, max_size=6), st.lists(_symbols, max_size=8))
_index = st.one_of(st.integers(-8, 8), st.integers())


@_FUZZ
@given(which=st.integers(0, 1), received=_received, index=_index,
       indices=st.lists(_index, max_size=8), pairs=st.lists(st.tuples(_index, _index), max_size=4))
def test_only_typed_errors_escape(codes, which, received, index, indices, pairs):
    code = codes[which]
    for call in (lambda: decode(code, received),
                 lambda: local_repair(code, received, index),
                 lambda: is_correctable(code, indices),
                 lambda: is_correctable(code, ErasurePattern.from_group_positions(pairs, code))):
        try:
            call()
        except MrCodesError:
            pass


@_FUZZ
@given(which=st.integers(0, 1), message=st.lists(st.integers(0, 100), min_size=3, max_size=3),
       pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), unique=True, max_size=6))
def test_real_codewords_decode_and_repair(codes, which, message, pairs):
    code = codes[which]
    erased = ErasurePattern.from_group_positions(pairs, code).erased
    assert erased == {code.repair_groups[g][p] for g, p in pairs}
    codeword = [s.value for s in encode(code, message)]
    received = [None if j in erased else s for j, s in enumerate(codeword)]
    for j in erased:
        if len(erased.intersection(code.repair_groups[code.group_of(j)])) == 1:
            assert local_repair(code, received, j).value == codeword[j]
        else:
            with pytest.raises(MultipleErasuresInGroup):
                local_repair(code, received, j)
    if is_correctable(code, erased):
        assert [s.value for s in decode(code, received)] == message
    else:
        with pytest.raises(NotCorrectable):
            decode(code, received)
