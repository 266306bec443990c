"""Property, below the CLI: whatever containers, symbols and indices `decode`,
`local_repair` and `is_correctable` get, only MrCodesError subclasses
escape, an index that is not an int (bools and floats included) is refused
with BadParams, and so is a number, None, a mapping or an iterator where
the codec wants a sequence of symbols, or a number or None where a
collection of indices belongs; on a real codeword, a correctable erasure
set (drawn as (group, position) pairs mapped through the code's repair
groups) decodes to the message and `local_repair` returns the erased
symbol.  A q, r, target_n, trial count or seed that is not an
int, or a p that is not a real number (bools refused for both), is
BadParams where it enters `make_field`, `construct`, `choose_params`,
`simulate`, `verify_mr` or `exact_failure_probability`.
Whatever JSON values replace keys of a valid spec, `code_from_dict` raises
only MrCodesError subclasses (the unmodified spec's round trip is
`tests/test_cli.py::test_spec_round_trip[r2-q101]`)."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from mrcodes.codespec import code_from_dict, code_to_dict
from mrcodes.errors import BadParams, MrCodesError, MultipleErasuresInGroup, NotCorrectable
from mrcodes.field import make_field
from mrcodes.mrcode import decode, encode, is_correctable, local_repair, verify_mr
from mrcodes.pipeline import choose_params, construct, exact_failure_probability, simulate

_FUZZ = settings(deadline=None, max_examples=150, derandomize=True)


@pytest.fixture(scope="module")
def code():
    """The (2, 101) code."""
    return construct(2, 101)[0]


_symbols = st.one_of(st.none(), st.integers(-3, 104), st.integers(),
                     st.sampled_from([True, 1.5, math.nan, "7", b"7", [7], {},
                                      make_field(101).element(7), make_field(13).element(7)]))
# containers that hold no symbols by position: numbers, None, mappings, iterators
_not_a_sequence = st.one_of(st.integers(), st.none(),
                            st.dictionaries(st.integers(-1, 8), _symbols, max_size=8),
                            st.lists(_symbols, max_size=8).map(lambda xs: (x for x in xs)))
_received = st.one_of(st.lists(_symbols, min_size=6, max_size=6), st.lists(_symbols, max_size=8),
                      _not_a_sequence)
_not_int = st.one_of(st.booleans(), st.floats(), st.text(max_size=2),
                    st.sampled_from([1.0, 0.0, "1", None, (1,), [1]]))
_index = st.one_of(st.integers(-8, 8), st.integers(), _not_int)
_not_real = st.one_of(st.booleans(), st.none(), st.text(max_size=3), st.complex_numbers(),
                      st.sampled_from(["0.1", b"0", [0.1], (0,), {}]))


@_FUZZ
@given(received=_received, index=_index,
       indices=st.one_of(st.lists(_index, max_size=8), _not_a_sequence))
def test_only_typed_errors_escape(code, received, index, indices):
    for call in (lambda: decode(code, received),
                 lambda: local_repair(code, received, index),
                 lambda: is_correctable(code, indices)):
        try:
            call()
        except MrCodesError:
            pass


@_FUZZ
@given(bad=_not_int)
def test_non_int_indices_are_bad_params(code, bad):
    codeword = [s.value for s in encode(code, [1, 2, 3])]
    for call in (lambda: local_repair(code, codeword, bad),
                 lambda: is_correctable(code, [bad])):
        with pytest.raises(BadParams):
            call()


@_FUZZ
@given(bad=_not_int, p=_not_real)
def test_wrong_typed_parameters_are_bad_params(code, bad, p):
    calls = [lambda: make_field(bad), lambda: construct(2, bad), lambda: construct(bad, 101),
             lambda: choose_params(bad, 101), lambda: simulate(code, p, 10, 0), lambda: simulate(code, 0.1, bad, 0),
             lambda: exact_failure_probability(code, p), lambda: simulate(code, 0.1, 10, bad),
             lambda: verify_mr(code, mode=bad)]
    if bad is not None:  # target_n=None asks for no target
        calls.append(lambda: construct(2, 101, target_n=bad))
    for call in calls:
        with pytest.raises(BadParams):
            call()


@_FUZZ
@given(bad=_not_a_sequence)
def test_wrong_containers_are_bad_params(code, bad):
    calls = [lambda: encode(code, bad), lambda: decode(code, bad),
             lambda: local_repair(code, bad, 0)]
    if bad is None or type(bad) is int:  # any other container may iterate indices
        calls.append(lambda: is_correctable(code, bad))
    for call in calls:
        with pytest.raises(BadParams):
            call()


@_FUZZ
@given(message=st.lists(st.integers(0, 100), min_size=3, max_size=3),
       pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2)), unique=True, max_size=6))
def test_real_codewords_decode_and_repair(code, message, pairs):
    erased = frozenset(code.repair_groups[g][p] for g, p in pairs)
    assert len(erased) == len(pairs)  # the groups split the columns
    codeword = [s.value for s in encode(code, message)]
    received = [None if j in erased else s for j, s in enumerate(codeword)]
    for g, p in pairs:
        j = code.repair_groups[g][p]
        if len(erased.intersection(code.repair_groups[g])) == 1:
            assert local_repair(code, received, j).value == codeword[j]
        else:
            with pytest.raises(MultipleErasuresInGroup):
                local_repair(code, received, j)
    if is_correctable(code, erased):
        assert [s.value for s in decode(code, received)] == message
    else:
        with pytest.raises(NotCorrectable):
            decode(code, received)


_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)


@_FUZZ
@given(data=st.data())
def test_spec_values_only_typed_errors(code, data):
    """Replace one to four keys of the (2, 101) spec, nested ones first,
    with arbitrary JSON."""
    spec = code_to_dict(code)
    paths = [(key,) for key in sorted(spec)] + [("lambda", "num"), ("delta", "den"),
                                               ("D", 0), ("G", 1), ("D_alon_meta",)]
    doc = json.loads(json.dumps(spec))
    chosen = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4, unique=True))
    for path in sorted(chosen, key=len, reverse=True):
        target = doc
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = data.draw(_json)
    try:
        code_from_dict(doc)
    except MrCodesError:
        pass
