"""Tests for the program model: ops, thread state, compute algebra."""

import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.machine.program import (
    Op,
    OpKind,
    Program,
    ThreadState,
    _affine_power,
    compute_mix,
)


class TestOpValidation:
    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            Op(OpKind.LOAD, address=-1)

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError):
            Op(OpKind.COMPUTE, count=0)

    def test_default_fields(self):
        op = Op(OpKind.LOAD, address=5)
        assert op.value is None
        assert op.count == 1

    def test_ops_are_hashable_and_frozen(self):
        op = Op(OpKind.STORE, address=1, value=2)
        assert hash(op) == hash(Op(OpKind.STORE, address=1, value=2))
        with pytest.raises(AttributeError):
            op.address = 9


_FIELD_ORDER = ["kind", "address", "value", "count"]

_op_fields = st.tuples(
    st.sampled_from(list(OpKind)),
    st.integers(min_value=0, max_value=1 << 40),
    st.none() | st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=1, max_value=1 << 20))


class TestOpConstruction:
    """The hand-written constructor keeps everything the generated
    dataclass one gave: the pickle state (and so every stored byte),
    equality, hashing, repr, immutability, ``replace`` and both
    validation errors."""

    @given(_op_fields)
    def test_pickle_state_is_the_fields_in_field_order(self, fields):
        op = Op(*fields)
        state = op.__reduce_ex__(4)[2]
        assert type(state) is dict
        assert list(state) == _FIELD_ORDER
        assert list(state.values()) == list(fields)

    @given(_op_fields)
    def test_keyword_and_positional_construction_agree(self, fields):
        kind, address, value, count = fields
        op = Op(kind, address=address, value=value, count=count)
        assert op == Op(*fields)
        assert pickle.dumps(op, 4) == pickle.dumps(Op(*fields), 4)

    @given(_op_fields)
    def test_pickle_round_trip(self, fields):
        op = Op(*fields)
        copy = pickle.loads(pickle.dumps(op, 4))
        assert copy == op
        assert hash(copy) == hash(op)
        assert list(copy.__dict__) == _FIELD_ORDER

    @given(_op_fields)
    def test_repr(self, fields):
        kind, address, value, count = fields
        assert repr(Op(*fields)) == (
            f"Op(kind={kind!r}, address={address!r}, value={value!r}, "
            f"count={count!r})")

    @given(_op_fields, st.sampled_from(_FIELD_ORDER))
    def test_assignment_raises_frozen_instance_error(self, fields, name):
        op = Op(*fields)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(op, name)
        assert op == Op(*fields)

    @given(_op_fields, st.integers(min_value=0, max_value=1 << 40))
    def test_replace(self, fields, address):
        op = Op(*fields)
        moved = dataclasses.replace(op, address=address)
        assert moved == Op(fields[0], address, fields[2], fields[3])
        assert list(moved.__dict__) == _FIELD_ORDER
        assert op == Op(*fields)

    @given(_op_fields, st.integers(max_value=-1))
    def test_negative_address_message(self, fields, address):
        kind, _, value, count = fields
        with pytest.raises(ConfigurationError) as error:
            Op(kind, address, value, count)
        assert str(error.value) == (
            f"negative address in Op(kind={kind!r}, address={address!r}, "
            f"value={value!r}, count={count!r})")

    @given(_op_fields, st.integers(max_value=0))
    def test_non_positive_count_message(self, fields, count):
        kind, address, value, _ = fields
        with pytest.raises(ConfigurationError) as error:
            Op(kind, address, value, count)
        assert str(error.value) == (
            f"non-positive count in Op(kind={kind!r}, address={address!r}, "
            f"value={value!r}, count={count!r})")

    def test_dataclass_fields_are_unchanged(self):
        assert [f.name for f in dataclasses.fields(Op)] == _FIELD_ORDER
        assert [f.default for f in dataclasses.fields(Op)][1:] == [
            0, None, 1]


class TestProgramValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[])

    def test_non_op_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            Program(threads=[["not an op"]])

    def test_counts(self):
        program = Program(threads=[
            [Op(OpKind.COMPUTE, count=5)],
            [Op(OpKind.LOAD, address=1), Op(OpKind.STORE, address=2)],
        ])
        assert program.num_threads == 2
        assert program.static_lengths() == [1, 2]
        assert program.total_static_ops() == 3


class TestThreadState:
    def test_snapshot_is_deep_enough(self):
        state = ThreadState(thread_id=0, op_index=3, accumulator=42,
                            retired=100)
        saved = state.snapshot()
        state.op_index = 9
        state.accumulator = 0
        assert saved.op_index == 3
        assert saved.accumulator == 42

    def test_restore_roundtrip(self):
        state = ThreadState(thread_id=1, op_index=2, retired=7,
                            compute_remaining=3, stage=1,
                            barrier_target=16)
        saved = state.snapshot()
        state.op_index = 99
        state.stage = 0
        state.restore(saved)
        assert state.architectural_key() == saved.architectural_key()

    def test_handler_fields_in_key(self):
        plain = ThreadState(thread_id=0)
        handler = ThreadState(thread_id=0,
                              handler_ops=(Op(OpKind.COMPUTE, count=1),),
                              handler_index=0)
        assert plain.architectural_key() != handler.architectural_key()
        assert handler.in_handler
        assert not plain.in_handler

    def test_exhausted_semantics(self):
        state = ThreadState(thread_id=0, finished=True)
        assert state.exhausted
        state.handler_ops = (Op(OpKind.COMPUTE, count=1),)
        assert not state.exhausted  # handler still pending


class TestComputeMix:
    def test_zero_steps_is_identity(self):
        assert compute_mix(12345, 0) == 12345

    def test_one_step_matches_affine_definition(self):
        from repro.machine.program import _AFFINE_A, _AFFINE_C
        x = 999
        assert compute_mix(x, 1) == (x * _AFFINE_A + _AFFINE_C) % (1 << 64)

    def test_matches_naive_iteration(self):
        from repro.machine.program import _AFFINE_A, _AFFINE_C
        value = 7
        for _ in range(123):
            value = (value * _AFFINE_A + _AFFINE_C) % (1 << 64)
        assert compute_mix(7, 123) == value

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=5000),
           st.integers(min_value=0, max_value=5000))
    def test_segmentation_invariance(self, start, first, second):
        """Splitting a compute block anywhere yields the same result.

        This is what lets replay legally split a chunk into
        back-to-back pieces (Section 4.2.3) without perturbing values.
        """
        whole = compute_mix(start, first + second)
        split = compute_mix(compute_mix(start, first), second)
        assert whole == split

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=10000))
    def test_result_stays_in_word_range(self, start, count):
        assert 0 <= compute_mix(start, count) < (1 << 64)


_POWER_COUNTS = sorted({1} | {
    (1 << k) + delta for k in range(1, 21) for delta in (-1, 0, 1)})


class TestAffinePowerMemo:
    """``_affine_power`` is memoized; the cache must be invisible."""

    @pytest.mark.parametrize("count", _POWER_COUNTS)
    def test_memo_equals_fast_doubling_at_powers_of_two(self, count):
        assert _affine_power(count) == _affine_power.__wrapped__(count)
        # A second (cached) lookup returns the same pair.
        assert _affine_power(count) == _affine_power.__wrapped__(count)

    @given(st.integers(min_value=0, max_value=1 << 20))
    def test_memo_equals_fast_doubling(self, count):
        assert _affine_power(count) == _affine_power.__wrapped__(count)

    def test_memo_matches_naive_iteration(self):
        from repro.machine.program import _AFFINE_A
        multiplier, geometric = 1, 0
        for count in range(1, 300):
            geometric = (geometric + multiplier) % (1 << 64)
            multiplier = (multiplier * _AFFINE_A) % (1 << 64)
            assert _affine_power(count) == (multiplier, geometric)

    def test_memo_is_bounded(self):
        maxsize = _affine_power.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
