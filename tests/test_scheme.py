import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bitprobe4.geometry import (
    BlockAddr,
    ElementAddr,
    Params,
    element_from_ordinal,
    line_of,
)
from bitprobe4 import scheme
from bitprobe4.scheme import (
    Assignment,
    CapacityError,
    CaseLabel,
    assign_blocks,
    blocked_status,
    build,
    build_from_ordinals,
    classify,
    group_members,
    query,
)
from bitprobe4.tables import serialize
from .reference import get_bit


def all_blocks(p: Params):
    g = p.grid_side
    return [
        BlockAddr(s, x, y)
        for s in range(1, p.b + 1)
        for y in range(g)
        for x in range(g)
    ]


def subsets(draw_b=st.integers(2, 3)):
    @st.composite
    def strat(draw):
        b = draw(draw_b)
        m = b**6
        size = draw(st.integers(0, 4))
        ordinals = draw(
            st.lists(st.integers(0, m - 1), min_size=size, max_size=size)
        )
        return b, ordinals

    return strat()


class TestGroupMembers:
    def test_empty(self):
        assert group_members(Params(2), []) == {}

    def test_four_members_one_block(self):
        p = Params(4)
        blk = BlockAddr(1, 0, 0)
        grouped = group_members(p, [ElementAddr(blk, i) for i in range(4)])
        assert grouped == {blk: {0, 1, 2, 3}}

    def test_duplicates_collapse(self):
        p = Params(2)
        e = ElementAddr(BlockAddr(1, 2, 3), 1)
        others = [ElementAddr(BlockAddr(2, 0, 0), 0), ElementAddr(BlockAddr(2, 1, 0), 0)]
        grouped = group_members(p, [e, e, e] + others)
        assert grouped[BlockAddr(1, 2, 3)] == {1}
        assert len(grouped) == 3

    def test_capacity_error(self):
        p = Params(2)
        five = [element_from_ordinal(p, n) for n in range(5)]
        with pytest.raises(CapacityError):
            group_members(p, five)

    def test_invalid_address(self):
        with pytest.raises(ValueError):
            group_members(Params(2), [ElementAddr(BlockAddr(1, 9, 0), 0)])

    @pytest.mark.parametrize("bad_first", [False, True])
    def test_invalid_element_beats_capacity(self, bad_first):
        """Five distinct valid elements and one out-of-range element raise
        ValueError, not CapacityError, in either order, on every path."""
        p = Params(2)
        ordinals = [0, 1, 2, 3, 4]
        addrs = [element_from_ordinal(p, n) for n in ordinals]
        bad_ordinal, bad_addr = 64, ElementAddr(BlockAddr(1, 9, 0), 0)
        for call, valid, bad in (
            (build, addrs, bad_addr),
            (group_members, addrs, bad_addr),
            (build_from_ordinals, ordinals, bad_ordinal),
        ):
            items = [bad] + valid if bad_first else valid + [bad]
            with pytest.raises(ValueError) as info:
                call(p, items)
            assert not isinstance(info.value, CapacityError), call.__name__

    @settings(max_examples=200, deadline=None)
    @given(subsets(st.integers(2, 5)))
    def test_ordinals_group_like_addresses(self, case):
        b, ordinals = case
        p = Params(b)
        expected = group_members(p, [element_from_ordinal(p, n) for n in ordinals])
        grouped = scheme._group_ordinals(p, tuple(ordinals))
        assert grouped == expected
        assert all(type(blk) is BlockAddr for blk in grouped)
        addrs = [element_from_ordinal(p, n) for n in ordinals]
        assert serialize(build_from_ordinals(p, iter(ordinals))) == serialize(build(p, addrs))

    @pytest.mark.parametrize(
        "ordinals",
        [(0, 64), (-1,), (5, 1, 2, 3, 4, 99), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5), (7, 7, 1, 2, 3, 4)],
    )
    def test_ordinal_errors_match_build(self, ordinals):
        p = Params(2)
        with pytest.raises(ValueError) as from_build:
            build(p, [element_from_ordinal(p, n) for n in ordinals])
        with pytest.raises(ValueError) as from_ordinals:
            build_from_ordinals(p, iter(ordinals))
        assert type(from_ordinals.value) is type(from_build.value)
        assert str(from_ordinals.value) == str(from_build.value)


class TestBlockedStatus:
    def test_nothing_placed(self):
        asg = Assignment(frozenset(), frozenset())
        assert blocked_status(Params(2), BlockAddr(1, 0, 0), asg) == (False, False)

    def test_b_blocked_by_shared_line(self):
        p = Params(2)
        asg = Assignment(frozenset([BlockAddr(1, 0, 0)]), frozenset())
        st_ = blocked_status(p, BlockAddr(1, 2, 2), asg)
        assert st_.b_blocked and not st_.c_blocked

    def test_c_blocked_by_shared_coordinates(self):
        p = Params(2)
        asg = Assignment(frozenset(), frozenset([BlockAddr(1, 3, 1)]))
        st_ = blocked_status(p, BlockAddr(2, 3, 1), asg)
        assert st_.c_blocked and not st_.b_blocked


class TestAssignBlocks:
    def test_single_block_goes_to_b(self):
        p = Params(2)
        blk = BlockAddr(1, 0, 0)
        asg = assign_blocks(p, [blk])
        assert asg == Assignment(frozenset([blk]), frozenset())

    def test_one_line_four_blocks(self):
        # all four blocks of the b=2 main diagonal: at most one can stay in
        # table B, and the candidate order settles on the last block
        p = Params(2)
        blocks = [BlockAddr(1, k, k) for k in range(4)]
        asg = assign_blocks(p, blocks)
        assert asg.placed_b == frozenset([BlockAddr(1, 3, 3)])
        assert asg.placed_c == frozenset(blocks[:3])

    def test_every_candidate_goes_through_routing_valid(self, monkeypatch):
        # the one-line case above wins at mask k = 7: masks 0..7 are each
        # checked once, in order, the all-B candidate (k = 0) included
        p = Params(2)
        blocks = [BlockAddr(1, k, k) for k in range(4)]
        seen = []
        valid = scheme._routing_valid

        def recording(p, non_empty, to_b, to_c):
            seen.append((list(to_b), list(to_c)))
            return valid(p, non_empty, to_b, to_c)

        monkeypatch.setattr(scheme, "_routing_valid", recording)
        assign_blocks(p, blocks)
        expected = []
        for k in range(8):
            to_c = [blk for j, blk in enumerate(blocks) if k >> j & 1]
            expected.append(([blk for blk in blocks if blk not in to_c], to_c))
        assert seen == expected

    def test_crossing_lines_with_coincident_pair(self):
        # two blocks per line, lines crossing at (1, 1): the coincident pair
        # must split across the tables
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 1),
            BlockAddr(2, 1, 1),
            BlockAddr(2, 3, 2),
        ]
        asg = assign_blocks(p, blocks)
        pair = {BlockAddr(1, 1, 1), BlockAddr(2, 1, 1)}
        assert len(pair & asg.placed_b) == 1
        assert len(pair & asg.placed_c) == 1
        assert asg.placed_b == frozenset([BlockAddr(1, 1, 1), BlockAddr(2, 3, 2)])

    def test_rejects_duplicates(self):
        p = Params(2)
        with pytest.raises(ValueError):
            assign_blocks(p, [BlockAddr(1, 0, 0), BlockAddr(1, 0, 0)])

    @given(subsets())
    def test_invariants_hold(self, case):
        b, ordinals = case
        p = Params(b)
        grouped = group_members(p, [element_from_ordinal(p, n) for n in ordinals])
        asg = assign_blocks(p, grouped.keys())
        non_empty = set(grouped)
        assert asg.placed_b | asg.placed_c == non_empty
        assert not asg.placed_b & asg.placed_c
        lines_b = [line_of(blk) for blk in asg.placed_b]
        assert len(set(lines_b)) == len(lines_b)
        coords_c = [(blk.x, blk.y) for blk in asg.placed_c]
        assert len(set(coords_c)) == len(coords_c)
        for blk in all_blocks(p):
            if blk not in non_empty:
                status = blocked_status(p, blk, asg)
                assert not (status.b_blocked and status.c_blocked)


class TestBuild:
    def test_oversized_structure_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the limit"):
                build(Params(64), [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_empty_subset_all_zero(self):
        st_ = build(Params(2), [])
        assert list(st_.table_a.ones()) == []
        assert list(st_.table_b.ones()) == []
        assert list(st_.table_c.ones()) == []

    def test_single_element_bit_pattern(self):
        # {ordinal 0} routes block (1,0,0) to table B; the three empty
        # blocks on its diagonal become B-blocked, so their A bits flip on
        st_ = build_from_ordinals(Params(2), [0])
        assert list(st_.table_a.ones()) == [5, 10, 15]
        assert list(st_.table_b.ones()) == [6]
        assert list(st_.table_c.ones()) == []

    def test_same_line_pair_correct_everywhere(self):
        p = Params(2)
        members = {0, 30}  # blocks (1,0,0) and (1,3,3), both on the diagonal
        st_ = build_from_ordinals(p, members)
        for n in range(p.universe_size):
            got, _ = query(st_, element_from_ordinal(p, n))
            assert got == (n in members)

    @given(subsets())
    def test_a_bits_match_blocked_status(self, case):
        b, ordinals = case
        p = Params(b)
        grouped = group_members(p, [element_from_ordinal(p, n) for n in ordinals])
        asg = assign_blocks(p, grouped.keys())
        st_ = build_from_ordinals(p, ordinals)
        for blk in all_blocks(p):
            bit = get_bit(st_.table_a, p.a_pos(*blk))
            if blk in asg.placed_b:
                assert bit == 0
            elif blk in asg.placed_c:
                assert bit == 1
            else:
                assert bit == int(blocked_status(p, blk, asg).b_blocked)

    @given(subsets())
    @settings(max_examples=60)
    def test_deterministic_bytes(self, case):
        b, ordinals = case
        p = Params(b)
        first = serialize(build_from_ordinals(p, ordinals))
        second = serialize(build_from_ordinals(p, list(reversed(ordinals))))
        assert first == second

    def test_multi_member_indifference(self):
        # the routing depends on the set of non-empty blocks only
        p = Params(2)
        blk1, blk2 = BlockAddr(1, 0, 0), BlockAddr(1, 3, 3)
        distributions = [
            {blk1: {0}, blk2: {0}},
            {blk1: {0, 1}, blk2: {0}},
            {blk1: {1}, blk2: {0, 1}},
        ]
        routings = {assign_blocks(p, d.keys()) for d in distributions}
        assert len(routings) == 1
        a_tables = set()
        for d in distributions:
            members = [ElementAddr(blk, i) for blk, idx in d.items() for i in idx]
            a_tables.add(bytes(build(p, members).table_a.data))
        assert len(a_tables) == 1


class TestQuery:
    def test_empty_structure_says_no(self):
        p = Params(2)
        st_ = build(p, [])
        for n in range(p.universe_size):
            got, trace = query(st_, element_from_ordinal(p, n))
            assert not got
            assert trace[0][0] == "A" and trace[0][2] == 0
            assert trace[1][0] == "B" and trace[1][2] == 0

    def test_plain_tuple_addresses(self):
        """Build, group and query take ((s, x, y), i) tuples like the
        NamedTuple addresses, and reject an invalid one with its bound."""
        p = Params(2)
        addr = ElementAddr(BlockAddr(1, 2, 3), 1)
        plain = ((1, 2, 3), 1)
        st_ = build(p, [plain])
        assert st_ == build(p, [addr])
        assert group_members(p, [plain]) == group_members(p, [addr])
        assert query(st_, plain) == query(st_, addr)
        for bad, message in [
            (((9, 0, 0), 0), "superblock 9 out of range [1, 2]"),
            (((1, 4, 0), 0), "grid point (4, 0) out of range [0, 4)^2"),
            (((1, 0, 0), 5), "block index 5 out of range [0, 2)"),
        ]:
            for call in (lambda: query(st_, bad), lambda: build(p, [bad])):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == message

    def test_singleton_yes_and_63_nos(self):
        p = Params(2)
        target = 37
        st_ = build_from_ordinals(p, [target])
        for n in range(p.universe_size):
            got, trace = query(st_, element_from_ordinal(p, n))
            assert got == (n == target)
            assert len(trace) == 2 and trace[0][0] == "A"

    def test_rejects_invalid_address(self):
        st_ = build(Params(2), [])
        with pytest.raises(ValueError):
            query(st_, ElementAddr(BlockAddr(1, 0, 0), 5))
        with pytest.raises(ValueError):
            query(st_, ElementAddr(BlockAddr(0, 0, 0), 0))

    @pytest.mark.parametrize("b", [2, 3])
    def test_probe_positions_match_index_layouts(self, b):
        # the inlined probe arithmetic must agree with the table layouts for
        # every element, on structures exercising both second probes
        p = Params(b)
        m = p.universe_size
        st_ = build_from_ordinals(p, [0, m // 3, m // 2, m - 1])
        for n in range(m):
            e = element_from_ordinal(p, n)
            _, trace = query(st_, e)
            (t1, p1, v1), (t2, p2, _) = trace
            assert (t1, p1) == ("A", p.a_pos(*e.block))
            assert v1 == get_bit(st_.table_a, p1)
            if v1 == 0:
                assert (t2, p2) == ("B", p.b_slot(*line_of(e.block)) + e.i)
            else:
                assert (t2, p2) == ("C", p.c_pos(e.block.x, e.block.y, e.i))


class TestClassify:
    def test_labels_hash_by_identity(self):
        # Histograms are dicts keyed by label, filled in worker processes.
        for label in CaseLabel:
            assert hash(label) == object.__hash__(label)
            assert pickle.loads(pickle.dumps(label)) is label

    def test_four_superblocks_generic(self):
        p = Params(4)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(2, 5, 3),
            BlockAddr(3, 1, 7),
            BlockAddr(4, 9, 2),
        ]
        assert classify(p, blocks) is CaseLabel.I

    def test_one_line(self):
        p = Params(2)
        assert classify(p, [BlockAddr(1, k, k) for k in range(4)]) is CaseLabel.II

    def test_three_one_split(self):
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 1),
            BlockAddr(1, 2, 2),
            BlockAddr(2, 3, 0),
        ]
        assert classify(p, blocks) is CaseLabel.IIIA

    def test_crossing_pairs_with_coincidence(self):
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 1),
            BlockAddr(2, 1, 1),
            BlockAddr(2, 3, 2),
        ]
        assert classify(p, blocks) is CaseLabel.IIIB

    def test_three_lines_no_coincidence(self):
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 0),
            BlockAddr(1, 3, 2),
            BlockAddr(2, 3, 3),
        ]
        lines = {line_of(blk) for blk in blocks}
        assert len(lines) == 3
        assert classify(p, blocks) is CaseLabel.IVD

    def test_three_lines_one_pair_off_the_double_line(self):
        # pair (1,1,0)/(2,1,0) at (1,0); the leftover singleton (2,3,0) sits
        # off the doubly occupied line x - y = 1
        p = Params(2)
        blocks = [
            BlockAddr(1, 1, 0),
            BlockAddr(1, 2, 1),
            BlockAddr(2, 1, 0),
            BlockAddr(2, 3, 0),
        ]
        assert classify(p, blocks) is CaseLabel.IVC_ii

    def test_three_lines_one_pair_on_the_double_line(self):
        # same pair, but the leftover singleton (2,3,2) lies on x - y = 1
        p = Params(2)
        blocks = [
            BlockAddr(1, 1, 0),
            BlockAddr(1, 2, 1),
            BlockAddr(2, 1, 0),
            BlockAddr(2, 3, 2),
        ]
        assert classify(p, blocks) is CaseLabel.IVC_i

    def test_fewer_than_four(self):
        p = Params(2)
        assert classify(p, []) is CaseLabel.FEWER_THAN_4_BLOCKS
        assert classify(p, [BlockAddr(1, 0, 0)]) is CaseLabel.FEWER_THAN_4_BLOCKS

    def test_rejects_duplicates_and_overflow(self):
        p = Params(2)
        with pytest.raises(ValueError):
            classify(p, [BlockAddr(1, 0, 0)] * 2)
        with pytest.raises(CapacityError):
            classify(p, [BlockAddr(1, x, 0) for x in range(4)] + [BlockAddr(2, 0, 0)])


class TestCorrectnessProperty:
    @given(subsets())
    @settings(max_examples=150)
    def test_query_equals_membership_everywhere(self, case):
        b, ordinals = case
        p = Params(b)
        st_ = build_from_ordinals(p, ordinals)
        members = set(ordinals)
        for n in range(p.universe_size):
            got, trace = query(st_, element_from_ordinal(p, n))
            assert got == (n in members)
            assert len(trace) == 2 and trace[0][0] == "A"
