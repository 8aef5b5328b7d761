import pickle
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from bitprobe4.geometry import (
    BlockAddr,
    ElementAddr,
    Params,
    cached_params,
    element_from_ordinal,
    element_to_ordinal,
    line_of,
)
from bitprobe4 import scheme
from bitprobe4.scheme import (
    Assignment,
    AssignmentError,
    CapacityError,
    CaseLabel,
    assign_blocks,
    build,
    build_from_ordinals,
    classify,
    query,
)
from bitprobe4.oracle import draw_subset
from bitprobe4.tables import serialize
from .reference import blocked_status, get_bit


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


def seeded_blocks():
    """Non-empty blocks of a seeded subset of up to four members at b=2..4,
    as `_group_ordinals` yields them."""

    @st.composite
    def strat(draw):
        p = cached_params(draw(st.integers(2, 4)))
        n, seed = draw(st.integers(0, 4)), draw(st.integers(0, 2**32))
        return p, scheme._group_ordinals(p, draw_subset(seed, 0, n, p.universe_size))

    return strat()


def orders(grouped):
    """Every order of a grouping's blocks, then its set and dict-keys forms."""
    return [*map(list, permutations(grouped)), set(grouped), grouped.keys()]


class TestGroupMembers:
    """Grouping has one entry, `_group_ordinals`; addresses reach it through
    `build`, which raises their errors."""

    def test_empty(self):
        assert scheme._group_ordinals(Params(2), ()) == {}

    def test_four_members_one_block(self):
        p = Params(4)
        blk = BlockAddr(1, 0, 0)
        ordinals = [element_to_ordinal(p, ElementAddr(blk, i)) for i in range(4)]
        assert scheme._group_ordinals(p, ordinals) == {blk: {0, 1, 2, 3}}

    def test_duplicates_collapse(self):
        p = Params(2)
        e = ElementAddr(BlockAddr(1, 2, 3), 1)
        others = [ElementAddr(BlockAddr(2, 0, 0), 0), ElementAddr(BlockAddr(2, 1, 0), 0)]
        grouped = scheme._group_ordinals(p, [element_to_ordinal(p, a) for a in [e, e, e] + others])
        assert grouped[BlockAddr(1, 2, 3)] == {1}
        assert len(grouped) == 3

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            scheme._group_ordinals(Params(2), tuple(range(5)))

    def test_invalid_address(self):
        with pytest.raises(ValueError):
            build(Params(2), [ElementAddr(BlockAddr(1, 9, 0), 0)])

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
            (scheme._group_ordinals, ordinals, bad_ordinal),
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
        expected = {}
        for n in ordinals:
            blk, i = element_from_ordinal(p, n)
            expected.setdefault(blk, set()).add(i)
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
        assert blocked_status(BlockAddr(1, 0, 0), asg.placed_b, asg.placed_c) == (False, False)

    def test_b_blocked_by_shared_line(self):
        asg = Assignment(frozenset([BlockAddr(1, 0, 0)]), frozenset())
        st_ = blocked_status(BlockAddr(1, 2, 2), asg.placed_b, asg.placed_c)
        assert st_.b_blocked and not st_.c_blocked

    def test_c_blocked_by_shared_coordinates(self):
        asg = Assignment(frozenset(), frozenset([BlockAddr(1, 3, 1)]))
        st_ = blocked_status(BlockAddr(2, 3, 1), asg.placed_b, asg.placed_c)
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

    @staticmethod
    def record_candidates(monkeypatch, verdict=None):
        """Patch `scheme._routing_valid` to record each candidate's (to_b,
        to_c) and return `verdict`, or the real verdict when it is None."""
        seen = []
        valid = scheme._routing_valid

        def recording(p, non_empty, to_b, to_c):
            seen.append((list(to_b), list(to_c)))
            return valid(p, non_empty, to_b, to_c) if verdict is None else verdict

        monkeypatch.setattr(scheme, "_routing_valid", recording)
        return seen

    @staticmethod
    def candidates(blocks, count):
        """Masks 0..count-1 as (to_b, to_c): bit j of k sends block j to C."""
        expected = []
        for k in range(count):
            to_c = [blk for j, blk in enumerate(blocks) if k >> j & 1]
            expected.append(([blk for blk in blocks if blk not in to_c], to_c))
        return expected

    @pytest.mark.parametrize("n", range(5))
    def test_every_candidate_goes_through_routing_valid(self, monkeypatch, n):
        # n blocks on one line: masks 0..k* are each checked once, in order,
        # the all-B candidate (k = 0) included, where k* is the winning mask
        # (0, 0, 1, 3 and 7 for 0 to 4 blocks; see the one-line case above)
        p = Params(2)
        blocks = [BlockAddr(1, k, k) for k in range(n)]
        seen = self.record_candidates(monkeypatch)
        asg = assign_blocks(p, blocks)
        k_star = sum(1 << j for j, blk in enumerate(blocks) if blk in asg.placed_c)
        assert k_star == [0, 0, 1, 3, 7][n]
        assert seen == self.candidates(blocks, k_star + 1)

    @pytest.mark.parametrize("n", [5, 6])
    def test_no_valid_candidate_tries_every_mask(self, monkeypatch, n):
        # past MAX_MEMBERS, blocks are still routed: all 2**n masks are
        # checked in order, then AssignmentError is raised
        p = Params(3)
        blocks = [BlockAddr(1, k, k) for k in range(n)]
        seen = self.record_candidates(monkeypatch, verdict=False)
        with pytest.raises(AssignmentError):
            assign_blocks(p, blocks)
        assert seen == self.candidates(blocks, 1 << n)

    def test_routing_valid_matches_reference(self):
        """`_routing_valid` against rules 2-4 written from their statement,
        on every split of seeded 1-4 block configurations into B and C."""

        def reference(grid, blocks, to_b, to_c):
            lines_b = [(s, x - s * y) for s, x, y in to_b]
            coords_c = [(x, y) for _, x, y in to_c]
            if len(set(lines_b)) < len(lines_b) or len(set(coords_c)) < len(coords_c):
                return False, False  # rule 2 or 3
            rule_4 = not any(
                all(blocked_status(blk, to_b, to_c))  # blocked from B and from C
                for blk in grid if blk not in blocks
            )
            return rule_4, True

        outcomes = set()
        for b, configs in ((2, 500), (3, 100)):
            p = Params(b)
            grid = all_blocks(p)
            rng = random.Random(b)
            for t in range(configs):
                blocks = sorted(rng.sample(grid, 1 + t % 4))
                non_empty = frozenset(blocks)
                for to_b, to_c in self.candidates(blocks, 1 << len(blocks)):
                    expected, rules_2_3 = reference(grid, non_empty, to_b, to_c)
                    assert scheme._routing_valid(p, non_empty, to_b, to_c) == expected, (to_b, to_c)
                    outcomes.add((not to_c, rules_2_3, expected))
        # all-B candidates pass and fail, and rule 4 alone rejects some splits
        assert {(True, True, True), (True, False, False), (False, True, False)} <= outcomes

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

    @settings(max_examples=200, deadline=None)
    @given(seeded_blocks())
    def test_same_assignment_for_every_order(self, case):
        p, grouped = case
        asg = assign_blocks(p, grouped)
        assert asg.placed_b | asg.placed_c == set(grouped)
        for blocks in orders(grouped):
            assert assign_blocks(p, blocks) == asg

    @given(subsets())
    def test_invariants_hold(self, case):
        b, ordinals = case
        p = Params(b)
        grouped = scheme._group_ordinals(p, ordinals)
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
                status = blocked_status(blk, asg.placed_b, asg.placed_c)
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

    def test_oversized_b_refused_before_routing(self):
        # The routing reads `Params.line_zero`, whose b-entry tables an
        # oversized b must never build; b = 1000 keeps them small enough
        # that a regression fails here instead of exhausting memory.
        p = Params(1000)
        with pytest.raises(ValueError, match="over the limit"):
            build_from_ordinals(p, [0, 1, 2, p.universe_size - 1])
        assert "b_offsets" not in vars(p) and "line_zero" not in vars(p)

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
        grouped = scheme._group_ordinals(p, ordinals)
        asg = assign_blocks(p, grouped.keys())
        st_ = build_from_ordinals(p, ordinals)
        for blk in all_blocks(p):
            bit = get_bit(st_.table_a, p.a_pos(*blk))
            if blk in asg.placed_b:
                assert bit == 0
            elif blk in asg.placed_c:
                assert bit == 1
            else:
                assert bit == int(blocked_status(blk, asg.placed_b, asg.placed_c).b_blocked)

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
        assert element_to_ordinal(p, plain) == element_to_ordinal(p, addr)
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
                assert (t2, p2) == ("B", p.line(*e.block) * b + e.i)
            else:
                assert (t2, p2) == ("C", p.c_pos(e.block.x, e.block.y, e.i))


class TestClassify:
    @staticmethod
    def labels(p, blocks):
        """`classify` of every order of `blocks` and of their set and dict forms."""
        return {classify(p, form) for form in orders(dict.fromkeys(blocks))}

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
        assert self.labels(p, blocks) == {CaseLabel.I}

    def test_one_line(self):
        p = Params(2)
        assert self.labels(p, [BlockAddr(1, k, k) for k in range(4)]) == {CaseLabel.II}

    def test_three_one_split(self):
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 1),
            BlockAddr(1, 2, 2),
            BlockAddr(2, 3, 0),
        ]
        assert self.labels(p, blocks) == {CaseLabel.IIIA}

    def test_crossing_pairs_with_coincidence(self):
        p = Params(2)
        blocks = [
            BlockAddr(1, 0, 0),
            BlockAddr(1, 1, 1),
            BlockAddr(2, 1, 1),
            BlockAddr(2, 3, 2),
        ]
        assert self.labels(p, blocks) == {CaseLabel.IIIB}

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
        assert self.labels(p, blocks) == {CaseLabel.IVD}

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
        assert self.labels(p, blocks) == {CaseLabel.IVC_ii}

    def test_three_lines_one_pair_on_the_double_line(self):
        # same pair, but the leftover singleton (2,3,2) lies on x - y = 1
        p = Params(2)
        blocks = [
            BlockAddr(1, 1, 0),
            BlockAddr(1, 2, 1),
            BlockAddr(2, 1, 0),
            BlockAddr(2, 3, 2),
        ]
        assert self.labels(p, blocks) == {CaseLabel.IVC_i}

    def test_fewer_than_four(self):
        p = Params(2)
        assert classify(p, []) is CaseLabel.FEWER_THAN_4_BLOCKS
        assert classify(p, [BlockAddr(1, 0, 0)]) is CaseLabel.FEWER_THAN_4_BLOCKS

    @settings(max_examples=200, deadline=None)
    @given(seeded_blocks())
    def test_label_ignores_block_order(self, case):
        p, grouped = case
        assert self.labels(p, grouped) == {classify(p, grouped)}


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
