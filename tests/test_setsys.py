"""Set system primitives against naive frozenset references."""

import random
from functools import reduce
from itertools import product
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from instance_gen import (
    member_sets,
    random_family,
    random_system,
    ref_dim,
    ref_gather,
    ref_is_shattered,
    ref_shatter,
    ref_shift,
    ref_trace,
    traced_peak,
)
from vcn import (
    BoxSpec,
    GroundFamily,
    InputError,
    ProductUniverse,
    SetSystem,
    is_shattered,
    iter_boxes,
    sauer_binomial_bound,
    shatter_fn,
    shift,
    build_extremal_family,
    trace,
    vc_n_dim,
    zarankiewicz,
)
from vcn.setsys import _max_trace


def test_universe_indexing_round_trip():
    u = ProductUniverse((3, 4, 2))
    assert u.tuple_count == 24
    for idx in range(u.tuple_count):
        assert u.tuple_index(u.index_tuple(idx)) == idx
    assert list(u.tuples())[0] == (0, 0, 0)
    assert list(u.tuples())[-1] == (2, 3, 1)


def test_universe_rejects_bad_parts():
    with pytest.raises(InputError):
        ProductUniverse(())
    with pytest.raises(InputError):
        ProductUniverse((3, 0))


@pytest.mark.parametrize("sizes", [(2.5, 3), (2, True), (3.0,), (-1.5,)])
def test_universe_refuses_non_integer_part_sizes(sizes):
    with pytest.raises(InputError, match="part sizes must be integers"):
        ProductUniverse(sizes)


def test_system_from_sets_matches_masks():
    u = ProductUniverse((2, 2))
    s = SetSystem.from_sets(u, [{(0, 0), (1, 1)}, set()])
    assert len(s.members) == 2
    assert member_sets(s) == [frozenset(), frozenset({(0, 0), (1, 1)})]


def test_system_json_round_trip():
    s = random_system(17, n=2)
    again = SetSystem.from_json(s.to_json())
    assert again == s


def test_system_rejects_out_of_range_masks():
    u = ProductUniverse((2,))
    with pytest.raises(InputError):
        SetSystem(u, (1 << 2,))
    with pytest.raises(InputError, match="exceeds the tuple space"):
        SetSystem(u, (-1,))
    SetSystem(u, ((1 << 2) - 1,))


def test_ground_family_rejects_out_of_range_masks():
    with pytest.raises(InputError, match="exceeds the ground set"):
        GroundFamily(3, (1 << 3,))
    with pytest.raises(InputError, match="exceeds the ground set"):
        GroundFamily(3, (-1,))
    GroundFamily(3, ((1 << 3) - 1,))


@pytest.mark.parametrize("ground_size", [2.5, True, 3.0, -1.5])
def test_ground_family_refuses_a_non_integer_ground_size(ground_size):
    with pytest.raises(InputError, match="ground size must be an integer"):
        GroundFamily(ground_size, (1,))


def test_range_check_allocates_nothing_per_tuple():
    # 10**10 tuples: a 1 << tuple_count limit alone would take 1.25 GB
    system = "SetSystem(ProductUniverse((100_000, 100_000)), (0b101,))"
    members, peak = traced_peak("", f"({system}.members, GroundFamily(10**10, (0b11,)).members)")
    assert members == repr(((0b101,), (0b11,)))
    assert peak < 2**20


def trace_sets(fam: GroundFamily, selections) -> set[frozenset]:
    """Trace members as sets of box cells; bit i is the i-th cell of the
    product of the selections, taken in their own order."""
    cells = list(product(*selections))
    assert fam.ground_size == len(cells)
    return {frozenset(c for i, c in enumerate(cells) if mask >> i & 1) for mask in fam.members}


def shaped_system(seed: int) -> SetSystem:
    """Seeded system over n = 1..3 parts of sizes 1..5, 1..3 or 1..2; every
    fourth one has a single member, the others up to 40."""
    rng = random.Random(seed)
    n = 1 + seed % 3
    sizes = tuple(rng.randint(1, (5, 3, 2)[n - 1]) for _ in range(n))
    universe = ProductUniverse(sizes)
    count = 1 if seed % 4 == 0 else rng.randint(2, 40)
    members = {rng.getrandbits(universe.tuple_count) for _ in range(count)}
    return SetSystem(universe, tuple(members))


@pytest.mark.parametrize("seed", range(40))
def test_trace_matches_reference(seed):
    s = random_system(seed, n=2, max_part=3)
    m = min(s.universe.part_sizes)
    for box in iter_boxes(s.universe, m):
        got = trace(s, box)
        want = ref_trace(s, box.selections)
        assert trace_sets(got, box.selections) == want


@pytest.mark.parametrize("seed", range(60))
def test_kernel_matches_reference_on_every_shape(seed):
    s = shaped_system(seed)
    sizes = s.universe.part_sizes
    for m in range(min(sizes) + 1):
        for box in iter_boxes(s.universe, m):
            assert trace_sets(trace(s, box), box.selections) == ref_trace(s, box.selections)
            assert is_shattered(s, box) == ref_is_shattered(s, box.selections)
        assert shatter_fn(s, m) == ref_shatter(s, m)
    dim = ref_dim(s)
    assert vc_n_dim(s) == dim
    for cap in range(3):
        assert vc_n_dim(s, cap) == min(dim, cap)


def test_shaped_systems_cover_the_edge_cases():
    systems = [shaped_system(seed) for seed in range(60)]
    assert {s.universe.n for s in systems} == {1, 2, 3}
    assert any(len(s.members) == 1 for s in systems)
    for n in (1, 2, 3):
        assert any(s.universe.n == n and 1 in s.universe.part_sizes for s in systems)
    # some n = 1 system has dimension 2, and some n = 2 system dimension 1
    assert any(s.universe.n == 1 and ref_dim(s) >= 2 for s in systems)
    assert any(s.universe.n == 2 and ref_dim(s) >= 1 for s in systems)


def test_trace_bits_follow_the_box_order():
    # the box grid in its own order: (2,1), (2,0), (0,1), (0,0)
    u = ProductUniverse((3, 3))
    s = SetSystem.from_sets(u, [{(2, 1), (0, 0)}, {(2, 0), (1, 1)}])
    box = BoxSpec(((2, 0), (1, 0)))
    assert trace(s, box).members == (0b0010, 0b1001)
    assert sorted(ref_gather(s, box)) == [0b0010, 0b1001]


@pytest.mark.parametrize("seed", range(30))
def test_trace_on_unsorted_selections_matches_the_gather(seed):
    rng = random.Random(seed)
    s = shaped_system(seed)
    m = min(s.universe.part_sizes)
    for box in iter_boxes(s.universe, m):
        shuffled = BoxSpec(tuple(tuple(rng.sample(sel, len(sel))) for sel in box.selections))
        got = trace(s, shuffled)
        assert got.members == tuple(sorted(set(ref_gather(s, shuffled))))
        assert trace_sets(got, shuffled.selections) == ref_trace(s, box.selections)


def planted_system(seed: int) -> SetSystem:
    """Seeded system over n = 1..3 parts of sizes 2..5, 2..4 or 2..3 in which
    every member shares one planted pattern on the cells with some coordinate
    in that part's planted values: whole rows of the first n-1 parts and
    whole columns of the last part are constant.  Every fifth system has a
    single member, the others up to 40."""
    rng = random.Random(seed)
    n = 1 + seed % 3
    sizes = tuple(rng.randint(2, (5, 4, 3)[n - 1]) for _ in range(n))
    universe = ProductUniverse(sizes)
    planted = [set(rng.sample(range(size), rng.randint(1, size - 1))) for size in sizes]
    fixed = sum(
        1 << i
        for i, t in enumerate(universe.tuples())
        if any(v in vals for v, vals in zip(t, planted))
    )
    shared = rng.getrandbits(universe.tuple_count) & fixed
    count = 1 if seed % 5 == 0 else rng.randint(2, 40)
    members = {shared | rng.getrandbits(universe.tuple_count) & ~fixed for _ in range(count)}
    return SetSystem(universe, tuple(members))


@pytest.mark.parametrize("seed", range(45))
def test_kernel_matches_reference_on_planted_constant_rows_and_columns(seed):
    s = planted_system(seed)
    sizes = s.universe.part_sizes
    for m in range(min(sizes) + 1):
        for box in iter_boxes(s.universe, m):
            assert trace_sets(trace(s, box), box.selections) == ref_trace(s, box.selections)
            assert is_shattered(s, box) == ref_is_shattered(s, box.selections)
        assert shatter_fn(s, m) == ref_shatter(s, m)
    dim = ref_dim(s)
    for cap in range(3):
        assert vc_n_dim(s, cap) == min(dim, cap)


def test_planted_systems_cover_the_pruning():
    systems = [planted_system(seed) for seed in range(45)]
    single_trace = set()
    for s in systems:
        sizes = s.universe.part_sizes
        width = sizes[-1]
        rows = s.universe.tuple_count // width
        varying = reduce(or_, s.members) ^ reduce(and_, s.members)
        row_words = [varying >> r * width & (1 << width) - 1 for r in range(rows)]
        spread = sum(1 << r * width for r in range(rows))
        if len(s.members) > 1:
            # varying drops whole rows (n >= 2) and whole columns
            assert s.universe.n == 1 or 0 in row_words
            assert any(varying & spread << c == 0 for c in range(width))
            for m in range(1, min(sizes) + 1):
                if any(len(ref_trace(s, box.selections)) == 1 for box in iter_boxes(s.universe, m)):
                    single_trace.add((s.universe.n, m))
    assert {(n, 1) for n in (1, 2, 3)} <= single_trace
    assert {(n, 2) for n in (2, 3)} <= single_trace
    assert {len(s.members) == 1 for s in systems} == {True, False}
    # the pruned systems still shatter boxes of size 1 and 2
    assert {ref_dim(s) for s in systems} >= {0, 1, 2}


def test_kernel_on_no_members():
    assert _max_trace([], (2, 2), (1, 2), 0) == 0
    assert _max_trace([], (2, 2), (1, 2), 3) == 3


def test_kernel_returns_best_at_its_cap():
    # two members cap every trace at 2; a 1 x 1 box caps it at 2 ** 1
    assert _max_trace([1, 2], (2, 2), (1, 2), 2) == 2
    assert _max_trace([1, 2], (2, 2), (1, 2), 5) == 5
    assert _max_trace([0, 1, 2, 3], (2, 2), (1, 1), 2) == 2
    assert _max_trace([0, 1, 2, 3], (2, 2), (1, 1), 0) == 2


def test_extremal_family_separation_two_blocks_further():
    # The --m 2,3,4,5 family: box dimension 1, shatter value 2^(z(2,m,2)-1).
    fam = build_extremal_family(2, 1, (2, 3, 4, 5))
    assert fam.universe.part_sizes == (14, 14) and len(fam.members) == 4677
    assert shatter_fn(fam, 2) == 1 << zarankiewicz(2, 2, 2).z - 1 == 8
    assert shatter_fn(fam, 3) == 1 << zarankiewicz(2, 3, 2).z - 1 == 64
    assert vc_n_dim(fam) == 1


@pytest.mark.parametrize("seed", range(40))
def test_is_shattered_matches_reference(seed):
    s = random_system(seed, n=2, max_part=3, max_members=20)
    for m in range(1, min(s.universe.part_sizes) + 1):
        for box in iter_boxes(s.universe, m):
            assert is_shattered(s, box) == ref_is_shattered(s, box.selections)


@pytest.mark.parametrize("seed", range(30))
def test_dim_and_shatter_match_reference(seed):
    s = random_system(seed, n=2, max_part=3, max_members=25)
    assert vc_n_dim(s) == ref_dim(s)
    for cap in range(3):
        assert vc_n_dim(s, cap) == min(ref_dim(s), cap)
    for m in range(min(s.universe.part_sizes) + 1):
        assert shatter_fn(s, m) == ref_shatter(s, m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_power_set_is_fully_shattered(n):
    u = ProductUniverse((2,) * n)
    s = SetSystem(u, tuple(range(1 << u.tuple_count)))
    assert vc_n_dim(s) == 2
    assert shatter_fn(s, 2) == 1 << 2**n


def test_dim_of_empty_system_is_refused():
    u = ProductUniverse((2, 2))
    with pytest.raises(InputError):
        vc_n_dim(SetSystem(u, ()))
    with pytest.raises(InputError):
        vc_n_dim(SetSystem(u, (0,)), size_cap=-1)


def test_single_member_system_has_dim_zero():
    u = ProductUniverse((3, 3))
    s = SetSystem(u, (0b1011,))
    assert vc_n_dim(s) == 0
    assert shatter_fn(s, 0) == 1
    assert shatter_fn(s, 1) == 1
    assert shatter_fn(SetSystem(u, ()), 0) == 0  # no member, so no trace, not even on the empty box


def test_shatter_rejects_oversized_box():
    s = random_system(3, n=2, max_part=3)
    with pytest.raises(InputError):
        shatter_fn(s, max(s.universe.part_sizes) + 1)


def test_iter_boxes_counts():
    from math import comb

    u = ProductUniverse((4, 3))
    assert sum(1 for _ in iter_boxes(u, 2)) == comb(4, 2) * comb(3, 2)
    assert list(iter_boxes(ProductUniverse((4, 1)), 2)) == []  # no pair in the second part
    spec = next(iter_boxes(u, 2))
    assert spec.m == 2
    assert spec.cell_indices(u) == [
        u.tuple_index(t) for t in ((0, 0), (0, 1), (1, 0), (1, 1))
    ]


def test_box_spec_validation():
    u = ProductUniverse((2, 2))
    with pytest.raises(InputError):
        BoxSpec(((0, 0), (0, 1))).validate(u)  # repeated element
    with pytest.raises(InputError):
        BoxSpec(((0,), (0, 1))).validate(u)  # unequal selections
    with pytest.raises(InputError):
        BoxSpec(((0, 2), (0, 1))).validate(u)  # out of range


# --- shifting ---------------------------------------------------------------


def downward_closed(fam: GroundFamily) -> bool:
    members = set(fam.members)
    for c in members:
        for e in range(fam.ground_size):
            if c >> e & 1 and (c ^ (1 << e)) not in members:
                return False
    return True


def shattered_sets(fam: GroundFamily) -> set:
    """All shattered subsets of the ground set, brute force."""
    out = set()
    for s in range(1 << fam.ground_size):
        want = set()
        bits = [e for e in range(fam.ground_size) if s >> e & 1]
        target = 1 << len(bits)
        for c in fam.members:
            want.add(c & s)
            if len(want) == target:
                out.add(s)
                break
        if len(want) == target:
            out.add(s)
    return out


@pytest.mark.parametrize("seed", range(60))
def test_shift_reference_properties(seed):
    fam = random_family(seed, ground=6)
    shifted = shift(fam)
    assert len(shifted.members) == len(fam.members)
    assert downward_closed(shifted)
    assert shattered_sets(shifted) <= shattered_sets(fam)
    assert shift(shifted) == shifted  # fixpoint


@given(st.integers(0, 6), st.sets(st.integers(0, 63), max_size=20))
@settings(max_examples=80, deadline=None)
def test_shift_property_random(ground, raw):
    members = tuple(sorted(m & ((1 << ground) - 1) for m in raw))
    fam = GroundFamily(ground, tuple(sorted(set(members))))
    shifted = shift(fam)
    assert len(shifted.members) == len(fam.members)
    assert downward_closed(shifted)
    assert shattered_sets(shifted) <= shattered_sets(fam)


@pytest.mark.parametrize("ground", range(10))
def test_shift_matches_the_sequential_reference(ground):
    families = [GroundFamily(ground), GroundFamily(ground, range(1 << ground))]
    rng = random.Random(ground)
    for seed in range(300):
        count = rng.randint(1, min(40, 1 << ground))
        families.append(random_family(seed, ground, count))
    for fam in families:
        assert shift(fam) == ref_shift(fam), fam


def test_family_json_round_trip():
    fam = random_family(5)
    assert GroundFamily.from_json(fam.to_json()) == fam


def test_sauer_binomial_bound_values():
    # z=1: only the empty trace is allowed
    assert sauer_binomial_bound(2, 3, 1) == 1
    # z exceeding the cell count: the bound saturates at 2**cells
    assert sauer_binomial_bound(1, 3, 9) == 8
    assert sauer_binomial_bound(2, 2, 3) == 1 + 4 + 6
    with pytest.raises(InputError):
        sauer_binomial_bound(0, 1, 1)


U22 = ProductUniverse((2, 2))
# Refusals that no other in-process test reaches, each with its message.
REFUSALS = [
    (lambda: U22.tuple_index((0,)), "tuple length 1 != 2"),
    (lambda: U22.tuple_index((0, 2)), "coordinate 2 out of range for part of size 2"),
    (lambda: U22.index_tuple(4), "tuple index 4 out of range"),
    (lambda: SetSystem(U22, (1, 1)), "members must be distinct"),
    (lambda: BoxSpec(()), "box needs at least one selection"),
    (lambda: BoxSpec(((0,),)).validate(U22), "box arity does not match the universe"),
    (lambda: GroundFamily(-1), "ground size must be nonnegative"),
    (lambda: iter_boxes(U22, -1), "box size must be nonnegative"),
    (lambda: shatter_fn(SetSystem(U22, (1,)), -1), "box size must be nonnegative"),
]


@pytest.mark.parametrize("call, message", REFUSALS)
def test_refusal_messages(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
