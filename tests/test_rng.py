"""The generator's stream, pinned bit for bit.

Draws of at least ``rng._CROSSOVER`` values run in lanes of
``rng._LANE`` outputs; smaller draws step one output at a time. Both
must give the xoshiro256** stream of the scalar definition, in order,
and leave the generator in the state that the scalar loop reaches.

The SHA-256 digests below were computed with the one-output-at-a-time
generator that preceded the lanes. The normal draws go through the
platform's libm, so the digests hold on a glibc x86-64 build such as
the CI runners.
"""

import hashlib

import numpy as np
import pytest

from piagg import rng
from piagg.dataset import (
    DataTable,
    SplitSpec,
    gen_affine_gauss,
    gen_hetero_sim,
    split,
    tilt_resample,
    weighted_resample,
)
from piagg.errors import ConfigError
from piagg.rng import Rng

# around the lane length 128 and the crossover 1024, plus two sizes
# that end in a part-filled lane; the large sizes take fewer seeds
SMALL_SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 1023, 1024, 1025)
LARGE_SIZES = (30000, 100000)
CASES = ([(seed, n) for seed in range(50) for n in SMALL_SIZES]
         + [(seed, n) for seed in range(4) for n in LARGE_SIZES])
CUM_PROBS = np.cumsum(np.full(9, 0.111))   # ends at 0.999: draws above it clamp

DRAWS = {
    "uniform": lambda g, n: g.uniform(-1.5, 2.5, n),
    "normal": lambda g, n: g.normal(n),
    "permutation": lambda g, n: g.permutation(n),
    "choice_with_replacement": lambda g, n: g.choice_with_replacement(CUM_PROBS, n),
}

DRAW_DIGESTS = {
    "uniform":
        "9c59f20eef60b23936ed3648304d0b88e8e5dcaed1121fa515527a7a85aafb1e",
    "normal":
        "8198516665b5df77c03bbb214869d2626f65ce3b7fc1f5ec267f8af7f418f935",
    "permutation":
        "049500f743504dc84233d8905129451b40dc850513e0a4e34ec0d35e35e8af77",
    "choice_with_replacement":
        "86d90ce3a5d3379d06b75850f3d78b08de5ced2d1c48f649915325224de16713",
}


def _update(h, *arrays):
    for a in arrays:
        a = np.asarray(a)
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())


def _draw_digest(draw) -> str:
    """Digest of each case's output and of the generator's next output
    after it, which pins the final state."""
    h = hashlib.sha256()
    for seed, n in CASES:
        g = Rng(seed)
        _update(h, draw(g, n), np.uint64(g.next_uint64()))
    return h.hexdigest()


def _table_digest(tables) -> str:
    h = hashlib.sha256()
    for t in tables:
        _update(h, t.x, *([] if t.y is None else [t.y]))
    return h.hexdigest()


DATASET_SIZES = (1, 2, 700, 1500, 4000)
TABLES = {
    "gen_hetero_sim": lambda: [
        gen_hetero_sim(n, seed) for seed in range(10) for n in DATASET_SIZES],
    # d = 1 keeps BLAS summation order out of the labels; the 5-d case
    # pins covariates only, under the benchmark's diagonal map
    "gen_affine_gauss": lambda: [
        t for seed in range(10) for n in DATASET_SIZES
        for t in gen_affine_gauss(n, n // 2 + 1, [[1.5]], [1.0], seed)] + [
        DataTable(t.x) for seed in range(10)
        for t in gen_affine_gauss(4000, 2000, np.diag([1.5, 1.2, 1.6, 2.0, 1.8]),
                                  [1.0, 0.0, 0.0, 1.0, 0.0], seed)],
    "split": lambda: [
        part for seed in range(10) for n in (3, 700, 1500, 4000)
        for part in split(gen_hetero_sim(n, 0), SplitSpec((0.5, 0.25, 0.25), seed))],
    "weighted_resample": lambda: [
        weighted_resample(gen_hetero_sim(700, 1), np.arange(700.0) % 7, m, seed)
        for seed in range(10) for m in (1, 700, 1500)],
    "tilt_resample": lambda: [
        tilt_resample(gen_hetero_sim(700, 2), [2.0], m, seed)
        for seed in range(10) for m in (1, 700, 1500)],
}

TABLE_DIGESTS = {
    "gen_hetero_sim":
        "ab438e17966755534fb3197617827e3e9c7c3259fd4edc5cbfdd66316e399226",
    "gen_affine_gauss":
        "83bd3902534ca1402c1018fa87761b46701dcdec577ef2ef9b9b8294c6a7f611",
    "split":
        "249c41074d5cb1b0d0a5232a06aa8dadd198886f36eaeb983de25ba6da9410dc",
    "weighted_resample":
        "675e3bcc7e06f57cca83f0eee5ebdf8a2acb5a877d95efc03563212722337e49",
    "tilt_resample":
        "7b335e4e4024ef39c6d353a3babc503254862e26f8463552f834ce7797147e01",
}


def test_sizes_straddle_the_lane_length_and_the_crossover():
    for edge in (rng._LANE, rng._CROSSOVER):
        assert {edge - 1, edge, edge + 1} <= set(SMALL_SIZES)
    assert all(n % rng._LANE for n in LARGE_SIZES)


def test_published_vector_from_state_1_2_3_4():
    # reference outputs of xoshiro256** from the raw state (1, 2, 3, 4);
    # the first is rotl(2 * 5, 7) * 9 = 11520
    g = Rng(0)
    g._s0, g._s1, g._s2, g._s3 = 1, 2, 3, 4
    assert [g.next_uint64() for _ in range(10)] == [
        11520, 0, 1509978240, 1215971899390074240, 1216172134540287360,
        607988272756665600, 16172922978634559625, 8476171486693032832,
        10595114339597558777, 2904607092377533576,
    ]


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 5000])
def test_draws_match_the_scalar_steps(n):
    """Every public draw is a function of the scalar ``random()`` stream
    and leaves the generator where that stream stops."""
    ref = Rng(11)
    u = np.array([ref.random() for _ in range(n)])
    after = ref.next_uint64()
    g = Rng(11)
    assert np.array_equal(g.uniform(-2.0, 3.0, n), -2.0 + 5.0 * u)
    assert g.next_uint64() == after
    g = Rng(11)
    k = np.searchsorted(CUM_PROBS, u, side="right")
    assert np.array_equal(g.choice_with_replacement(CUM_PROBS, n), np.minimum(k, 8))
    assert g.next_uint64() == after


@pytest.mark.parametrize("name", sorted(DRAWS))
def test_draw_stream_digest(name):
    assert _draw_digest(DRAWS[name]) == DRAW_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_dataset_digest(name):
    assert _table_digest(TABLES[name]()) == TABLE_DIGESTS[name]


def test_gauss_cache_carries_across_calls():
    """An odd normal draw leaves one value cached; a uniform draw does not
    touch it, and the next normal draw starts with it."""
    h = hashlib.sha256()
    for seed in range(20):
        g = Rng(seed)
        for n in (1, 1025, 3, 2047):
            _update(h, g.normal(n), g.uniform(0.0, 1.0, n), g.normal(n + 1),
                    np.uint64(g.next_uint64()))
    assert h.hexdigest() == (
        "42a2978851fa35b44bc48f31c79b2d7478852e1bb0a87086cb5be3bda29250dc")


def test_odd_normal_then_even_draws_agree_with_one_long_draw():
    g = Rng(5)
    parts = [g.normal(n) for n in (1, 1024, 1, 1025, 3, 1)]
    assert np.array_equal(np.concatenate(parts), Rng(5).normal(2055))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_seed_whose_state_reaches_zero_keeps_one_zero_word(k):
    """Seeding state k is seed + k * MIX_CONSTANT = 0 and splitmix64's output
    mix takes 0 to 0, so word k - 1 is 0, the other three are not, and the
    lanes still follow the scalar stream."""
    seed = -k * rng.MIX_CONSTANT % 2 ** 64
    g = Rng(seed)
    assert [i for i, w in enumerate([g._s0, g._s1, g._s2, g._s3]) if w == 0] == [k - 1]
    ref = Rng(seed)
    assert np.array_equal(rng._units(g, 1500), [ref.random() for _ in range(1500)])


def test_jump_matrix_is_built_on_first_use_only():
    rng._jump_columns.cache_clear()
    Rng(1).uniform(0.0, 1.0, rng._CROSSOVER - 1)
    assert rng._jump_columns.cache_info().currsize == 0
    Rng(1).uniform(0.0, 1.0, rng._CROSSOVER)
    assert rng._jump_columns.cache_info().currsize == 1


@pytest.mark.parametrize("name", sorted(DRAWS) + ["weighted_resample"])
def test_negative_size_raises(name):
    """A negative size is a ConfigError raised before any draw, so the
    generator's stream is left where it was; ``weighted_resample`` names its ``m``."""
    gen = Rng(1)
    with pytest.raises(ConfigError, match="^m: " if name == "weighted_resample" else "^size: "):
        if name == "weighted_resample":
            weighted_resample(gen_hetero_sim(5, 1), np.ones(5), -1, 0)
        else:
            DRAWS[name](gen, -1)
    assert gen.next_uint64() == Rng(1).next_uint64()
