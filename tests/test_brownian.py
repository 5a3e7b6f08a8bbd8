"""Unit tests for seeded increment generation, coarsening, and the dump format."""

import struct

import numpy as np
import pytest
from scipy import stats

from sdestep import (
    BDF2,
    EXPLICIT_EULER,
    ImplicitSolverConfig,
    IncrementTable,
    SeedSpec,
    TimeGrid,
    coarsen,
    dump_increments,
    generate_increments,
    integrate,
    load_increments,
    make_model,
)
from sdestep.brownian import _coarse_chunks, _coarsen_rows


def test_seed_spec_validation():
    SeedSpec(base_seed=2**64 - 1, sample_index=0)
    with pytest.raises(ValueError):
        SeedSpec(base_seed=-1)
    with pytest.raises(ValueError):
        SeedSpec(base_seed=2**64)
    with pytest.raises(ValueError):
        SeedSpec(base_seed=0, sample_index=-1)
    with pytest.raises(ValueError, match="must fit in 64 bits"):
        SeedSpec(base_seed=0, sample_index=2**64)


@pytest.mark.parametrize("value", [2.5, float("nan")])
@pytest.mark.parametrize("field", ["base_seed", "sample_index"])
def test_seed_spec_rejects_non_integers_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
        SeedSpec(**dict(dict(base_seed=1, sample_index=0), **{field: value}))


@pytest.mark.parametrize("value", [2.5, float("nan")])
def test_dimensions_and_factors_must_be_integers(value):
    grid = TimeGrid(T=1.0, N=4)
    table = IncrementTable(grid=grid, noise_dim=1, increments=np.zeros((4, 1)))
    calls = {
        "noise_dim": [
            lambda v: IncrementTable(grid=grid, noise_dim=v, increments=np.zeros((4, 1))),
            lambda v: generate_increments(grid, v, SeedSpec(1)),
        ],
        "factor": [lambda v: coarsen(table, v)],
    }
    for name, fns in calls.items():
        for fn in fns:
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value}$"):
                fn(value)


def test_seeds_above_two_to_the_63_keep_their_own_stream():
    # a plain-list Philox key went through float64 there: 2**64 - 2 became seed 0
    for seed in (2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1):
        key = SeedSpec(seed, 3).generator().bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [seed, 3]
    first = [SeedSpec(s, 0).generator().standard_normal() for s in (0, 2**63, 2**63 + 1, 2**64 - 2)]
    assert len(set(first)) == 4
    numpy_ints = SeedSpec(np.uint64(2**64 - 1), np.int64(3)).generator().standard_normal(4)
    assert np.array_equal(numpy_ints, SeedSpec(2**64 - 1, 3).generator().standard_normal(4))


def test_generation_is_deterministic_and_streams_are_distinct():
    grid = TimeGrid(T=1.0, N=256)
    a = generate_increments(grid, 2, SeedSpec(42, 7))
    b = generate_increments(grid, 2, SeedSpec(42, 7))
    assert np.array_equal(a.increments, b.increments)
    c = generate_increments(grid, 2, SeedSpec(42, 8))
    d = generate_increments(grid, 2, SeedSpec(43, 7))
    assert not np.array_equal(a.increments, c.increments)
    assert not np.array_equal(a.increments, d.increments)


def test_chunked_draws_match_one_shot_generation():
    """Consuming a stream in chunks must give the same increments bitwise.

    The study engine draws each sample's fine noise in pieces; this only
    works because the generator's output is a fixed sequence independent of
    how it is sliced into requests.
    """
    grid = TimeGrid(T=1.0, N=1000)
    table = generate_increments(grid, 3, SeedSpec(5, 11))
    rng = SeedSpec(5, 11).generator()
    parts = [rng.standard_normal((200, 3)) for _ in range(5)]
    chunked = np.concatenate(parts, axis=0) * np.sqrt(grid.h)
    assert np.array_equal(table.increments, chunked)


def test_increment_moments_at_scale():
    # N = 1e5 draws of N(0, h): mean within 4 standard errors, variance within 5%
    grid = TimeGrid(T=100.0, N=100_000)
    h = grid.h
    table = generate_increments(grid, 1, SeedSpec(2024, 0))
    x = table.increments[:, 0]
    assert abs(x.mean()) <= 4.0 * np.sqrt(h / x.size)
    assert abs(x.var() - h) <= 0.05 * h


def test_normalized_increments_pass_ks():
    grid = TimeGrid(T=100.0, N=100_000)
    table = generate_increments(grid, 1, SeedSpec(77, 3))
    z = table.increments[:, 0] / np.sqrt(grid.h)
    ks = stats.kstest(z, "norm")
    assert ks.statistic < 0.01


def test_streams_are_empirically_uncorrelated():
    grid = TimeGrid(T=100.0, N=100_000)
    x = generate_increments(grid, 1, SeedSpec(9, 0)).increments[:, 0]
    y = generate_increments(grid, 1, SeedSpec(9, 1)).increments[:, 0]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) < 0.02


def test_total_displacement_is_column_sums():
    grid = TimeGrid(T=1.0, N=4)
    inc = np.arange(8.0).reshape(4, 2)
    table = IncrementTable(grid=grid, noise_dim=2, increments=inc)
    assert np.array_equal(table.total_displacement(), inc.sum(axis=0))


def test_increment_table_validation():
    grid = TimeGrid(T=1.0, N=4)
    with pytest.raises(ValueError):
        IncrementTable(grid=grid, noise_dim=2, increments=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        IncrementTable(grid=grid, noise_dim=0, increments=np.zeros((4, 0)))
    table = IncrementTable(grid=grid, noise_dim=1, increments=np.zeros((4, 1)))
    with pytest.raises(ValueError):
        table.increments[0, 0] = 1.0  # frozen buffer


def test_coarsen_identity_and_pair_sums():
    grid = TimeGrid(T=1.0, N=4)
    table = IncrementTable(grid=grid, noise_dim=1, increments=np.array([[1.0], [2.0], [4.0], [8.0]]))
    same = coarsen(table, 1)
    assert same.grid == grid
    assert np.array_equal(same.increments, table.increments)

    half = coarsen(table, 2)
    assert half.grid.N == 2
    assert half.grid.h == 0.5
    assert np.array_equal(half.increments, np.array([[3.0], [12.0]]))

    with pytest.raises(ValueError):
        coarsen(table, 3)
    with pytest.raises(ValueError):
        coarsen(table, 0)


def test_coarsen_preserves_total_displacement():
    grid = TimeGrid(T=1.0, N=4096)
    table = generate_increments(grid, 2, SeedSpec(1, 0))
    total = table.total_displacement()
    # the net displacement can cancel to near zero, so the rounding budget
    # scales with the summed magnitudes, not with the total itself
    mass = np.sum(np.abs(table.increments), axis=0)
    for factor in (2, 8, 64, 4096):
        got = coarsen(table, factor).total_displacement()
        assert np.all(np.abs(got - total) <= 1e-15 * (1.0 + mass))


def test_coarsen_two_stage_agrees_with_direct():
    """coarsen(coarsen(x,2),2) vs coarsen(x,4): same sums, different grouping.

    The two-stage route parenthesizes the four-term sums as (a+b)+(c+d)
    instead of ((a+b)+c)+d, so bitwise equality is not guaranteed; agreement
    is required at the rounding level instead.
    """
    grid = TimeGrid(T=1.0, N=512)
    table = generate_increments(grid, 2, SeedSpec(3, 4))
    two_stage = coarsen(coarsen(table, 2), 2).increments
    direct = coarsen(table, 4).increments
    assert two_stage.shape == direct.shape == (128, 2)
    assert np.all(np.abs(two_stage - direct) <= 1e-15 * (1.0 + np.abs(direct)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2])
def test_coarsening_from_a_divisor_prefix_is_bitwise_equal_to_direct(d):
    """Continuing from the sums of a divisor g of f does f's additions in f's order."""
    fine = np.random.default_rng(4).standard_normal((48, 3, d))
    fine[12:24, 1] = -0.0  # sums to -0.0 only when a block starts from its first row, not +0.0
    fine[2, 0, -1] = np.nan
    fine[9, 1, -1], fine[10, 1, -1] = np.inf, -np.inf  # inf - inf in every block of f >= 3
    fine[17, 2, -1] = -np.inf
    fine[40, 2, 0] = 5e-324
    divisors = (1, 2, 3, 4, 6, 12)
    for f in divisors:
        direct = _coarsen_rows(fine, f).tobytes()
        for g in [g for g in divisors if f % g == 0]:
            assert _coarsen_rows(fine, f, _coarsen_rows(fine, g)).tobytes() == direct


def test_coarse_chunks_equal_each_stream_drawn_and_coarsened_at_once():
    """Chunk by chunk, every stream's draws and sums are the bits of its one-shot table."""
    grid = TimeGrid(T=1.0, N=60)
    factors = (10, 4, 1, 5)  # lcm 20: three chunks; 10 continues from 5's sums, 4 from 1's
    tables = [generate_increments(grid, 2, SeedSpec(7, i)) for i in range(3)]
    gens = [SeedSpec(7, i).generator() for i in range(3)]
    starts = []
    for start, fine, sums in _coarse_chunks(gens, grid.h, grid.N, 2, factors):
        starts.append(start)
        assert fine.shape == (20, 3, 2)
        for i, table in enumerate(tables):
            assert fine[:, i].tobytes() == table.increments[start:start + 20].tobytes()
            for f in factors:
                want = coarsen(table, f).increments[start // f:(start + 20) // f]
                assert sums[f][:, i].tobytes() == want.tobytes(), f
    assert starts == [0, 20, 40]


class _CountingGenerator:
    """A generator that counts its draw calls."""

    def __init__(self, gen):
        self.gen, self.calls = gen, 0

    def standard_normal(self, **kw):
        self.calls += 1
        return self.gen.standard_normal(**kw)


@pytest.mark.parametrize(
    "factors,steps,chunk",
    [((1,), 1600, 64), ((1,), 1575, 75), ((3,), 3063, 3)],
    ids=["64-of-1600", "75-of-1575", "capped-lcm-3"],
)
def test_coarse_chunks_draw_fine_ladders_in_large_chunks_bitwise(factors, steps, chunk):
    """A chunk is the smallest multiple of the lcm in [64, max(lcm, 1024)] that divides
    the steps (3063 = 3 * 1021 has none), and the chunks still hold the one-shot bits."""
    grid = TimeGrid(T=1.0, N=steps)
    tables = [generate_increments(grid, 1, SeedSpec(9, i)) for i in range(2)]
    gens = [_CountingGenerator(SeedSpec(9, i).generator()) for i in range(2)]
    fines, sums = [], {f: [] for f in factors}
    for _, fine, chunk_sums in _coarse_chunks(gens, grid.h, steps, 1, factors):
        assert len(fine) == chunk
        fines.append(fine.copy())
        for f in factors:
            sums[f].append(chunk_sums[f].copy())
    assert [g.calls for g in gens] == [steps // chunk] * 2
    for i, table in enumerate(tables):
        assert np.concatenate(fines)[:, i].tobytes() == table.increments.tobytes()
        for f in factors:
            want = coarsen(table, f).increments
            assert np.concatenate(sums[f])[:, i].tobytes() == want.tobytes(), f


def test_coarsen_matches_ascending_python_sum():
    # the accumulation order is pinned: ascending fine index, one block at a time
    grid = TimeGrid(T=1.0, N=12)
    table = generate_increments(grid, 1, SeedSpec(100, 0))
    out = coarsen(table, 3).increments
    for j in range(4):
        acc = table.increments[3 * j].copy()
        for i in (1, 2):
            acc = acc + table.increments[3 * j + i]
        assert np.array_equal(out[j], acc)


def test_dump_load_round_trip_and_layout(tmp_path):
    grid = TimeGrid(T=2.0, N=10)
    table = generate_increments(grid, 3, SeedSpec(8, 2))
    path = tmp_path / "table.bin"
    dump_increments(table, path)

    raw = path.read_bytes()
    n, d, h = struct.unpack("<qqd", raw[:24])
    assert (n, d) == (10, 3)
    assert h == grid.h
    assert len(raw) == 24 + 8 * n * d
    payload = np.frombuffer(raw[24:], dtype="<f8").reshape(n, d)
    assert np.array_equal(payload, table.increments)

    loaded = load_increments(path)
    assert loaded.grid.N == 10
    assert loaded.noise_dim == 3
    assert loaded.grid.h == grid.h
    assert np.array_equal(loaded.increments, table.increments)


@pytest.mark.parametrize("n", [49, 98])
def test_a_loaded_table_integrates_like_the_original(tmp_path, n):
    # the loaded grid's T = h*N is 0.9999999999999999 here, but N and h are the original ones
    grid = TimeGrid(T=1.0, N=n)
    table = generate_increments(grid, 1, SeedSpec(3, 1))
    path = tmp_path / "table.bin"
    dump_increments(table, path)
    loaded = load_increments(path)
    _, model = make_model("vol32", 4.0, 1.0)
    cfg = ImplicitSolverConfig()
    want = integrate(model, BDF2, cfg, grid, table, [1.0]).states
    got = integrate(model, BDF2, cfg, grid, loaded, [1.0]).states
    assert got.tobytes() == want.tobytes()


def test_every_coarsening_of_a_loaded_table_integrates_like_the_original(tmp_path):
    # a loaded grid's T = h*N can be an ulp off, so a coarsened one's h can be too (N=98 by 49)
    _, model = make_model("vol32", 4.0, 1.0)
    cfg = ImplicitSolverConfig()
    path = tmp_path / "table.bin"
    for n in range(1, 201):
        table = generate_increments(TimeGrid(T=1.0, N=n), 1, SeedSpec(6, n))
        dump_increments(table, path)
        loaded = load_increments(path)
        for factor in (f for f in range(1, n + 1) if n % f == 0):
            grid = TimeGrid(T=1.0, N=n // factor)
            want = integrate(model, EXPLICIT_EULER, cfg, grid, coarsen(table, factor), [1.0])
            got = integrate(model, EXPLICIT_EULER, cfg, grid, coarsen(loaded, factor), [1.0])
            assert got.states.tobytes() == want.states.tobytes(), (n, factor)


@pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -1.0, 1e308])
def test_load_rejects_a_header_step_that_is_no_positive_finite_real(tmp_path, h):
    path = tmp_path / "bad_h.bin"
    path.write_bytes(struct.pack("<qqd", 4, 1, h) + bytes(32))
    with pytest.raises(ValueError, match="invalid header .*bad_h.bin"):
        load_increments(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_rejects_a_non_finite_payload_naming_the_first_bad_row(tmp_path, bad):
    # such a table once loaded as is, and integrate ran it into NaN without an error
    table = IncrementTable(TimeGrid(T=0.4, N=4), 1, np.array([[0.1], [bad], [0.2], [np.inf]]))
    path = tmp_path / "bad_payload.bin"
    dump_increments(table, path)
    with pytest.raises(ValueError, match=rf"^row 1 of .*bad_payload.bin holds a non-finite "
                                         rf"increment: \[{bad}\]$"):
        load_increments(path)


def test_load_rejects_truncated_files(tmp_path):
    grid = TimeGrid(T=1.0, N=4)
    table = generate_increments(grid, 1, SeedSpec(0, 0))
    path = tmp_path / "table.bin"
    dump_increments(table, path)
    blob = path.read_bytes()

    short_header = tmp_path / "short_header.bin"
    short_header.write_bytes(blob[:10])
    with pytest.raises(ValueError):
        load_increments(short_header)

    short_payload = tmp_path / "short_payload.bin"
    short_payload.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_increments(short_payload)


@pytest.mark.parametrize("n", [2**40, 2**62])
def test_load_rejects_headers_larger_than_the_file(tmp_path, n):
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack("<qqd", n, 1, 1.0 / n) + bytes(64))
    with pytest.raises(ValueError, match="payload bytes"):
        load_increments(path)


def test_load_rejects_trailing_bytes(tmp_path):
    table = generate_increments(TimeGrid(T=1.0, N=4), 1, SeedSpec(0, 0))
    path = tmp_path / "table.bin"
    dump_increments(table, path)
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="payload bytes"):
        load_increments(path)
