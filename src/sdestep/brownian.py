"""Seeded Brownian increment tables and exact grid coarsening.

Strong-error studies compare several step sizes against a fine reference
driven by the *same* Brownian path, so the increments for every coarse
grid must aggregate the fine ones exactly.  A counter-based generator
(Philox) keyed by ``(base_seed, sample_index)`` gives every Monte Carlo
sample its own reproducible stream, independent of batching or thread
scheduling.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .core import TimeGrid, _require_count

__all__ = [
    "SeedSpec",
    "IncrementTable",
    "generate_increments",
    "coarsen",
    "dump_increments",
    "load_increments",
]

_HEADER = struct.Struct("<qqd")  # N, d as signed 64-bit LE, h as float64 LE


@dataclass(frozen=True)
class SeedSpec:
    """Identifies one sample's noise stream: (base_seed, sample_index)."""

    base_seed: int
    sample_index: int = 0

    def __post_init__(self) -> None:
        _require_count(0, base_seed=self.base_seed, sample_index=self.sample_index)
        if not (self.base_seed < 2**64 and self.sample_index < 2**64):
            raise ValueError(f"base_seed and sample_index must fit in 64 bits, got {self}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this sample's stream."""
        # an explicit uint64 key: a plain list above 2**63 goes through float64 and aliases seeds
        key = np.array([self.base_seed, self.sample_index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class IncrementTable:
    """Brownian increments on a grid: row j-1 holds dW^j = W(t_j) - W(t_{j-1})."""

    grid: TimeGrid
    noise_dim: int
    increments: np.ndarray  # shape (N, d)

    def __post_init__(self) -> None:
        _require_count(1, noise_dim=self.noise_dim)
        inc = np.asarray(self.increments, dtype=float)
        if inc.shape != (self.grid.N, self.noise_dim):
            raise ValueError(
                f"increments must have shape (N, d) = ({self.grid.N}, {self.noise_dim}),"
                f" got {inc.shape}"
            )
        if inc.flags.writeable:
            inc = inc.copy()
            inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)

    def total_displacement(self) -> np.ndarray:
        """W(T) - W(0), i.e. the column sums of the table."""
        return self.increments.sum(axis=0)


def _draw_rows(generators, blocks: np.ndarray, fine: np.ndarray, h: float) -> np.ndarray:
    """Fill ``fine`` with the next N(0, h) increments of each stream and return it.

    ``blocks`` is a generator-major ``(B, rows, d)`` buffer and ``fine`` a
    time-major ``(rows, B, d)`` one.  Generator i fills its own ``(rows, d)``
    block row-major, so drawing a stream in chunks gives the same numbers as
    drawing it at once; one transposing multiply then scales all blocks.
    """
    for g, block in zip(generators, blocks):
        g.standard_normal(out=block)
    return np.multiply(blocks.transpose(1, 0, 2), np.sqrt(h), out=fine)


def _coarsen_rows(fine: np.ndarray, factor: int, prefix: np.ndarray | None = None) -> np.ndarray:
    """Sums of consecutive slabs of ``factor`` rows of a time-major array.

    Output row j is fine rows j*factor .. (j+1)*factor - 1 added in ascending
    index order, one slab at a time, whatever the trailing shape.  A
    ``prefix`` holds these sums for a divisor g of ``factor`` (``_coarsen_rows(fine, g)``):
    each block then starts from its first g rows' sum and adds slabs g .. factor - 1,
    the same additions in the same order.
    """
    blocks = fine.reshape(fine.shape[0] // factor, factor, *fine.shape[1:])
    if prefix is None:
        start, out = 1, blocks[:, 0].copy()
    else:
        start = fine.shape[0] // prefix.shape[0]
        out = prefix[::factor // start].copy()
    for i in range(start, factor):
        out += blocks[:, i]
    return out


def generate_increments(grid: TimeGrid, noise_dim: int, seed: SeedSpec) -> IncrementTable:
    """Draw the full table of N(0, h) increments for one sample.

    The table is filled row-major from the sample's own counter-based
    stream, so the result depends only on ``(grid, noise_dim, seed)`` and
    never on how many other samples are being generated concurrently.
    """
    _require_count(1, noise_dim=noise_dim)
    # with one stream both layouts are the same memory, so the draw scales in place
    blocks = np.empty((1, grid.N, noise_dim))
    inc = _draw_rows([seed.generator()], blocks, blocks.transpose(1, 0, 2), grid.h)[:, 0]
    return IncrementTable(grid=grid, noise_dim=noise_dim, increments=inc)


def coarsen(table: IncrementTable, factor: int) -> IncrementTable:
    """Aggregate a fine table onto a grid with ``factor`` times fewer steps.

    Coarse row j is the sum of fine rows j*factor .. (j+1)*factor - 1,
    accumulated in ascending index order.  This reproduces the increments
    the coarse grid would see from the same underlying Brownian path.
    ``factor`` must divide the fine step count; ``factor == 1`` returns an
    identical table.
    """
    _require_count(1, factor=factor)
    fine = table.grid
    if fine.N % factor != 0:
        raise ValueError(f"factor {factor} does not divide N={fine.N}")
    if factor == 1:
        return table
    coarse_grid = TimeGrid(T=fine.T, N=fine.N // factor)
    out = _coarsen_rows(table.increments, factor)
    return IncrementTable(grid=coarse_grid, noise_dim=table.noise_dim, increments=out)


def dump_increments(table: IncrementTable, path) -> None:
    """Write a table to disk: header (N, d, h) then row-major float64 data.

    All fields are little-endian 64-bit; the payload is exactly N*d doubles.
    """
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(table.grid.N, table.noise_dim, table.grid.h))
        fh.write(np.ascontiguousarray(table.increments, dtype="<f8").tobytes())


def load_increments(path) -> IncrementTable:
    """Read a table written by :func:`dump_increments`."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise ValueError(f"truncated header in {path}")
        n, d, h = _HEADER.unpack(raw)
        if n < 1 or d < 1 or not (h > 0 and np.isfinite(h * n)):
            raise ValueError(
                f"invalid header (N={n}, d={d}, h={h}) in {path}:"
                " h must be a positive finite real, and so must N*h"
            )
        size = 8 * n * d
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != left:
            raise ValueError(
                f"header (N={n}, d={d}) needs {size} payload bytes, {path} holds {left}"
            )
        payload = fh.read(size)
    inc = np.frombuffer(payload, dtype="<f8").astype(float).reshape(n, d)
    grid = TimeGrid(T=h * n, N=n)
    return IncrementTable(grid=grid, noise_dim=d, increments=inc)
