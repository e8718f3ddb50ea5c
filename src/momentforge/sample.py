"""The one module that imports numpy, loaded only by the stages that
sample: the op's one seeded lattice stream, the exact pairing kernel of
the moment and the polytope test, the coverage binning and the sample table.

Samples lie on the lattice (1/P) Z^dim with P = geom.LATTICE = 2^31 - 1, a
prime, and are held as int64 numerators over P: a in [0, P) on the torus
and theta slots, 2b - P with b in [0, P) on the height slots.  Every
linear component then takes an exact rational value at a sample, with a
denominator known from its covector, and the pairing of an integral torus
covector K with the torus slots is exactly uniform on (1/P)Z / Z whenever
some entry of K is nonzero mod P, however large K is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ratlin
from .convex import MomentPolytope
from .geom import LATTICE, ProductForm
from .moment import GeneralizedMoment

# product_coverage_check allocates grid^(c+r) cells, at most this many
MAX_COVERAGE_CELLS = 2 ** 20
# it bins its draw in chunks of this many rows at first, doubling each time
COVERAGE_CHUNK = 1024
# and tests the mu1 cell centres this many numerators at a time
CELL_BLOCK_ENTRIES = 2 ** 18
# table_blocks writes the sample table this many cells (or one row) at a time
TABLE_BLOCK_ENTRIES = 2 ** 13


def sample_points(form: ProductForm, n: int, seed: int) -> np.ndarray:
    """The first n rows of Stream(form, seed); h = (2b - P) / P is uniform
    on [-1, 1), which is the uniform area measure on the sphere.  Float
    callers divide by LATTICE."""
    return Stream(form, seed).rows(n)


class Stream:
    """One op's samples: the rows of one np.random.default_rng(seed), in
    the blocks the stages ask for.  head holds the sample table's rows once
    drawn; the coverage check bins them, then draws on past them."""

    def __init__(self, form: ProductForm, seed: int):
        self.form = form
        self.bits = np.random.default_rng(seed).bit_generator
        self.head = np.empty((0, 0))

    def rows(self, n: int) -> np.ndarray:
        """The next n rows, as int64 numerators over LATTICE (see the
        module docs): the top 31 bits of raw 64-bit draws, uniform on [0, P],
        with every P drawn again as the stream continues, so that no row
        depends on how the stream is cut into blocks."""
        raw = self.bits.random_raw(n * self.form.dim) >> 33
        while (again := raw == LATTICE).any():
            raw = np.concatenate([raw[~again], self.bits.random_raw(
                int(again.sum())) >> 33])
        out = raw.view(np.int64).reshape(n, self.form.dim)
        heights = slice(self.form.torus_dim + 1, None, 2)
        out[:, heights] = out[:, heights] * 2 - LATTICE
        return out

    def table(self, moment: GeneralizedMoment, n: int) -> tuple:
        """The header and the rows of the sample table, kept as head: the
        first n rows' numerators over LATTICE, then mu1's and mu2's."""
        nums = self.rows(n)
        self.head = np.hstack([nums, moment.mu1_values(nums),
                               moment.mu2_values(nums)])
        return (tuple([f"x{i}/{LATTICE}" for i in range(self.form.dim)]
                      + [f"mu1_{i}/{moment.mu1_den}" for i in range(moment.c)]
                      + [f"mu2_{i}/{moment.mu2_den}"
                         for i in range(moment.r)]), self.head)


def exact_dtype(bound: int):
    """int64 when bound, the caller's bound on every intermediate it
    computes, stays below 2^63; object (Python ints) otherwise, on which
    the same numpy code runs without overflow."""
    return np.int64 if bound < 2 ** 63 else object


class Pairing:
    """nums -> offset_i + <coeff row i, num> for every row of nums (entries
    at most top in absolute value, P by default), one column per
    coefficient row, as one exact integer product: int64 when bound and
    every |offset_i| + sum_j |coeff_ij| top, which bounds each partial sum,
    stay below 2^63, Python ints otherwise.  Float nums raise: the cast
    would truncate them to integers without a word."""

    def __init__(self, coeffs: list, offsets: list, bound: int,
                 top: int = LATTICE):
        self.dtype = exact_dtype(max([bound] + [
            abs(o) + sum(map(abs, row)) * top
            for row, o in zip(coeffs, offsets)]))
        self.used = [j for j, col in enumerate(zip(*coeffs)) if any(col)]
        self.coef = np.array([[row[j] for row in coeffs] for j in self.used],
                             self.dtype).reshape(len(self.used), len(coeffs))
        self.offsets = np.array(offsets, dtype=self.dtype)

    def __call__(self, nums: np.ndarray) -> np.ndarray:
        if nums.dtype.kind not in "iuO":
            raise TypeError("moment values take integer lattice numerators, "
                            f"not {nums.dtype}")
        cols = np.asarray(nums[:, self.used], dtype=self.dtype)
        return cols @ self.coef + self.offsets


def within(normals, bounds: list, nums) -> np.ndarray:
    """Per row x of the integer numerators nums (an array or nested lists):
    |<n, x>| <= b for every normal n and its bound b, paired exactly."""
    nums = np.asarray(nums)
    if nums.dtype.kind not in "iuO":
        raise TypeError("the polytope test takes integer numerators, "
                        f"not {nums.dtype}")
    top = int(abs(nums).max(initial=0))
    pairs = Pairing(normals, [0] * len(normals), max(map(abs, bounds)),
                    top)(nums)
    return (abs(pairs) <= bounds).all(axis=1)


# ---------------------------------------------------------------------------
# coverage

@dataclass(frozen=True)
class CoverageReport:
    grid_resolution: int
    fraction: float
    n_counted_cells: int
    n_hit_cells: int
    empty_cells: tuple   # first few witnesses, as flat cell indices


def product_coverage_check(moment: GeneralizedMoment,
                           polytope: MomentPolytope, grid_resolution: int,
                           n: int, stream: Stream) -> CoverageReport:
    """Bin image samples over (cells of the box around the mu1 polytope) x
    (circle bins) and report the hit fraction.  Only mu1 cells that lie in
    the polytope, exactly, count in the denominator.  The samples are
    lattice points, so every bin is an exact integer floor: a circle bin is
    floor(res mu2), and a mu1 bin is floor(res (mu1 + h) / 2h) for the
    exact half-width h of the box, clipped to the grid.

    n caps the draw at the stream's first n rows.  The moment values of
    the rows in stream.head are binned as they are; the stream then draws
    on past them in blocks of COVERAGE_CHUNK rows, doubling, until n rows
    are binned or every counted cell is hit.  Later rows could only hit
    cells again, so the report is that of all n rows: every counted cell
    hit, no empty witness.  This is the stream's last draw, and no block
    is kept."""
    if n < 1:
        raise ValueError("need at least one sample")
    c, r, dim = moment.c, moment.r, moment.omega_prime.dim
    res = grid_resolution
    mu1_den, mu2_den = moment.mu1_den, moment.mu2_den
    # the counted cells that no binned sample has hit yet
    left = np.ones((res,) * (c + r), dtype=bool)
    axes = []
    if c:
        # the box spans 2h, or 1 where h = 0: h = x / e and the span s / e;
        # |mu1| <= h at every point, so no intermediate exceeds s den1 res
        [xs], e = ratlin.lowest([[max(abs(v[i]) for v in polytope.vertices)
                                  for i in range(c)]], polytope.den)
        spans = [2 * x or e for x in xs]
        axes = [(x, s, exact_dtype(s * mu1_den * res))
                for x, s in zip(xs, spans)]
        left &= _counted_cells(polytope, res, xs, e, spans).reshape(
            (res,) * c + (1,) * r)
    mu2_dtype = exact_dtype(mu2_den * res)

    def hit(mu1, mu2):
        flat = np.zeros(len(mu1), dtype=np.int64)
        for col, (x, s, dtype) in zip(mu1.T, axes):
            num = col.astype(dtype) * e + x * mu1_den
            flat = flat * res + np.clip(num * res // (s * mu1_den), 0,
                                        res - 1).astype(np.int64)
        for col in mu2.T:
            flat = flat * res + (col.astype(mu2_dtype) * res
                                 // mu2_den).astype(np.int64)
        left.ravel()[flat] = False

    n_counted = int(left.sum())
    head = stream.head[:n]
    hit(head[:, dim:dim + c], head[:, dim + c:])
    done, size = len(head), COVERAGE_CHUNK
    while done < n and left.any():
        nums = stream.rows(min(size, n - done))
        hit(moment.mu1_values(nums), moment.mu2_values(nums))
        done, size = done + len(nums), 2 * size
    n_hit = n_counted - int(left.sum())
    fraction = n_hit / n_counted if n_counted else 1.0
    return CoverageReport(res, fraction, n_counted, n_hit,
                          tuple(int(i) for i in np.flatnonzero(left)[:16]))


def _counted_cells(polytope: MomentPolytope, res: int, xs: list, e: int,
                   spans: list) -> np.ndarray:
    """The flat res^c mask of the mu1 cells whose box lies in the polytope:
    the cell with digit d on an axis has centre ((2 d + 1) s - 2 res x) /
    (2 res e) there and half-width s / (2 res e).  The centres are built
    axis by axis and tested in blocks of at most CELL_BLOCK_ENTRIES
    numerators, so memory does not grow with c."""
    c = len(xs)
    total = res ** c
    counted = np.zeros(total, dtype=bool)
    dtype = exact_dtype(2 * res * e * max(spans))
    centre = [np.array([(2 * d + 1) * s - 2 * res * x for d in range(res)],
                       dtype) for x, s in zip(xs, spans)]
    step = max(1, CELL_BLOCK_ENTRIES // c)
    for lo in range(0, total, step):
        hi = min(total, lo + step)
        rest = np.arange(lo, hi)
        centres = np.empty((c, hi - lo), dtype)
        for axis in reversed(range(c)):
            rest, digit = np.divmod(rest, res)
            centres[axis] = centre[axis][digit]
        counted[lo:hi] = polytope.contains(centres.T, 2 * res * e, spans)
    return counted


# two decimal digits per little-endian 16-bit unit.  Entries 100-199 are
# 00-99; entry v < 100 is a number's leftmost pair, v with no leading zero
# (0: all NUL, left of the number).  A number's last pair writes 0 as "0".
_PAIRS = np.frombuffer("".join(
    [str(v or "").rjust(2, "\0") for v in range(100)]
    + [f"{v:02d}" for v in range(100)]).encode(), dtype="<u2")
_LAST_PAIRS = np.concatenate([np.frombuffer(b"\0" b"0", "<u2"), _PAIRS[1:]])


def decimal_table(a: np.ndarray) -> bytes:
    """The rows of a 2-D integer table as "%d" per cell writes them,
    comma-separated, one line per row.  An int64 table is written with
    numpy integer arithmetic: a fixed run of 16-bit units per cell (the
    separator before it and its sign, then its digits two at a time), and
    one pass that deletes the NUL bytes left of every number."""
    n, cols = a.shape
    if a.dtype == object:
        line = ",".join(["%d"] * cols) + "\n"
        return ((line * n) % tuple(a.ravel().tolist())).encode()
    mag = np.abs(a.ravel()).view(np.uint64)    # |-2^63| wraps to 2^63
    top = int(mag.max())
    width = (len(str(top)) + 1) // 2
    # the first row's newline unit moves to the end of the table
    units = np.empty(a.size * (width + 1) + 1, dtype="<u2")
    cells = units[:-1].reshape(a.size, width + 1)
    seps = np.array([ord("\n")] + [ord(",")] * (cols - 1), dtype="<u2")
    np.add((a < 0) * np.uint16(ord("-") << 8), seps,
           out=cells[:, 0].reshape(a.shape))
    units[0] -= ord("\n")
    units[-1] = ord("\n")
    idx = np.empty(a.size, dtype=np.intp)
    table = _LAST_PAIRS
    for k in range(width, 0, -1):
        if top < 2 ** 32:
            mag = mag.astype(np.uint32, copy=False)    # faster division
        q = mag // 100
        # a magnitude below 100 is its own index, any other 100 + its last
        # two digits
        np.minimum(mag, mag - q * 100 + 100, out=idx, casting="unsafe")
        cells[:, k] = table[idx]
        table, mag, top = _PAIRS, q, top // 100
    return units.tobytes().translate(None, b"\0")


def table_blocks(a: np.ndarray):
    """decimal_table(a) as the bytes of consecutive blocks of whole rows,
    each of at most TABLE_BLOCK_ENTRIES cells or one row, so that its
    temporaries stay small whatever the table's length."""
    step = max(1, TABLE_BLOCK_ENTRIES // a.shape[1])
    for lo in range(0, len(a), step):
        yield decimal_table(a[lo:lo + step])
