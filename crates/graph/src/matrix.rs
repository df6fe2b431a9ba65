//! Dense square matrices and the tropical distance product.
//!
//! The distance product (Definition 2 of the paper) of `A` and `B` is the
//! matrix `C` with `C[i,j] = min_k (A[i,k] + B[k,j])` — matrix
//! multiplication over the `(min, +)` semiring. Shortest-path distances are
//! the `n`-th distance-product power of the weighted adjacency matrix
//! (Proposition 3). This module provides the local implementations the
//! distributed algorithms are verified against.
//!
//! [`distance_product`] / [`distance_product_with_threads`] is a
//! cache-blocked (tiled) kernel with row-band parallelism over
//! `std::thread::scope` workers (worker count from `QCC_THREADS`, see
//! [`qcc_perf::resolve_threads`]). Min over `k` is order-independent on
//! plain values, so the tiled schedule is **bit-identical** to the
//! textbook `i, k, j` triple loop for every input; `tests/proptests.rs`
//! keeps that loop as its ground truth and asserts the identity across
//! random matrices including `±∞` and negative weights.

use crate::weight::ExtWeight;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `n × n` matrix in row-major order.
///
/// # Examples
///
/// ```
/// use qcc_graph::{ExtWeight, SquareMatrix};
///
/// let mut m = SquareMatrix::filled(2, ExtWeight::PosInf);
/// m[(0, 1)] = ExtWeight::from(5);
/// assert_eq!(m[(0, 1)], ExtWeight::from(5));
/// assert_eq!(m.n(), 2);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SquareMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Clone> SquareMatrix<T> {
    /// Creates an `n × n` matrix with every entry set to `fill`.
    pub fn filled(n: usize, fill: T) -> Self {
        SquareMatrix {
            n,
            data: vec![fill; n * n],
        }
    }

    /// Creates a matrix from a row-major entry generator.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcc_graph::SquareMatrix;
    ///
    /// let m = SquareMatrix::from_fn(3, |i, j| (i * 10 + j) as u64);
    /// assert_eq!(m[(2, 1)], 21);
    /// ```
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                data.push(f(i, j));
            }
        }
        SquareMatrix { n, data }
    }

    /// Side length of the matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.n..(i + 1) * self.n]
    }

    /// Iterates over `(i, j, &entry)` in row-major order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        self.data
            .iter()
            .enumerate()
            .map(move |(k, t)| (k / self.n, k % self.n, t))
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Index<(usize, usize)> for SquareMatrix<T> {
    type Output = T;

    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.n + j]
    }
}

impl<T> IndexMut<(usize, usize)> for SquareMatrix<T> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.n + j]
    }
}

impl<T: fmt::Debug> fmt::Debug for SquareMatrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "SquareMatrix(n={})", self.n)?;
        for i in 0..self.n {
            write!(f, "  [")?;
            for j in 0..self.n {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", self.data[i * self.n + j])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

/// A weight matrix over the extended integers.
pub type WeightMatrix = SquareMatrix<ExtWeight>;

impl WeightMatrix {
    /// The identity of the distance product: `0` on the diagonal, `+∞` elsewhere.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcc_graph::{distance_product, ExtWeight, WeightMatrix};
    ///
    /// let id = WeightMatrix::distance_identity(3);
    /// let a = WeightMatrix::from_fn(3, |i, j| ExtWeight::from((i + j) as i64));
    /// assert_eq!(distance_product(&a, &id), a);
    /// ```
    pub fn distance_identity(n: usize) -> Self {
        SquareMatrix::from_fn(n, |i, j| {
            if i == j {
                ExtWeight::ZERO
            } else {
                ExtWeight::PosInf
            }
        })
    }

    /// Largest finite magnitude among the entries (0 if none).
    pub fn max_finite_magnitude(&self) -> u64 {
        self.data.iter().map(|w| w.magnitude()).max().unwrap_or(0)
    }

    /// Largest finite magnitude across this matrix and `other` — the `M`
    /// of the paper's `O(log M)` binary searches over a product `A ⋆ B`.
    pub fn max_finite_magnitude_with(&self, other: &Self) -> u64 {
        self.max_finite_magnitude()
            .max(other.max_finite_magnitude())
    }
}

/// Edge length of the cache tiles of the blocked min-plus kernel.
///
/// 64 × 64 tiles of 16-byte `ExtWeight` entries keep one `B` tile plus the
/// active `C` tile rows comfortably inside a typical 32 KiB L1 data cache.
pub const MIN_PLUS_TILE: usize = 64;

/// Sentinel code for "no entry / +∞" in the flat i64 min-plus kernels.
///
/// The flat kernels trade the three-variant [`ExtWeight`] for plain `i64`
/// lanes the compiler can vectorize: a missing entry is coded as `1 << 62`,
/// finite entries are themselves, and any accumulated value above
/// [`TROPICAL_FINITE_MAX`]`· 2` decodes back to "no entry". This is exact —
/// not approximate — as long as every finite input magnitude is at most
/// [`TROPICAL_FINITE_MAX`]: finite sums stay `≤ 2^60` while any sum through
/// the sentinel stays `≥ 2^62 − 2^59`, so coded infinities can never beat a
/// real path and additions never overflow `i64`.
pub const TROPICAL_NONE: i64 = 1 << 62;

/// Largest finite input magnitude the flat i64 kernels accept exactly.
pub const TROPICAL_FINITE_MAX: i64 = 1 << 59;

/// Decodes an accumulated flat-kernel value: anything beyond the reach of
/// pure finite sums must have passed through [`TROPICAL_NONE`].
#[inline]
pub fn tropical_decode(v: i64) -> Option<i64> {
    if v > 2 * TROPICAL_FINITE_MAX {
        None
    } else {
        Some(v)
    }
}

/// Rectangular flat min-plus accumulation:
/// `c[i·cols + l] = min(c[i·cols + l], min_j (a[i·inner + j] + b[j·cols + l]))`.
///
/// All slices are sentinel-coded per [`TROPICAL_NONE`]; `c` must be
/// pre-filled (typically with `TROPICAL_NONE`). The inner loop runs over
/// contiguous `c` and `b` rows with branch-free `min(add)` lanes — the
/// SIMD-friendly core shared by [`distance_product`] and the batched
/// oracle-census evaluator of the APSP crate.
///
/// # Panics
///
/// Panics if the slice lengths do not match `rows·inner`, `inner·cols`,
/// and `rows·cols`.
pub fn min_plus_flat_into(
    a: &[i64],
    b: &[i64],
    rows: usize,
    inner: usize,
    cols: usize,
    c: &mut [i64],
) {
    assert_eq!(a.len(), rows * inner);
    assert_eq!(b.len(), inner * cols);
    assert_eq!(c.len(), rows * cols);
    for i in 0..rows {
        let arow = &a[i * inner..(i + 1) * inner];
        let crow = &mut c[i * cols..(i + 1) * cols];
        for (j, &aij) in arow.iter().enumerate() {
            // A coded "no entry" can never win; skipping it keeps the
            // inner loop's additions within the exactness bound.
            if aij > TROPICAL_FINITE_MAX {
                continue;
            }
            let brow = &b[j * cols..(j + 1) * cols];
            for (cil, &bjl) in crow.iter_mut().zip(brow) {
                let cand = aij + bjl;
                if cand < *cil {
                    *cil = cand;
                }
            }
        }
    }
}

/// Encodes a weight matrix for the flat i64 kernels, or `None` when the
/// matrix is outside their exact domain (a `−∞` entry, or a finite entry
/// beyond [`TROPICAL_FINITE_MAX`]).
pub(crate) fn tropical_encode(m: &WeightMatrix) -> Option<Vec<i64>> {
    let mut coded = Vec::with_capacity(m.n() * m.n());
    for w in m.as_slice() {
        coded.push(match *w {
            ExtWeight::PosInf => TROPICAL_NONE,
            ExtWeight::Finite(x) if x.unsigned_abs() <= TROPICAL_FINITE_MAX as u64 => x,
            _ => return None,
        });
    }
    Some(coded)
}

/// Decodes a sentinel-coded `n × n` matrix per [`tropical_decode`].
pub(crate) fn tropical_decode_matrix(n: usize, coded: &[i64]) -> WeightMatrix {
    let mut m = WeightMatrix::filled(n, ExtWeight::PosInf);
    for (dst, &v) in m.as_mut_slice().iter_mut().zip(coded) {
        if let Some(x) = tropical_decode(v) {
            *dst = ExtWeight::Finite(x);
        }
    }
    m
}

/// Computes rows `rows` of `A ⋆ B` into `c_rows` (row-major, pre-filled
/// with `+∞`) with `MIN_PLUS_TILE`-blocked loops.
///
/// Min over `k` is order- and grouping-independent, so the tiled schedule
/// produces exactly the entries of the textbook triple loop.
fn min_plus_rows(
    a: &WeightMatrix,
    b: &WeightMatrix,
    rows: std::ops::Range<usize>,
    c_rows: &mut [ExtWeight],
) {
    let n = a.n();
    debug_assert_eq!(c_rows.len(), rows.len() * n);
    for (bi, i) in rows.enumerate() {
        let arow = a.row(i);
        let crow = &mut c_rows[bi * n..(bi + 1) * n];
        for kb in (0..n).step_by(MIN_PLUS_TILE) {
            let kend = (kb + MIN_PLUS_TILE).min(n);
            for jb in (0..n).step_by(MIN_PLUS_TILE) {
                let jend = (jb + MIN_PLUS_TILE).min(n);
                let ctile = &mut crow[jb..jend];
                for (k, &aik) in arow.iter().enumerate().take(kend).skip(kb) {
                    if aik == ExtWeight::PosInf {
                        continue;
                    }
                    let btile = &b.row(k)[jb..jend];
                    for (cij, &bkj) in ctile.iter_mut().zip(btile) {
                        let cand = aik + bkj;
                        if cand < *cij {
                            *cij = cand;
                        }
                    }
                }
            }
        }
    }
}

/// Computes rows `rows` of the sentinel-coded product into `c_rows`
/// (pre-filled with [`TROPICAL_NONE`]) with `MIN_PLUS_TILE`-blocked loops.
///
/// Same schedule as [`min_plus_rows`], but over plain `i64` lanes: the
/// innermost loop is a contiguous branch-free `min(c, a + b)` sweep the
/// compiler auto-vectorizes. Exactness per [`TROPICAL_NONE`].
fn min_plus_flat_rows(
    a: &[i64],
    b: &[i64],
    n: usize,
    rows: std::ops::Range<usize>,
    c_rows: &mut [i64],
) {
    debug_assert_eq!(c_rows.len(), rows.len() * n);
    for (bi, i) in rows.enumerate() {
        let arow = &a[i * n..(i + 1) * n];
        let crow = &mut c_rows[bi * n..(bi + 1) * n];
        for kb in (0..n).step_by(MIN_PLUS_TILE) {
            let kend = (kb + MIN_PLUS_TILE).min(n);
            for jb in (0..n).step_by(MIN_PLUS_TILE) {
                let jend = (jb + MIN_PLUS_TILE).min(n);
                let ctile = &mut crow[jb..jend];
                for (k, &aik) in arow.iter().enumerate().take(kend).skip(kb) {
                    if aik > TROPICAL_FINITE_MAX {
                        continue;
                    }
                    let btile = &b[k * n + jb..k * n + jend];
                    for (cij, &bkj) in ctile.iter_mut().zip(btile) {
                        let cand = aik + bkj;
                        if cand < *cij {
                            *cij = cand;
                        }
                    }
                }
            }
        }
    }
}

/// Distance product `A ⋆ B` with an explicit worker count.
///
/// Rows of `C` are split into contiguous bands, one scoped thread per band
/// ([`qcc_perf::for_each_row_band`]); each band runs the tiled kernel
/// independently, so the result is bit-identical for every worker count.
///
/// Inputs inside the flat kernels' exact domain (no `−∞` entries, finite
/// magnitudes `≤` [`TROPICAL_FINITE_MAX`]) take the sentinel-coded `i64`
/// fast path; anything else falls back to the [`ExtWeight`] tiles. Both
/// paths produce identical matrices (asserted across random ±∞ inputs by
/// the property tests).
///
/// # Panics
///
/// Panics if the dimensions differ.
pub fn distance_product_with_threads(
    a: &WeightMatrix,
    b: &WeightMatrix,
    threads: usize,
) -> WeightMatrix {
    assert_eq!(a.n(), b.n(), "distance product requires equal dimensions");
    let n = a.n();
    if let (Some(ac), Some(bc)) = (tropical_encode(a), tropical_encode(b)) {
        let mut coded = vec![TROPICAL_NONE; n * n];
        qcc_perf::for_each_row_band(&mut coded, n, threads, |rows, c_rows| {
            min_plus_flat_rows(&ac, &bc, n, rows, c_rows);
        });
        return tropical_decode_matrix(n, &coded);
    }
    let mut c = WeightMatrix::filled(n, ExtWeight::PosInf);
    qcc_perf::for_each_row_band(c.as_mut_slice(), n, threads, |rows, c_rows| {
        min_plus_rows(a, b, rows, c_rows);
    });
    c
}

/// Distance product `A ⋆ B` (Definition 2): `C[i,j] = min_k (A[i,k] + B[k,j])`.
///
/// Runs the tiled parallel kernel with the ambient worker count
/// (`QCC_THREADS`, else available parallelism — see
/// [`qcc_perf::resolve_threads`]). Identical output to the textbook
/// `i, k, j` triple loop for every input.
///
/// # Panics
///
/// Panics if the dimensions differ.
///
/// # Examples
///
/// ```
/// use qcc_graph::{distance_product, ExtWeight, WeightMatrix};
///
/// let a = WeightMatrix::from_fn(2, |i, j| ExtWeight::from((i as i64) + 1 + j as i64));
/// let c = distance_product(&a, &a);
/// // C[0][0] = min(a00+a00, a01+a10) = min(2, 4) = 2
/// assert_eq!(c[(0, 0)], ExtWeight::from(2));
/// ```
pub fn distance_product(a: &WeightMatrix, b: &WeightMatrix) -> WeightMatrix {
    distance_product_with_threads(a, b, qcc_perf::resolve_threads(None))
}

/// `p`-th power of `a` with respect to the distance product, by repeated
/// squaring (`O(log p)` products), with an explicit worker count.
pub fn distance_power_with_threads(a: &WeightMatrix, p: u64, threads: usize) -> WeightMatrix {
    let mut result = WeightMatrix::distance_identity(a.n());
    let mut base = a.clone();
    let mut exp = p;
    while exp > 0 {
        if exp & 1 == 1 {
            result = distance_product_with_threads(&result, &base, threads);
        }
        exp >>= 1;
        if exp > 0 {
            base = distance_product_with_threads(&base, &base, threads);
        }
    }
    result
}

/// `p`-th power of `a` with respect to the distance product, by repeated
/// squaring (`O(log p)` products).
///
/// `distance_power(a, n-1)` (or any exponent `≥ n − 1`) of a weighted
/// adjacency matrix yields all-pairs shortest distances when the graph has
/// no negative cycle.
///
/// # Examples
///
/// ```
/// use qcc_graph::{distance_power, ExtWeight, WeightMatrix};
///
/// // path 0 -> 1 -> 2 with unit weights
/// let mut a = WeightMatrix::distance_identity(3);
/// a[(0, 1)] = ExtWeight::from(1);
/// a[(1, 2)] = ExtWeight::from(1);
/// let d = distance_power(&a, 2);
/// assert_eq!(d[(0, 2)], ExtWeight::from(2));
/// ```
pub fn distance_power(a: &WeightMatrix, p: u64) -> WeightMatrix {
    distance_power_with_threads(a, p, qcc_perf::resolve_threads(None))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: i64) -> ExtWeight {
        ExtWeight::from(x)
    }

    #[test]
    fn indexing_round_trips() {
        let mut m = SquareMatrix::filled(3, 0u64);
        m[(1, 2)] = 42;
        assert_eq!(m[(1, 2)], 42);
        assert_eq!(m.row(1), &[0, 0, 42]);
    }

    #[test]
    fn entries_iterates_in_row_major_order() {
        let m = SquareMatrix::from_fn(2, |i, j| i * 2 + j);
        let coords: Vec<(usize, usize, usize)> = m.entries().map(|(i, j, &x)| (i, j, x)).collect();
        assert_eq!(coords, vec![(0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 3)]);
    }

    #[test]
    fn identity_is_neutral_on_both_sides() {
        let a = WeightMatrix::from_fn(4, |i, j| w((3 * i + j) as i64 - 5));
        let id = WeightMatrix::distance_identity(4);
        assert_eq!(distance_product(&a, &id), a);
        assert_eq!(distance_product(&id, &a), a);
    }

    #[test]
    fn product_respects_infinities() {
        let mut a = WeightMatrix::filled(2, ExtWeight::PosInf);
        a[(0, 0)] = w(1);
        let b = WeightMatrix::filled(2, ExtWeight::PosInf);
        let c = distance_product(&a, &b);
        assert!(c.entries().all(|(_, _, &x)| x == ExtWeight::PosInf));
    }

    #[test]
    fn product_handles_negative_weights() {
        let mut a = WeightMatrix::distance_identity(2);
        a[(0, 1)] = w(-7);
        a[(1, 0)] = w(3);
        let c = distance_product(&a, &a);
        assert_eq!(c[(0, 0)], w(-4)); // 0->1->0 = -7 + 3
    }

    #[test]
    fn power_zero_is_identity() {
        let a = WeightMatrix::from_fn(3, |_, _| w(1));
        assert_eq!(distance_power(&a, 0), WeightMatrix::distance_identity(3));
    }

    #[test]
    fn power_matches_iterated_product() {
        let a = WeightMatrix::from_fn(4, |i, j| {
            if (i + 2 * j) % 3 == 0 {
                w((i as i64) - (j as i64))
            } else {
                ExtWeight::PosInf
            }
        });
        let mut iter = WeightMatrix::distance_identity(4);
        for _ in 0..5 {
            iter = distance_product(&iter, &a);
        }
        assert_eq!(distance_power(&a, 5), iter);
    }

    #[test]
    fn power_computes_path_distances() {
        // cycle 0 -> 1 -> 2 -> 3 -> 0, unit weights
        let n = 4;
        let mut a = WeightMatrix::distance_identity(n);
        for i in 0..n {
            a[(i, (i + 1) % n)] = w(1);
        }
        let d = distance_power(&a, (n - 1) as u64);
        assert_eq!(d[(0, 3)], w(3));
        assert_eq!(d[(3, 0)], w(1));
        assert_eq!(d[(2, 1)], w(3));
    }

    #[test]
    fn max_finite_magnitude_ignores_infinities() {
        let mut a = WeightMatrix::filled(2, ExtWeight::PosInf);
        a[(0, 1)] = w(-9);
        assert_eq!(a.max_finite_magnitude(), 9);
        let mut b = WeightMatrix::filled(2, ExtWeight::PosInf);
        b[(1, 0)] = w(12);
        assert_eq!(a.max_finite_magnitude_with(&b), 12);
        assert_eq!(b.max_finite_magnitude_with(&a), 12);
    }

    #[test]
    fn debug_output_is_nonempty() {
        let m = SquareMatrix::filled(1, 5u8);
        assert!(format!("{m:?}").contains('5'));
    }
}
