//! # qcc-perf — the workspace performance layer
//!
//! Std-only threading primitives shared by every crate in the workspace:
//! worker-count resolution (the `QCC_THREADS` environment variable, an
//! explicit per-call override, or the machine's available parallelism) and
//! `std::thread::scope`-based fan-out helpers with deterministic,
//! contiguous work splitting.
//!
//! ## Determinism contract
//!
//! Every helper here partitions work into **contiguous index bands** and
//! reassembles results **in band order**, so the observable output of a
//! parallel run is bit-identical to the sequential run for any worker
//! count. Simulation semantics — charged round counts in particular — must
//! never depend on `QCC_THREADS`; parallelism only changes host wall-clock.
//!
//! ## Worker-count resolution
//!
//! [`resolve_threads`] picks, in order of precedence:
//!
//! 1. a positive per-call override (e.g. `Params::threads`),
//! 2. the `QCC_THREADS` environment variable (positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! The result is clamped to `[1, MAX_THREADS]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;

/// Environment variable naming the default worker count.
pub const THREADS_ENV_VAR: &str = "QCC_THREADS";

/// Upper bound on the resolved worker count (a safety valve against
/// misconfigured environments; far above any sensible value for the
/// cache-blocked kernels in this workspace).
pub const MAX_THREADS: usize = 64;

/// Work below this many items is not worth a thread spawn; fan-out helpers
/// fall back to inline execution under it.
pub const MIN_ITEMS_PER_THREAD: usize = 16;

/// Resolves the worker count: `explicit` override, then `QCC_THREADS`,
/// then available parallelism; always in `1..=MAX_THREADS`.
///
/// # Examples
///
/// ```
/// assert_eq!(qcc_perf::resolve_threads(Some(4)), 4);
/// assert!(qcc_perf::resolve_threads(None) >= 1);
/// ```
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&t| t > 0)
        .or_else(env_threads)
        .unwrap_or_else(|| {
            thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

/// The `QCC_THREADS` setting, if present and a positive integer.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV_VAR)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .filter(|&t| t > 0)
}

/// Splits `0..total` into at most `parts` contiguous near-equal ranges
/// (the first `total % parts` ranges are one longer). Empty ranges are
/// never produced; fewer than `parts` ranges come back when
/// `total < parts`.
///
/// # Examples
///
/// ```
/// let bands = qcc_perf::band_ranges(10, 3);
/// assert_eq!(bands, vec![0..4, 4..7, 7..10]);
/// assert_eq!(qcc_perf::band_ranges(2, 8).len(), 2);
/// ```
pub fn band_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, total.max(1));
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for band in 0..parts {
        let len = base + usize::from(band < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over contiguous bands of `0..total` in parallel and returns
/// the per-band results **in band order** — deterministic for any worker
/// count.
pub fn map_bands<T, F>(total: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let bands = plan(total, threads);
    if bands.len() <= 1 {
        return if total == 0 {
            Vec::new()
        } else {
            vec![f(0..total)]
        };
    }
    thread::scope(|scope| {
        let handles: Vec<_> = bands
            .into_iter()
            .map(|band| {
                let f = &f;
                scope.spawn(move || f(band))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("band worker panicked"))
            .collect()
    })
}

/// Maps `f` over every index of `0..total` in parallel, returning results
/// in index order. Convenience wrapper over [`map_bands`] for
/// embarrassingly parallel per-item work (e.g. one Dijkstra per source).
pub fn map_indexed<T, F>(total: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    map_bands(total, threads, |band| band.map(&f).collect::<Vec<T>>())
        .into_iter()
        .flatten()
        .collect()
}

/// Splits `data` — a row-major buffer of `rows` equal rows — into
/// contiguous row bands and runs `f` on each band concurrently. `f`
/// receives the band's row range and the mutable sub-slice holding exactly
/// those rows, so writes are race-free by construction (`split_at_mut`).
///
/// Runs inline when `threads == 1` or the row count is too small.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `rows` (for `rows > 0`).
pub fn for_each_row_band<T, F>(data: &mut [T], rows: usize, threads: usize, f: F)
where
    T: Send,
    F: Fn(Range<usize>, &mut [T]) + Sync,
{
    if rows == 0 {
        return;
    }
    assert_eq!(data.len() % rows, 0, "data must hold whole rows");
    let row_len = data.len() / rows;
    let bands = plan(rows, threads);
    if bands.len() <= 1 {
        f(0..rows, data);
        return;
    }
    thread::scope(|scope| {
        let mut rest = data;
        for band in bands {
            let (head, tail) = rest.split_at_mut(band.len() * row_len);
            rest = tail;
            let f = &f;
            scope.spawn(move || f(band, head));
        }
    });
}

fn plan(total: usize, threads: usize) -> Vec<Range<usize>> {
    if threads <= 1 || total < 2 * MIN_ITEMS_PER_THREAD {
        let mut single = Vec::new();
        if total > 0 {
            single.push(0..total);
        }
        return single;
    }
    let max_parts = (total / MIN_ITEMS_PER_THREAD).max(1);
    band_ranges(total, threads.min(max_parts))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_override_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(
            resolve_threads(Some(0)).max(1),
            resolve_threads(None).max(1)
        );
    }

    #[test]
    fn resolution_is_clamped() {
        assert!(resolve_threads(Some(10_000)) <= MAX_THREADS);
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn bands_cover_exactly_once() {
        for total in [0usize, 1, 5, 16, 97, 256] {
            for parts in [1usize, 2, 3, 7, 64] {
                let bands = band_ranges(total, parts);
                let mut covered = 0;
                let mut expected_start = 0;
                for b in &bands {
                    assert_eq!(b.start, expected_start);
                    assert!(!b.is_empty());
                    covered += b.len();
                    expected_start = b.end;
                }
                assert_eq!(covered, total, "total {total} parts {parts}");
            }
        }
    }

    #[test]
    fn map_bands_preserves_order() {
        let out = map_bands(100, 4, |band| band.collect::<Vec<_>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn map_indexed_matches_sequential() {
        let par = map_indexed(113, 5, |i| i * i);
        let seq: Vec<usize> = (0..113).map(|i| i * i).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn row_bands_write_disjointly() {
        let rows = 64;
        let cols = 3;
        let mut data = vec![0usize; rows * cols];
        for_each_row_band(&mut data, rows, 4, |band, slice| {
            for (bi, row) in band.enumerate() {
                for c in 0..cols {
                    slice[bi * cols + c] = row * 100 + c;
                }
            }
        });
        for row in 0..rows {
            for c in 0..cols {
                assert_eq!(data[row * cols + c], row * 100 + c);
            }
        }
    }

    #[test]
    fn tiny_work_runs_inline() {
        // under the spawn threshold a single band is used
        let out = map_bands(4, 8, |band| band.len());
        assert_eq!(out, vec![4]);
    }
}
