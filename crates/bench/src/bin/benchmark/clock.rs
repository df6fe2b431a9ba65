//! How the benchmark reads host time: the CPU time of the calling thread,
//! and the cost of an operation in units of a fixed reference computation
//! timed just before and just after it.
//!
//! Every `Params` the benchmark builds has `threads: Some(1)` and it sets
//! `QCC_THREADS=1`, so the library runs each operation inline on the
//! calling thread, and no I/O happens inside a timed region: on an idle
//! machine the thread's CPU time equals the operation's wall time. On a shared host
//! the wall time also holds the time the scheduler gives other processes
//! and the hypervisor gives other guests (a Linux guest that accounts
//! steal time leaves it out of CPU time). CPU time still holds a slower
//! core: a neighbour on the same physical core or caches slowed every
//! instruction by up to 1.7 times, for stretches of a fraction of a second
//! to minutes. Such a slowdown stretches the reference computation as
//! much as the operation beside it, so their ratio, the operation's cost,
//! stays put while the host's speed moves.

use crate::stats::median;
use std::hint::black_box;
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
}

/// glibc's `mallopt` parameters.
const M_TRIM_THRESHOLD: c_int = -1;
const M_MMAP_THRESHOLD: c_int = -3;

/// Makes the allocator keep freed memory mapped for reuse: blocks up to
/// 32 MiB (glibc's largest threshold) come from the heap rather than their
/// own `mmap`, and the heap is never trimmed. Otherwise every large matrix
/// the library frees goes back to the kernel, and the next one pays a page
/// fault per 4 KiB inside the timed region, in kernel CPU time that a
/// virtual machine bills at a rate the reference kernel does not track:
/// one `QueryEngine::load` spent 0–50 ms of its 0.12 s in the kernel,
/// and none once freed memory was kept. Returns whether glibc took both.
pub fn keep_freed_memory() -> bool {
    // SAFETY: `mallopt` takes two ints, takes malloc's own lock and only
    // changes its tuning; memory already allocated stays valid.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
    }
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux. The thread's rather than the
/// process's clock, so that other threads (as `cargo test` runs tests on)
/// do not count.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU seconds the calling thread has used so far; the difference of two
/// reads is the CPU time of the code between them.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two `long`s on
    // Linux), and the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Side of the reference matrix: 48 × 48 `i64`s (18 KiB) stay in the L1
/// data cache, as the simulator's hot loops mostly do.
const REFERENCE_N: usize = 48;

/// One Floyd–Warshall pass over `m`, the min-plus relaxation the simulator
/// itself spends its time on. It is the benchmark's own copy: a change to
/// the library's kernels must not move the unit costs are measured in.
/// Never inlined, so that no caller's code changes how it compiles.
#[inline(never)]
fn reference_kernel(m: &mut [i64]) {
    let n = REFERENCE_N;
    for k in 0..n {
        for i in 0..n {
            let ik = m[i * n + k];
            for j in 0..n {
                let via = ik + m[k * n + j];
                if via < m[i * n + j] {
                    m[i * n + j] = via;
                }
            }
        }
    }
}

/// CPU seconds one relaxation of the reference kernel takes now: the
/// median of five runs (about 0.1 ms each), so that an interrupt in one of
/// them does not count but the speed they report is the host's average one,
/// as the operation beside them sees it.
pub fn relaxation_s() -> f64 {
    let input: Vec<i64> = (0..REFERENCE_N * REFERENCE_N)
        .map(|x| (x * 7919 % 1000) as i64 + 1)
        .collect();
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let mut m = black_box(input.clone());
            let t = cpu_seconds();
            reference_kernel(&mut m);
            let dt = cpu_seconds() - t;
            black_box(&m);
            dt
        })
        .collect();
    median(&runs) / (REFERENCE_N * REFERENCE_N * REFERENCE_N) as f64
}

/// What one operation cost the host.
#[derive(Clone, Copy, Debug)]
pub struct Cost {
    pub cpu_s: f64,
    /// The relaxation time it is priced in: the mean of the measurements
    /// just before and just after it.
    pub relaxation_s: f64,
}

/// The relaxation time `Cost::reference_s` converts at: one nanosecond,
/// near what the hosts the benchmark was built on measured (0.9–1.5 ns).
const REFERENCE_RELAXATION_S: f64 = 1e-9;

impl Cost {
    /// The CPU time in millions of reference relaxations (`Mrelax`).
    pub fn mrelax(&self) -> f64 {
        self.cpu_s / self.relaxation_s / 1e6
    }

    /// The CPU time in reference seconds: what it would take on a host
    /// where one relaxation takes `REFERENCE_RELAXATION_S`, so a
    /// millisecond per Mrelax. Like `mrelax`, it holds still while the
    /// host's speed moves.
    pub fn reference_s(&self) -> f64 {
        self.cpu_s / self.relaxation_s * REFERENCE_RELAXATION_S
    }
}

/// Runs `f` between two reference measurements.
pub fn costed<T>(f: impl FnOnce() -> T) -> (T, Cost) {
    let before = relaxation_s();
    let t = cpu_seconds();
    let result = f();
    let cpu_s = cpu_seconds() - t;
    let relaxation_s = (before + relaxation_s()) / 2.0;
    (
        result,
        Cost {
            cpu_s,
            relaxation_s,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let t = cpu_seconds();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = cpu_seconds() - t;
        let t = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - t < 0.02 {
            x = black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = cpu_seconds() - t;
        assert!(worked >= 0.02, "{worked}");
        assert!(slept < 0.02, "{slept}");
    }

    #[test]
    fn cost_grows_with_the_work_priced() {
        let spin = |reps: usize| {
            let mut m = vec![1i64; REFERENCE_N * REFERENCE_N];
            for _ in 0..reps {
                reference_kernel(black_box(&mut m));
            }
        };
        let ((), one) = costed(|| spin(20));
        let ((), four) = costed(|| spin(80));
        // 20 kernel runs are 2.2 M relaxations; allow for a host that
        // changes speed between the measurements.
        assert!(one.mrelax() > 0.5 && one.mrelax() < 10.0, "{one:?}");
        assert!(four.mrelax() > 2.0 * one.mrelax(), "{one:?} {four:?}");
    }

    #[test]
    fn glibc_takes_the_allocator_settings() {
        assert!(keep_freed_memory());
    }

    #[test]
    fn a_reference_second_is_a_thousand_mrelax() {
        let cost = Cost {
            cpu_s: 0.003,
            relaxation_s: 1.5e-9,
        };
        assert!((cost.mrelax() - 2.0).abs() < 1e-12, "{cost:?}");
        assert!((cost.reference_s() - 0.002).abs() < 1e-15, "{cost:?}");
    }
}
