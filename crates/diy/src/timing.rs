//! Per-thread CPU timing for scaling experiments on oversubscribed hosts.
//!
//! The paper benchmarks on up to 16384 BG/P nodes; this reproduction runs
//! ranks as threads, usually on far fewer cores than ranks. Wall-clock time
//! would then measure the host's core count, not the algorithm. Instead we
//! time each rank with `CLOCK_THREAD_CPUTIME_ID` — the CPU time consumed by
//! that rank's thread only — and report the **critical path** (maximum over
//! ranks) as the parallel time. On a machine with ≥ nranks cores this
//! converges to wall-clock; on one core it still has the right scaling
//! shape, which is what the reproduction targets (see DESIGN.md).

/// CPU time consumed by the calling thread, in seconds.
pub fn thread_cpu_time() -> f64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; CLOCK_THREAD_CPUTIME_ID is always
    // supported on Linux.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    debug_assert_eq!(rc, 0);
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_is_monotonic() {
        let a = thread_cpu_time();
        // burn a little CPU
        let mut x = 0u64;
        for i in 0..100_000 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = thread_cpu_time();
        assert!(b >= a);
    }
}
