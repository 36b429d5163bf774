//! Process CPU time (user + sys, all threads) at nanosecond resolution.
//!
//! `setup_s` and `harness.cpu_wall_ratio` are CPU times because a one-shot
//! wall time on a shared box measures the scheduler (see the README).
//! `/proc/self/stat` only resolves 10 ms ticks, so the clock is read with
//! `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` from the libc `std` already
//! links.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "the benchmark reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout"
);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has consumed since it started.
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, enforced by the cfg gate above), and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}
