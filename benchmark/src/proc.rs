//! What the process can read about itself: CPU time and peak memory.

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time consumed by every thread of this process, live or joined, in
/// nanoseconds. `/proc/self/stat` has the same number at 10 ms
/// granularity, which is coarser than a pool batch.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: i32 = -3;

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pins glibc malloc's mmap threshold at its initial 128 KiB, which also
/// switches off the heuristic that otherwise raises it (and the trim
/// threshold) as the process frees large blocks. With the heuristic on,
/// whether a world's 32 MiB and 8 MiB frame arrays were carved out of warm
/// heap or mapped afresh depended on what had been freed before — the same
/// build read 5 ms in one process and 11 ms in the next, and `op_ms` moved
/// with it. Pinned, every large block of every op is fresh memory, as it
/// is for the one-shot `hypertpctl` process, and nothing carries over from
/// op to op. A no-op on other C libraries.
pub fn pin_allocator() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` only stores an integer in the allocator's
    // parameter block; it is called from `main` before any other thread
    // exists, with a parameter id and value glibc documents.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> std::io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(process_cpu_ns() > before, "x={x}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 1.0);
    }
}
