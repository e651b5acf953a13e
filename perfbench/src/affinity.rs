//! Thread-to-core pinning for the latency-bound workload.
//!
//! On a small host the scheduler moves a busy driver thread between
//! cores, and each move costs it its caches: microsecond-scale arbiter
//! calls then read differently from one run to the next depending on
//! where the threads happened to land. Pinning the driver and the reader
//! to two distinct allowed cores keeps the writer–reader contention real
//! and the same in every run. Where pinning is unavailable the threads
//! simply run unpinned.

/// Cores this process may run on, ascending (empty if unknown).
pub fn allowed() -> Vec<usize> {
    imp::allowed()
}

/// Pins the calling thread to `cpu`; `false` if that was not possible.
pub fn pin_current(cpu: usize) -> bool {
    imp::pin_current(cpu)
}

#[cfg(target_os = "linux")]
mod imp {
    /// Bytes in the affinity mask passed to the kernel (1024 cores).
    const MASK_BYTES: usize = 128;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u8; MASK_BYTES];
        // SAFETY: `mask` is a writable buffer of exactly `MASK_BYTES`
        // bytes, the size passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_BYTES * 8)
            .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
            .collect()
    }

    pub fn pin_current(cpu: usize) -> bool {
        if cpu >= MASK_BYTES * 8 {
            return false;
        }
        let mut mask = [0u8; MASK_BYTES];
        mask[cpu / 8] |= 1 << (cpu % 8);
        // SAFETY: `mask` is a readable buffer of exactly `MASK_BYTES`
        // bytes, the size passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current(_cpu: usize) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_to_an_allowed_core_keeps_the_thread_there() {
        let cpus = allowed();
        if let Some(&cpu) = cpus.last() {
            std::thread::spawn(move || {
                assert!(pin_current(cpu));
                assert_eq!(allowed(), vec![cpu]);
            })
            .join()
            .expect("pinned thread ran");
        }
        assert!(!pin_current(usize::MAX));
    }
}
