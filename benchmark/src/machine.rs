//! Making the machine hold still: taking turns on the CPUs the process may
//! use, and pinning the allocator's mmap threshold.
//!
//! # CPU turns
//!
//! On the box this benchmark was defined on (2 vCPUs on a shared host), at
//! any moment one vCPU runs the same code ~1.35× slower than the other —
//! whichever shares its physical core with a busy neighbour — and which one
//! it is flips every minute or so. Measured with `taskset`, `control_plane`
//! passes, alternating CPUs run to run: cpu0 0.329 / 0.320 / 0.316 s while
//! cpu1 0.248 / 0.243 / 0.244 s, then cpu0 0.248 and cpu1 0.319. An unpinned
//! single-threaded run mostly stays where the scheduler first put it, so a
//! whole 20 s run is fast or slow by luck.
//!
//! The quiet-time estimator (`quiet.rs`) keeps each chunk's fastest
//! observation, so all it needs is for some observations to come from the
//! fast CPU: the measuring thread therefore moves to the next allowed CPU at
//! every rep. It is still one measuring thread; it just does not bet the run
//! on one CPU.
//!
//! std has no affinity API and the sandbox has no `libc` crate, so the C
//! library's two wrappers are declared here; they are compiled on Linux
//! only, and everywhere else (or if the kernel refuses) the benchmark runs
//! unpinned.
//!
//! # Allocator threshold
//!
//! glibc moves its mmap threshold up whenever a large block is freed, after
//! which "large" allocations are carved from the heap and reuse pages that
//! are already mapped — or not, if the heap top was trimmed in between. The
//! libraries initialise their device arrays word by word, so the same
//! `BuddyService::new` took 1 ms or 10 ms depending on what had been freed
//! before it, and `control_plane`'s `setup_s` read 0.010 s or 0.022 s from
//! one seed to the next. [`pin_mmap_threshold`] sets the threshold to its
//! own default, which switches the adjustment off: every set-up then maps
//! fresh memory and pays its first-touch faults, whatever ran before.
//!
//! This module holds all the `unsafe` in the benchmark.

/// The CPUs this process may run on.
#[derive(Debug, Clone)]
pub struct Cpus {
    allowed: Vec<usize>,
}

/// Words of the kernel CPU mask handed to the system calls (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    use super::MASK_WORDS;

    // std links the C library, whose wrappers these are.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's CPU mask.
    pub fn get() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `sched_getaffinity(0, len, mask)` writes at most `len`
        // bytes to `mask`, a live, writable local of exactly `len` bytes.
        let ret = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (ret == 0).then_some(mask)
    }

    /// Restricts the calling thread to `mask`.
    pub fn set(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: `sched_setaffinity(0, len, mask)` only reads `len` bytes
        // from `mask`, a live array of exactly `len` bytes.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::MASK_WORDS;

    pub fn get() -> Option<[u64; MASK_WORDS]> {
        None
    }

    pub fn set(_mask: &[u64; MASK_WORDS]) -> bool {
        false
    }
}

/// Pins glibc's mmap threshold at its default (128 KiB), disabling its
/// dynamic adjustment. Returns whether the allocator took the setting
/// (false on other C libraries, where nothing needs pinning).
pub fn pin_mmap_threshold() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores a tuning parameter of the process's
        // allocator; it is called once at the start of `main`, before any
        // other thread exists, with a parameter and value glibc documents.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

fn mask_of(cpus: &[usize]) -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

impl Cpus {
    /// The calling thread's allowed CPUs (empty where affinity is not
    /// available: then `take_turn` does nothing).
    pub fn detect() -> Self {
        let allowed = sys::get().map_or_else(Vec::new, |mask| {
            (0..MASK_WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        });
        Self { allowed }
    }

    /// How many CPUs the turns rotate over (0 = unpinned).
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    /// Moves the calling thread to the `turn`-th allowed CPU (round robin).
    /// Returns the CPU, or `None` if the thread stays unpinned.
    pub fn take_turn(&self, turn: usize) -> Option<usize> {
        if self.allowed.len() < 2 {
            return None;
        }
        let cpu = self.allowed[turn % self.allowed.len()];
        sys::set(&mask_of(&[cpu])).then_some(cpu)
    }

    /// Lets the calling thread (and threads it spawns) use every allowed
    /// CPU again.
    pub fn release(&self) {
        if self.allowed.len() >= 2 {
            sys::set(&mask_of(&self.allowed));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn turns_rotate_over_the_allowed_cpus_and_release_restores_them() {
        let cpus = Cpus::detect();
        if cpus.count() < 2 {
            // One CPU, or no affinity on this platform: nothing to rotate.
            assert_eq!(cpus.take_turn(0), None);
            return;
        }
        let first = cpus.take_turn(0).expect("pinning to an allowed CPU works");
        assert_eq!(Cpus::detect().allowed, vec![first]);
        let second = cpus.take_turn(1).expect("pinning to an allowed CPU works");
        assert_ne!(first, second);
        assert_eq!(cpus.take_turn(cpus.count()), Some(first));
        cpus.release();
        assert_eq!(Cpus::detect().allowed, cpus.allowed);
    }
}
