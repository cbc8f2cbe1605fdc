//! Worker placement: each worker shard on a CPU of its own, when the
//! process may use at least as many CPUs as there are workers.
//!
//! Left to the kernel, two busy workers can end up sharing one core while
//! another sits idle, and stay that way: measured on a 2-vCPU Linux host
//! whose cpusets disable load balancing (`cpuset.sched_load_balance = 0`),
//! both workers of a saturated server shared a core for whole seconds
//! while the other core was 85% idle, and which state a window started in
//! decided its throughput. Pinning makes the placement the same in every
//! run. A job that fans out over several FPRAS threads runs unpinned: the
//! threads it spawns inherit its worker's CPU mask. Code that sizes itself
//! by the available parallelism (the Karp–Luby baselines) sees one CPU in
//! a pinned job; its digits do not depend on the thread count.
//!
//! Linux only (`sched_{get,set}affinity`, declared over the C library
//! `std` links); elsewhere, and wherever a call fails, placement stays
//! with the kernel.

#[cfg(target_os = "linux")]
use std::os::raw::c_int;

/// `cpu_set_t` of the C library: 1024 CPUs, one bit each.
const WORDS: usize = 16;

#[derive(Clone, Copy)]
struct CpuSet([u64; WORDS]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

impl CpuSet {
    /// The CPUs the calling thread may run on.
    fn of_this_thread() -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        #[cfg(target_os = "linux")]
        // SAFETY: `set.0` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.0.as_mut_ptr()) == 0 };
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        ok.then_some(set)
    }

    fn single(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; WORDS]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }

    fn cpus(&self) -> Vec<usize> {
        (0..WORDS * 64).filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1).collect()
    }

    /// Restricts the calling thread to this set. A failure leaves the
    /// thread where the kernel puts it.
    fn apply(&self) {
        #[cfg(target_os = "linux")]
        // SAFETY: `self.0` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.0.as_ptr());
        }
    }
}

/// Where one worker shard runs (see the module docs).
pub(crate) struct Placement {
    /// The worker's own CPU and every CPU the process may use (for
    /// unpinned jobs); `None` leaves placement to the kernel.
    pinned: Option<(CpuSet, CpuSet)>,
}

impl Placement {
    /// One placement per worker: the `i`-th CPU of the calling thread's
    /// set for worker `i` if there are enough CPUs, else none.
    pub(crate) fn plan(workers: usize) -> Vec<Placement> {
        let all = CpuSet::of_this_thread().filter(|s| s.cpus().len() >= workers);
        let cpus = all.map(|s| s.cpus()).unwrap_or_default();
        (0..workers)
            .map(|i| Placement { pinned: all.map(|all| (CpuSet::single(cpus[i]), all)) })
            .collect()
    }

    /// Restricts the calling worker to its own CPU.
    pub(crate) fn pin(&self) {
        if let Some((home, _)) = &self.pinned {
            home.apply();
        }
    }

    /// Lets the calling worker, and the threads it spawns, use every CPU.
    pub(crate) fn unpin(&self) {
        if let Some((_, all)) = &self.pinned {
            all.apply();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_get_distinct_cpus_only_when_there_are_enough() {
        let Some(all) = CpuSet::of_this_thread() else {
            return; // no affinity API here: nothing is pinned
        };
        let n = all.cpus().len();
        let homes: Vec<Vec<usize>> = Placement::plan(n)
            .iter()
            .map(|p| p.pinned.expect("one CPU per worker").0.cpus())
            .collect();
        assert_eq!(homes.concat(), all.cpus());
        assert!(Placement::plan(n + 1).iter().all(|p| p.pinned.is_none()));
    }

    #[test]
    fn pin_and_unpin_move_the_calling_thread() {
        std::thread::spawn(|| {
            let Some(all) = CpuSet::of_this_thread() else {
                return;
            };
            let placement = Placement::plan(1).pop().unwrap();
            placement.pin();
            let pinned = CpuSet::of_this_thread().unwrap().cpus();
            assert_eq!(pinned, vec![all.cpus()[0]]);
            // Threads spawned while pinned inherit the mask.
            let inherited = std::thread::spawn(|| CpuSet::of_this_thread().unwrap().cpus());
            assert_eq!(inherited.join().unwrap(), pinned);
            placement.unpin();
            assert_eq!(CpuSet::of_this_thread().unwrap().cpus(), all.cpus());
        })
        .join()
        .unwrap();
    }
}
