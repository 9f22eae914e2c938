//! The four libc calls the benchmark needs, declared here because `std`
//! already links libc and the benchmark may add no crate: CPU affinity (so
//! children inherit the pin — no reliance on `taskset`), `wait4` (per-child
//! rusage; `RUSAGE_CHILDREN`'s maxrss is a high-water mark over *all*
//! earlier children) and `getrusage`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark's FFI declarations are for 64-bit Linux");

use std::time::Duration;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RawRusage) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// Resource usage of a process, in the units the metrics use.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rusage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Peak resident set, KiB.
    pub maxrss_kib: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Voluntary context switches.
    pub nvcsw: u64,
    /// Involuntary context switches.
    pub nivcsw: u64,
}

impl From<RawRusage> for Rusage {
    fn from(r: RawRusage) -> Self {
        let dur = |t: Timeval| Duration::new(t.sec.max(0) as u64, (t.usec.max(0) as u32) * 1000);
        Rusage {
            user: dur(r.utime),
            sys: dur(r.stime),
            maxrss_kib: r.maxrss.max(0) as u64,
            minflt: r.minflt.max(0) as u64,
            nvcsw: r.nvcsw.max(0) as u64,
            nivcsw: r.nivcsw.max(0) as u64,
        }
    }
}

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return vec![0];
    }
    (0..1024)
        .filter(|&cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin the calling thread — and every thread or process it creates from now
/// on — to `cpus`.
pub fn pin(cpus: &[usize]) -> std::io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        assert!(cpu < 1024, "cpu {cpu} does not fit a cpu_set_t");
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a valid cpu_set_t of the size passed; pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Reap child `pid`, returning its exit code (`None` if a signal killed it)
/// and its own resource usage.
pub fn wait_child(pid: u32) -> std::io::Result<(Option<i32>, Rusage)> {
    let mut status = 0i32;
    let mut raw = RawRusage::default();
    // SAFETY: both out-pointers are valid for writes of their types; `pid` is
    // a child of this process that nothing else reaps.
    let rc = unsafe { wait4(pid as i32, &mut status, 0, &mut raw) };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    // WIFEXITED / WEXITSTATUS of Linux.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok((code, raw.into()))
}

/// Resource usage of this process so far, all threads (`RUSAGE_SELF`).
pub fn self_usage() -> Rusage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is valid for writes; RUSAGE_SELF (0) is always accepted.
    unsafe { getrusage(0, &mut raw) };
    raw.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The child is reaped by `wait_child`, which clippy cannot see through.
    #[allow(clippy::zombie_processes)]
    #[test]
    fn pinning_narrows_the_allowed_set_and_children_report_usage() {
        let before = allowed_cpus();
        assert!(!before.is_empty());
        pin(&before[..1]).unwrap();
        assert_eq!(allowed_cpus(), before[..1]);
        let child = std::process::Command::new("true").spawn().unwrap();
        let (code, usage) = wait_child(child.id()).unwrap();
        assert_eq!(code, Some(0));
        assert!(usage.maxrss_kib > 0);
        pin(&before).unwrap();
        assert!(self_usage().maxrss_kib > 0);
    }
}
