//! The calling thread's CPU time.
//!
//! `sim-geo` runs the whole cluster on one thread, so the thread's CPU
//! time is the protocol's cost without the time the thread waited for a
//! core (descheduled, or stolen by the hypervisor), which wall time on a
//! shared host also counts.

use std::os::raw::{c_int, c_long};

#[cfg(not(target_os = "linux"))]
compile_error!("stabbench reads the thread CPU clock by its Linux clock id");

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds [`reference_work`] took on the host the baseline was
/// measured on (a 2-vCPU 2.1 GHz Xeon VM), median over rounds.
pub const REFERENCE_WORK_S: f64 = 0.0125;

/// Run a fixed piece of work that uses no library code — map inserts,
/// lookups and removals over small heap buffers, seeded the same every
/// time — and return the CPU seconds it took. Its time against
/// [`REFERENCE_WORK_S`] says how fast the host runs right now: on a
/// shared host, other tenants' load slows a thread's CPU time itself
/// (caches, memory bandwidth, sibling hyperthreads), which no clock
/// excludes.
pub fn reference_work() -> f64 {
    use std::collections::BTreeMap;
    let t0 = thread_cpu_s();
    let mut rng = crate::rng::Rng::derive(7, 7);
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        let v = map
            .entry(rng.below(20_000))
            .or_insert_with(|| vec![0u8; 64]);
        v[(i % 64) as usize] ^= i as u8;
        acc = acc.wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
        if i % 3 == 0 {
            map.remove(&rng.below(20_000));
        }
    }
    std::hint::black_box(acc);
    thread_cpu_s() - t0
}
