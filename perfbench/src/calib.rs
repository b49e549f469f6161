//! Host-speed calibration.
//!
//! The benchmark runs on a virtual CPU of a shared host whose speed
//! moves by 10–30 % from one second to the next and from one minute to
//! the next, and which moves every timing of a run together. Each timed
//! operation is therefore bracketed by probes: a fixed piece of work
//! that is part of the benchmark, never of the program under test. The
//! probe's time over [`REFERENCE_S`] is the host's slowdown at that
//! moment, and the workloads divide the operation's times by it. A
//! change to the program moves its times and not the probe's; a change
//! of host speed moves both and cancels out.
//!
//! The probe maps fresh memory, faults pages into it and unmaps it, as
//! every booted machine does with its guest RAM. Of the probes tried on
//! the development host (an interpreter loop, threaded code, a
//! last-level-cache pointer chase and this one), it was the one whose
//! time tracked all five engines: with an interpreter-loop probe the
//! `dbt` and `detailed` kernels still moved twice as much as the probe,
//! so their run-to-run spread stayed above 15 %. The README has the
//! figures.

use std::hint::black_box;
use std::time::Instant;

/// Probe time on the development host (the median probe over twenty
/// 12 s runs of the matrix workloads), so calibrated times are in that
/// host's seconds.
pub const REFERENCE_S: f64 = 500e-6;

/// Memory mapped per probe attempt: above glibc's largest mmap
/// threshold (32 MiB), so every attempt maps fresh pages and unmaps
/// them whatever the state of the program's heap.
const BYTES: usize = 40 << 20;

/// Pages touched (and so faulted in) per attempt.
const PAGES: usize = 256;

/// Attempts per probe; the fastest counts, as an interrupt or a
/// preemption only ever adds time.
const ATTEMPTS: usize = 3;

/// One attempt: map [`BYTES`], touch [`PAGES`] pages spread over them,
/// unmap.
fn touch_fresh_pages() {
    let mut v = vec![0u8; BYTES];
    for i in (0..BYTES).step_by(BYTES / PAGES) {
        v[i] = 1;
    }
    black_box(&v);
}

/// The host's current slowdown against the reference host: the fastest
/// of [`ATTEMPTS`] probe attempts over [`REFERENCE_S`].
pub fn slowdown() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..ATTEMPTS {
        let t0 = Instant::now();
        touch_fresh_pages();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best / REFERENCE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_positive_and_finite() {
        let s = slowdown();
        assert!(s > 0.0 && s.is_finite());
    }
}
