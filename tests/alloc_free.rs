//! Allocation audit of the engine hot loops.
//!
//! A test-only counting `#[global_allocator]` wrapper proves the
//! claim behind `OpList`, the DBT step arena, the reusable translation
//! scratch buffer and virt's pooled decode tables: once an engine is
//! warm, executing guest code touches the allocator **zero** times —
//! decode, dispatch and execute run entirely on inline storage and
//! pre-grown capacity.
//!
//! The counter is thread-local: libtest's own harness threads (and any
//! concurrently running test) allocate at unpredictable times, and only
//! allocations made *by the measuring thread* are evidence about the
//! hot loop.
//!
//! Since the telemetry PR the engines are instrumented with
//! `simbench-obs` spans and metrics, so this test also pins the
//! observability contract both ways: compiled-in-but-disabled telemetry
//! changes none of the zero-allocation guarantees above (the disabled
//! path is one relaxed load + branch), and even *enabled* telemetry is
//! allocation-free once warm — rings are fixed-capacity and metric
//! registration happens exactly once.
//!
//! Since recycled guest RAM, the claim extends past the engine to a
//! whole repetition: once warm, booting a [`Platform`] machine, running
//! it and dropping it allocates nothing, because the platform's RAM and
//! written-page map come back from the free list that the previous
//! drop returned them to.
//!
//! Everything lives in ONE sequential test function: the obs enable
//! flags are process-global, and a parallel test flipping them would
//! push another test's hot loop onto the (allocating) warm-up path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simbench_core::asm::{PReg, PortableAsm};
use simbench_core::bus::FlatRam;
use simbench_core::engine::{Engine, ExitReason, RunLimits, RunOutcome};
use simbench_core::image::GuestImage;
use simbench_core::ir::{AluOp, Cond};
use simbench_core::machine::Machine;
use simbench_dbt::Dbt;
use simbench_interp::Interp;
use simbench_isa_armlet::{Armlet, ArmletAsm};
use simbench_platform::Platform;
use simbench_virt::{Virt, VirtConfig};

/// Counts every allocation and reallocation made by the current
/// thread; frees are not interesting (a hot loop that frees must have
/// allocated first).
struct CountingAlloc;

thread_local! {
    // Const-initialized so reading it never allocates (a lazily
    // initialized TLS slot would recurse into the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Bump the current thread's counter. `try_with`: the allocator also
/// runs during TLS teardown, when the slot is gone.
fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// A hot loop exercising the full per-instruction path: ALU ops, a
/// store/load pair, a compare and a taken intra-page branch.
fn hot_loop_image(iters: u32) -> GuestImage {
    let mut a = ArmletAsm::new();
    a.org(0x8000);
    a.mov_imm(PReg::A, 0);
    a.mov_imm(PReg::B, iters);
    a.mov_imm(PReg::C, 0x4000);
    let top = a.new_label();
    a.bind(top);
    a.store(PReg::A, PReg::C, 0);
    a.load(PReg::D, PReg::C, 0);
    a.alu_ri(AluOp::Add, PReg::A, PReg::A, 1);
    a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
    a.cmp_ri(PReg::B, 0);
    a.b_cond(Cond::Ne, top);
    a.halt();
    a.finish(0x8000)
}

/// Run `engine` over a fresh machine (booted outside the measured
/// window) and return the allocation count of the run itself.
fn measured_run<E: Engine<Armlet, FlatRam>>(engine: &mut E, img: &GuestImage) -> (u64, RunOutcome) {
    let mut m = Machine::<Armlet, _>::boot(img, FlatRam::new(1 << 20));
    let before = allocs();
    let out = engine.run(&mut m, &RunLimits::insns(10_000_000));
    let delta = allocs() - before;
    (delta, out)
}

/// Boot a [`Platform`] machine, run `engine` on it and drop it, all
/// inside the measured window; return the allocation count.
fn measured_platform_rep<E: Engine<Armlet, Platform>>(engine: &mut E, img: &GuestImage) -> u64 {
    let before = allocs();
    let mut m = Machine::<Armlet, _>::boot(img, Platform::with_ram(1 << 20));
    let out = engine.run(&mut m, &RunLimits::insns(10_000_000));
    assert_eq!(out.exit, ExitReason::Halted);
    drop(m);
    allocs() - before
}

#[test]
fn warm_hot_loops_allocate_nothing() {
    let img = hot_loop_image(20_000);

    // Telemetry is compiled into both engines below, and its default-off
    // state is the precondition for every zero-allocation assertion
    // that follows.
    assert!(
        !simbench_obs::tracing_enabled() && !simbench_obs::metrics_enabled(),
        "obs must be disabled by default"
    );

    // Fast interpreter: decode results live inline in `Decoded`
    // (`OpList`), the fetch buffer is on the stack, and the per-run
    // single-entry caches are plain fields — even the *first* run of a
    // fresh engine must not allocate.
    let mut interp = Interp::<Armlet>::new();
    let (warm, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        warm, 0,
        "interp allocated {warm} times during a cold hot-loop run"
    );
    let (steady, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(steady, 0, "interp steady state allocated {steady} times");

    // DBT: the first run grows the step arena, block table, lookup maps
    // and the translation scratch buffer (warm-up may allocate). Every
    // later run retranslates the same program into that retained
    // capacity, so the steady state is allocation-free — including the
    // full re-translation after the run-start `flush_all`.
    let mut dbt = Dbt::<Armlet>::new();
    let (_warmup, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "dbt steady state allocated {steady} times after warm-up"
    );
    assert!(
        out.counters.block_chain_follows > 10_000,
        "the loop must actually run via chained blocks: {}",
        out.counters.block_chain_follows
    );

    // virt and native: the first run grows the decode cache's page
    // directory and table pool. The run-start reset empties the tables
    // in place, so the second run decodes into them again without
    // allocating.
    let kvm = VirtConfig {
        exit_cost_ns: 0,
        ..VirtConfig::kvm()
    };
    for mut virt in [Virt::<Armlet>::native(), Virt::with_config(kvm)] {
        let (_warmup, out) = measured_run(&mut virt, &img);
        assert_eq!(out.exit, ExitReason::Halted);
        let (steady, out) = measured_run(&mut virt, &img);
        assert_eq!(out.exit, ExitReason::Halted);
        let name = virt.config().name;
        assert_eq!(
            steady, 0,
            "{name} steady state allocated {steady} times after warm-up"
        );
    }

    // A whole repetition on the real platform: the first one allocates
    // the RAM and grows the free list; every later boot takes the
    // buffers back from it and every drop returns them.
    let warmup = measured_platform_rep(&mut interp, &img);
    assert!(warmup > 0, "the first boot allocates its RAM");
    let steady = measured_platform_rep(&mut interp, &img);
    assert_eq!(
        steady, 0,
        "boot + run + drop of a Platform machine allocated {steady} times once warm"
    );

    // Enabled telemetry: the first instrumented run pays one-time costs
    // (per-thread ring creation, metric registration in the process
    // registry), after which spans are fixed-slot ring writes and
    // metric updates are relaxed fetch_adds — the steady state stays
    // allocation-free even while recording.
    simbench_obs::set_tracing(true);
    simbench_obs::set_metrics(true);
    let (_warmup, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut interp, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "interp with telemetry enabled allocated {steady} times after warm-up"
    );
    let (_warmup, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(
        steady, 0,
        "dbt with telemetry enabled allocated {steady} times after warm-up"
    );
    simbench_obs::set_tracing(false);
    simbench_obs::set_metrics(false);

    // Back to disabled: the flags leave no residue in the hot loops.
    let (steady, out) = measured_run(&mut dbt, &img);
    assert_eq!(out.exit, ExitReason::Halted);
    assert_eq!(steady, 0, "dbt after disabling telemetry: {steady} allocs");
}
