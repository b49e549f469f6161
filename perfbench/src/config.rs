//! The benchmark's fixed configuration: per-workload iteration counts,
//! the documented matrix holes, loop sizes and the metric lists.
//!
//! Everything here is data. Changing an iteration count changes the
//! counters, so the committed references must be regenerated with
//! `--write-reference` in the same change.

use simbench_apps::App;
use simbench_campaign::{EngineKind, Guest, Workload};
use simbench_suite::Benchmark;

/// Seed used when `--seed` is omitted; figures quoted in the README
/// were taken with it.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out from tuning: a claimed gain must also hold on it.
pub const HELD_OUT_SEED: u64 = 977;

/// Guest iterations per suite kernel. Chosen so the geometric mean of
/// a benchmark's 15 cells is about 5 ms of kernel time and its slowest
/// cell stays under about 40 ms, in place of one global scale divisor
/// (which leaves Small Blocks well under a millisecond while virt MMIO
/// takes tens of milliseconds). Each count is exactly `paper / scale`
/// for an integer scale, so the campaign's divisor reproduces it.
pub const SUITE_ITERATIONS: [(Benchmark, u32); 18] = [
    (Benchmark::SmallBlocks, 420),
    (Benchmark::LargeBlocks, 280),
    (Benchmark::InterPageDirect, 8_700),
    (Benchmark::InterPageIndirect, 2_500),
    (Benchmark::IntraPageDirect, 11_000),
    (Benchmark::IntraPageIndirect, 5_000),
    (Benchmark::DataFault, 20_000),
    (Benchmark::InsnFault, 10_000),
    (Benchmark::UndefInsn, 13_000),
    (Benchmark::Syscall, 20_000),
    (Benchmark::ExtSwi, 6_700),
    (Benchmark::MmioDevice, 22_000),
    (Benchmark::CoprocAccess, 20_000),
    (Benchmark::MemCold, 4_200),
    (Benchmark::MemHot, 5_800),
    (Benchmark::NonprivAccess, 5_400),
    (Benchmark::TlbEvict, 3_300),
    (Benchmark::TlbFlush, 2_400),
];

/// Guest iterations per application, on the same 5 ms target.
pub const APP_ITERATIONS: [(App, u32); 9] = [
    (App::SjengLike, 2_500),
    (App::McfLike, 4_000),
    (App::GccLike, 6_250),
    (App::Bzip2Like, 1_000),
    (App::GobmkLike, 5_000),
    (App::HmmerLike, 2_500),
    (App::LibquantumLike, 5_000),
    (App::H264Like, 1_250),
    (App::XalancLike, 2_500),
];

/// Campaign repetitions per cell visit in `suite-matrix` and `apps`.
pub const MATRIX_REPS: u32 = 3;

/// Campaign scale that floors every suite kernel at the minimum 16
/// iterations (`campaign-churn`).
pub const CHURN_SCALE: u64 = 1_000_000_000;

/// Repetitions per cell in one `campaign-churn` round.
pub const CHURN_REPS: u32 = 4;

/// Fuzz subjects generated per run of `oracle-sweep`, spread over the
/// three guests; the timed loop cycles through them.
pub const ORACLE_SUBJECTS: u32 = 240;

/// Digest comparisons each lockstep pair aims for.
pub const ORACLE_CHECKPOINTS: u32 = 8;

/// Every this many subjects, the interpreter's direct run also hashes
/// its final state, to time `state_digest` on its own (one digest costs
/// about as much as the rest of a subject's direct runs together).
pub const ORACLE_DIGEST_EVERY: usize = 8;

/// Set-up rounds per run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 21;

/// Short engine name used in metric names (`dbt`, not `dbt@v2.5.0`).
pub fn engine_name(e: EngineKind) -> &'static str {
    match e {
        EngineKind::Dbt(_) => "dbt",
        EngineKind::Interp => "interp",
        EngineKind::Detailed => "detailed",
        EngineKind::Virt => "virt",
        EngineKind::Native => "native",
    }
}

/// Metric-name form of a suite category.
pub fn category_name(category: &str) -> &'static str {
    match category {
        "Code Generation" => "codegen",
        "Control Flow" => "control",
        "Exception Handling" => "exception",
        "I/O" => "io",
        _ => "memory",
    }
}

/// The five category names, in paper order.
pub const CATEGORIES: [&str; 5] = ["codegen", "control", "exception", "io", "memory"];

/// What a cell of the matrix must end as. Every cell not listed in
/// [`expected_hole`] must be `ok`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hole {
    /// The detailed engine lacks the interrupt controller and the safe
    /// MMIO device (the paper's Fig 7 footnote): 6 cells.
    Unsupported,
    /// Nonprivileged Access does not exist on petix and riscle: 10 cells.
    NotOnIsa,
}

/// The 16 documented holes of the 270-cell suite matrix.
pub fn expected_hole(guest: Guest, engine: EngineKind, workload: Workload) -> Option<Hole> {
    match workload {
        Workload::Suite(Benchmark::NonprivAccess) if guest != Guest::Armlet => Some(Hole::NotOnIsa),
        Workload::Suite(Benchmark::ExtSwi | Benchmark::MmioDevice)
            if engine == EngineKind::Detailed =>
        {
            Some(Hole::Unsupported)
        }
        _ => None,
    }
}

/// End-to-end metrics: every run with `--trace 0` reports each of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("mips.interp", "MIPS"),
    ("mips.dbt", "MIPS"),
    ("mips.virt", "MIPS"),
    ("mips.native", "MIPS"),
    ("mips.detailed", "MIPS"),
];

/// Per-layer metrics: every run with `--trace 1` reports each of them,
/// as 0 where the workload does not call the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.overhead_frac".into(), "ratio"),
        ("suite.build_ms".into(), "ms"),
        ("suite.images".into(), "count"),
        ("core.boot_us".into(), "us"),
        ("core.digest_ms".into(), "ms"),
    ];
    for e in EngineKind::fig7_columns() {
        let e = engine_name(e);
        for c in CATEGORIES {
            out.push((format!("{e}.{c}.ns_per_op"), "ns"));
        }
        out.push((format!("{e}.apps.ns_per_insn"), "ns"));
        out.push((format!("{e}.outside_kernel_us"), "us"));
        out.push((format!("{e}.tlb_miss_ratio"), "ratio"));
    }
    for (name, unit) in [
        ("dbt.ns_per_translation", "ns"),
        ("dbt.block_hit_ratio", "ratio"),
        ("dbt.chain_ratio", "ratio"),
        ("virt.ns_per_exit", "ns"),
        ("virt.exits_per_kinsn", "count"),
        ("campaign.run_s", "s"),
        ("campaign.kernel_s", "s"),
        ("campaign.overhead_us_per_rep", "us"),
        ("campaign.save_ms", "ms"),
        ("campaign.load_ms", "ms"),
        ("campaign.merge_ms", "ms"),
        ("campaign.compare_ms", "ms"),
        ("campaign.replay_ms", "ms"),
        ("campaign.journal_bytes", "bytes"),
        ("campaign.artifact_bytes", "bytes"),
        ("differ.lockstep_ms.p50", "ms"),
        ("differ.checkpoints", "count"),
        ("differ.digest_share", "ratio"),
        ("differ.generate_ms", "ms"),
        ("analyzer.analyze_ms.p50", "ms"),
        ("analyzer.blocks", "count"),
    ] {
        out.push((name.into(), unit));
    }
    out
}
