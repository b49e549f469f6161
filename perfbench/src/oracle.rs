//! `oracle-sweep`: seeded fuzz programs, each lockstepped interp ↔
//! {dbt, virt, detailed} by `fuzz_pair`, analyzed with the interpreter
//! check by `analyze_fuzz`, and run once directly on all five engines.

use std::time::Instant;

use simbench_analyzer::{analyze_fuzz, AnalyzeOpts};
use simbench_campaign::{EngineKind, Guest};
use simbench_core::engine::ExitReason;
use simbench_core::image::GuestImage;
use simbench_differ::{fuzz_pair, generate, program_seed, DifferConfig};

use crate::config;
use crate::direct::{self, Devices};
use crate::report::{self, geomean, median, ratio, Outcome, Timing};
use crate::trace::Tracer;
use crate::Args;

/// One fuzz subject: program 0 of `seed` on `guest`, the binary both
/// `fuzz_pair(guest, .., seed, 1, ..)` and `analyze_fuzz(guest, seed, 0,
/// ..)` build.
struct Subject {
    guest: Guest,
    seed: u64,
    image: GuestImage,
}

/// One direct run of a subject, in raw host time.
struct DirectRun {
    engine: EngineKind,
    mips: f64,
    outside_us: f64,
}

/// Per-subject counts the per-layer metrics need.
#[derive(Default)]
struct Tally {
    checkpoints: u64,
    pairs: u64,
    blocks: u64,
    analyses: u64,
}

fn subject(
    s: &Subject,
    digest: bool,
    tally: &mut Tally,
    t: &mut Tracer,
) -> (Vec<String>, Vec<DirectRun>) {
    let mut problems = Vec::new();
    let mut runs = Vec::new();
    let label = format!("{}/fuzz:{:#x}", s.guest.isa_name(), s.seed);
    let cfg = DifferConfig {
        checkpoints: config::ORACLE_CHECKPOINTS,
        ..DifferConfig::default()
    };
    for engine in [
        EngineKind::fig7_columns()[0],
        EngineKind::Virt,
        EngineKind::Detailed,
    ] {
        let reports = t.span("differ.fuzz_pair", |_| {
            fuzz_pair(s.guest, EngineKind::Interp, engine, s.seed, 1, &cfg)
        });
        for r in &reports {
            tally.pairs += 1;
            tally.checkpoints += u64::from(r.checkpoints);
            if !r.agree() {
                problems.push(r.render());
            }
        }
        if reports.len() != 1 {
            problems.push(format!("{label}: {} lockstep reports", reports.len()));
        }
    }
    let opts = AnalyzeOpts {
        check: true,
        ..AnalyzeOpts::default()
    };
    let a = t.span("analyzer.analyze_fuzz", |_| {
        analyze_fuzz(s.guest, s.seed, 0, &opts)
    });
    tally.analyses += 1;
    tally.blocks += a.blocks.len() as u64;
    if !a.ok() || !a.check.as_ref().is_some_and(|c| c.matched) {
        problems.push(format!("{}: {:?}", a.render_line(), a.render_problems()));
    }
    for engine in EngineKind::fig7_columns() {
        let digest = digest && engine == EngineKind::Interp;
        let p = direct::run(s.guest, engine, &s.image, Devices::Full, digest, t);
        if p.exit != ExitReason::Halted {
            problems.push(format!("{label}: {} ended {}", engine.id(), p.exit));
            continue;
        }
        let kernel = p.kernel_wall();
        let insns = p.kernel_counters().instructions as f64;
        runs.push(DirectRun {
            engine,
            mips: ratio(insns, kernel.as_secs_f64() * 1e6),
            outside_us: p.wall.saturating_sub(kernel).as_secs_f64() * 1e6,
        });
    }
    (problems, runs)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(args.trace);
    // Set-up: generate the subject pool (round-robin over the guests)
    // [`config::SETUP_ROUNDS`] times; `setup_s` is the median
    // calibrated round.
    let (setup_s, subjects) = report::calibrated_rounds(config::SETUP_ROUNDS, || {
        (0..config::ORACLE_SUBJECTS)
            .map(|k| {
                let guest = Guest::ALL[k as usize % Guest::ALL.len()];
                let seed = program_seed(args.seed, k);
                let image = t.span("differ.generate", |_| {
                    generate(guest, program_seed(seed, 0))
                });
                Subject { guest, seed, image }
            })
            .collect::<Vec<_>>()
    });
    out.set("setup_s", setup_s);
    out.set("differ.generate_ms", median(&t.millis("differ.generate")));

    let mut tally = Tally::default();
    // `(engine, value)` of every direct run, calibrated.
    let (mut mips, mut outside_us) = (Vec::new(), Vec::new());
    let mut timing = Timing::default();
    let start = Instant::now();
    let mut n = 0usize;
    while n == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let s = &subjects[n % subjects.len()];
        let digest = n.is_multiple_of(config::ORACLE_DIGEST_EVERY);
        timing.op(
            &mut t,
            args.trace,
            n,
            |t| subject(s, digest, &mut tally, t),
            |(problems, runs), _, slowdown| {
                out.record(problems);
                for r in runs {
                    mips.push((r.engine, r.mips * slowdown));
                    outside_us.push((r.engine, r.outside_us / slowdown));
                }
            },
        );
        n += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{n} subjects ({} distinct) in {wall:.3} s",
        n.min(subjects.len())
    ));
    timing.report(args.trace, &mut out);
    for e in EngineKind::fig7_columns() {
        let of = |v: &[(EngineKind, f64)]| -> Vec<f64> {
            v.iter().filter(|(k, _)| *k == e).map(|(_, x)| *x).collect()
        };
        let name = config::engine_name(e);
        out.set(format!("mips.{name}"), geomean(&of(&mips)));
        out.set(
            format!("{name}.outside_kernel_us"),
            median(&of(&outside_us)),
        );
    }
    if args.trace {
        crate::check::boot_metric(&t, &mut out);
        let lockstep = t.millis("differ.fuzz_pair");
        out.set("differ.lockstep_ms.p50", median(&lockstep));
        let per_pair = ratio(tally.checkpoints as f64, tally.pairs as f64);
        out.set("differ.checkpoints", per_pair);
        let digest_ms = median(&t.millis("core.digest"));
        out.set(
            "differ.digest_share",
            ratio(2.0 * per_pair * digest_ms, median(&lockstep)),
        );
        out.set(
            "analyzer.analyze_ms.p50",
            median(&t.millis("analyzer.analyze_fuzz")),
        );
        out.set(
            "analyzer.blocks",
            ratio(tally.blocks as f64, tally.analyses as f64),
        );
        out.trace_table(&t);
        out.notes.push(crate::write_trace(args, &t));
    }
    out
}
