//! `suite-matrix` and `apps`: every cell of guests × workloads ×
//! engines, visited one `campaign::run` at a time in a seeded order,
//! each visit followed by one direct run of the same cell.

use std::time::{Duration, Instant};

use simbench_campaign::measure::workload_image;
use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::{
    CampaignSpec, CellKey, CellResult, EngineKind, Guest, RunnerOpts, Workload,
};
use simbench_core::engine::{ExitReason, RunOutcome};

use crate::check::{self, CellAgg, Reference};
use crate::config::{self, Hole};
use crate::direct::{self, Devices};
use crate::report::{self, median, Outcome, Timing};
use crate::trace::Tracer;
use crate::Args;

/// Which matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Apps,
}

/// One cell with the campaign scale that yields its iteration count.
#[derive(Debug, Clone, Copy)]
struct Plan {
    key: CellKey,
    scale: u64,
    hole: Option<Hole>,
}

/// `(workload, iterations, campaign scale)` for every workload of the
/// matrix. Panics if a configured count is not reproducible by an
/// integer scale: that is a configuration bug.
fn workloads(kind: Kind) -> Vec<(Workload, u32, u64)> {
    match kind {
        Kind::Suite => config::SUITE_ITERATIONS
            .iter()
            .map(|&(b, iters)| {
                let scale = b.paper_iterations() / u64::from(iters);
                assert_eq!(
                    b.scaled_iterations(scale),
                    iters,
                    "{}: iterations",
                    b.name()
                );
                (Workload::Suite(b), iters, scale)
            })
            .collect(),
        // The campaign runs apps at divisor `ceil(scale / 50)`.
        Kind::Apps => config::APP_ITERATIONS
            .iter()
            .map(|&(a, iters)| {
                let divisor = a.default_iterations() / u64::from(iters);
                assert_eq!(
                    a.scaled_iterations(divisor),
                    iters,
                    "{}: iterations",
                    a.name()
                );
                (Workload::App(a), iters, divisor * 50)
            })
            .collect(),
    }
}

fn plans(kind: Kind) -> Vec<Plan> {
    let mut out = Vec::new();
    for guest in Guest::ALL {
        for (workload, _, scale) in workloads(kind) {
            for engine in EngineKind::fig7_columns() {
                out.push(Plan {
                    key: CellKey {
                        guest,
                        engine,
                        workload,
                    },
                    scale,
                    hole: config::expected_hole(guest, engine, workload),
                });
            }
        }
    }
    out
}

/// Assemble one guest image with the suite or apps layer directly.
fn build_image(guest: Guest, workload: Workload, iters: u32, t: &mut Tracer) -> bool {
    struct Build(Workload, u32);
    impl GuestVisitor for Build {
        type Out = bool;
        fn visit<G: GuestSpec>(self) -> bool {
            let support = G::Support::default();
            match self.0 {
                Workload::Suite(b) => simbench_suite::build(&support, b, self.1).is_some(),
                Workload::App(a) => {
                    std::hint::black_box(simbench_apps::build_app(&support, a, self.1));
                    true
                }
            }
        }
    }
    let name = match workload {
        Workload::Suite(_) => "suite.build",
        Workload::App(_) => "apps.build_app",
    };
    t.span(name, |_| dispatch_guest(guest, Build(workload, iters)))
}

/// Set-up: assemble every image of `workloads` [`config::SETUP_ROUNDS`]
/// times (the median calibrated round is `setup_s`), then fill the
/// campaign's image cache so no timed operation assembles.
pub fn setup(workloads: &[(Workload, u32, u64)], t: &mut Tracer, out: &mut Outcome) {
    let (setup_s, images) = report::calibrated_rounds(config::SETUP_ROUNDS, || {
        let mut images = 0;
        for guest in Guest::ALL {
            for &(workload, iters, _) in workloads {
                if workload.supported_on(guest) {
                    images += usize::from(build_image(guest, workload, iters, t));
                }
            }
        }
        images
    });
    for guest in Guest::ALL {
        for &(workload, _, scale) in workloads {
            if workload.supported_on(guest) {
                workload_image(guest, workload, scale).expect("supported workload");
            }
        }
    }
    out.set("setup_s", setup_s);
    let build: Duration = ["suite.build", "apps.build_app"]
        .iter()
        .flat_map(|n| t.durations(n))
        .sum();
    out.set(
        "suite.build_ms",
        build.as_secs_f64() * 1e3 / config::SETUP_ROUNDS as f64,
    );
    out.set("suite.images", images as f64);
}

/// One visit: a one-cell campaign, then one direct run of the cell.
fn visit(plan: &Plan, t: &mut Tracer) -> (CellResult, Option<RunOutcome>) {
    let CellKey {
        guest,
        engine,
        workload,
    } = plan.key;
    let spec = CampaignSpec {
        name: "perfbench".to_string(),
        guests: vec![guest],
        engines: vec![engine],
        workloads: vec![workload],
        scale: plan.scale,
        reps: config::MATRIX_REPS,
        precision: None,
        wall_limit: Some(Duration::from_secs(60)),
    };
    let result = t.span("campaign.run", |_| {
        simbench_campaign::run(&spec, &RunnerOpts::serial())
    });
    let cell = result.cells.into_iter().next().expect("one-cell spec");
    let probe = plan.hole.is_none().then(|| {
        let image = workload_image(guest, workload, plan.scale).expect("supported workload");
        direct::run(guest, engine, &image, Devices::Fig7, false, t)
    });
    (cell, probe)
}

fn check_probe(cell: &CellResult, probe: Option<&RunOutcome>) -> Vec<String> {
    let Some(p) = probe else {
        return Vec::new();
    };
    let id = check::cell_id(cell);
    if p.exit != ExitReason::Halted {
        return vec![format!("{id}: direct run ended {}", p.exit)];
    }
    if cell.status.is_broken() || p.kernel_counters() == cell.counters {
        Vec::new()
    } else {
        vec![format!(
            "{id}: direct-run kernel counters differ from the campaign's"
        )]
    }
}

/// One untimed pass for `--write-reference`.
pub fn reference(kind: Kind) -> Vec<CellResult> {
    let mut t = Tracer::new(false);
    plans(kind).iter().map(|p| visit(p, &mut t).0).collect()
}

pub fn run(kind: Kind, args: &Args, reference: &Reference) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(args.trace);
    setup(&workloads(kind), &mut t, &mut out);
    let plans = plans(kind);
    let order = report::permutation(plans.len(), &mut simbench_differ::Rng::new(args.seed));
    let mut aggs: Vec<CellAgg> = plans
        .iter()
        .map(|p| CellAgg::new(p.key.engine, p.key.workload))
        .collect();
    let mut outside_us: Vec<(EngineKind, f64)> = Vec::new();
    let mut timing = Timing::default();
    let mut pass_s = Vec::new();
    let (mut traced_kernel_s, mut traced_reps) = (0.0, 0u64);
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        for &i in &order {
            let plan = &plans[i];
            let n = timing.lat_ms.len();
            timing.op(
                &mut t,
                args.trace,
                n,
                |t| visit(plan, t),
                |(mut cell, probe), traced, slowdown| {
                    let mut problems = check::cell(plan.hole, &cell, reference);
                    problems.extend(check_probe(&cell, probe.as_ref()));
                    out.record(problems);
                    if traced {
                        traced_kernel_s += cell.seconds.iter().sum::<f64>();
                        traced_reps += u64::from(cell.reps_run);
                    }
                    if let Some(p) = probe {
                        let outside = p.wall.saturating_sub(p.kernel_wall());
                        let us = outside.as_secs_f64() * 1e6 / slowdown;
                        outside_us.push((plan.key.engine, us));
                    }
                    cell.seconds.iter_mut().for_each(|s| *s /= slowdown);
                    aggs[i].add(&cell);
                },
            );
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
        // Whole passes only, so every cell has the same weight; stop
        // when the next pass would end after the time budget.
        if start.elapsed().as_secs_f64() + median(&pass_s) > args.seconds {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{} passes over {} cells in {wall:.3} s ({} campaign reps per visit)",
        pass_s.len(),
        plans.len(),
        config::MATRIX_REPS
    ));
    timing.report(args.trace, &mut out);
    check::engine_metrics(&aggs, &mut out);
    for e in EngineKind::fig7_columns() {
        let us: Vec<f64> = outside_us
            .iter()
            .filter(|(k, _)| *k == e)
            .map(|(_, v)| *v)
            .collect();
        out.set(
            format!("{}.outside_kernel_us", config::engine_name(e)),
            median(&us),
        );
    }
    if args.trace {
        check::boot_metric(&t, &mut out);
        let run: Duration = t.durations("campaign.run").iter().sum();
        check::campaign_metrics(run, 1, traced_kernel_s, traced_reps, pass_s.len(), &mut out);
        out.trace_table(&t);
        out.notes.push(crate::write_trace(args, &t));
    }
    out
}
