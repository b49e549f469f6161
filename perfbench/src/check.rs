//! The output-correctness gate against the committed reference
//! counters, and the metrics derived from per-cell campaign results.

use std::path::Path;
use std::time::Duration;

use simbench_campaign::{
    CampaignResult, CellResult, CellStatus, EngineKind, Guest, Workload, SCHEMA,
};
use simbench_core::events::Counters;

use crate::config::{self, Hole};
use crate::report::{geomean, median, ratio, Outcome};
use crate::trace::Tracer;

/// Committed per-cell counters of one workload.
pub struct Reference(pub CampaignResult);

impl Reference {
    pub fn load(path: &Path) -> Result<Reference, String> {
        CampaignResult::load(path)
            .map(Reference)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Persist `cells` as the reference, without timings, so that
    /// regenerating an unchanged program rewrites identical bytes.
    pub fn save(path: &Path, name: &str, reps: u32, cells: Vec<CellResult>) -> Result<(), String> {
        let cells = cells
            .into_iter()
            .map(|mut c| {
                c.seconds.clear();
                c.stats = None;
                c
            })
            .collect();
        let result = CampaignResult {
            schema: SCHEMA.to_string(),
            name: name.to_string(),
            scale: 0,
            reps,
            precision: None,
            jobs: 1,
            shard: None,
            journal: None,
            wall_secs: 0.0,
            created_unix: 0,
            telemetry: None,
            cells,
        };
        result
            .save(path)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

pub fn cell_id(cell: &CellResult) -> String {
    format!("{}/{}/{}", cell.guest, cell.engine, cell.workload)
}

/// The documented hole a persisted cell must be, from its ids.
pub fn hole_of(cell: &CellResult) -> Option<Hole> {
    let guest = Guest::by_isa_name(&cell.guest)?;
    let engine = EngineKind::by_id(&cell.engine)?;
    let workload = Workload::by_id(&cell.workload)?;
    config::expected_hole(guest, engine, workload)
}

/// The cell's status problem, if any: a documented hole must have its
/// documented status and every other cell must be `ok`.
pub fn status(expected: Option<Hole>, cell: &CellResult) -> Option<String> {
    match (expected, &cell.status) {
        (Some(Hole::NotOnIsa), CellStatus::NotOnIsa)
        | (Some(Hole::Unsupported), CellStatus::Unsupported(_))
        | (None, CellStatus::Ok) => None,
        (_, status) => Some(format!(
            "{}: status {status:?}, expected {}",
            cell_id(cell),
            expected.map_or("Ok".to_string(), |h| format!("{h:?}"))
        )),
    }
}

/// Check one cell: its [`status`], and for an `ok` cell that every
/// repetition had the same counters and that they match the reference
/// counters exactly.
pub fn cell(expected: Option<Hole>, cell: &CellResult, reference: &Reference) -> Vec<String> {
    if let Some(p) = status(expected, cell) {
        return vec![p];
    }
    if cell.status != CellStatus::Ok {
        return Vec::new();
    }
    let id = cell_id(cell);
    let mut problems = Vec::new();
    if !cell.counters_consistent {
        problems.push(format!("{id}: counters differ between repetitions"));
    }
    match reference.0.cell(&cell.guest, &cell.engine, &cell.workload) {
        Some(r) if r.status == CellStatus::Ok && r.iterations == cell.iterations => {
            let diffs: Vec<&str> = Counters::NAMES
                .iter()
                .zip(r.counters.rows().into_iter().zip(cell.counters.rows()))
                .filter(|(_, (a, b))| a != b)
                .map(|(name, _)| *name)
                .collect();
            if !diffs.is_empty() {
                problems.push(format!("{id}: counters differ from reference: {diffs:?}"));
            }
        }
        Some(r) => problems.push(format!(
            "{id}: reference is {:?} at {} iterations, run is ok at {}",
            r.status, r.iterations, cell.iterations
        )),
        None => problems.push(format!("{id}: no reference cell")),
    }
    problems
}

/// Kernel seconds of every visit to one cell, with its counters.
#[derive(Debug, Clone)]
pub struct CellAgg {
    pub engine: EngineKind,
    pub workload: Workload,
    pub counters: Counters,
    pub seconds: Vec<f64>,
}

impl CellAgg {
    pub fn new(engine: EngineKind, workload: Workload) -> CellAgg {
        CellAgg {
            engine,
            workload,
            counters: Counters::default(),
            seconds: Vec::new(),
        }
    }

    /// Add an `ok` cell's repetitions; other statuses add nothing.
    pub fn add(&mut self, cell: &CellResult) {
        if cell.status == CellStatus::Ok {
            self.counters = cell.counters;
            self.seconds.extend_from_slice(&cell.seconds);
        }
    }

    fn kernel_ns(&self) -> f64 {
        median(&self.seconds) * 1e9
    }
}

/// `mips.<engine>`: geomean over the engine's ok cells of guest
/// instructions per median kernel second; also the engines' per-category,
/// TLB, DBT and VM-exit layer metrics, which traced runs print.
pub fn engine_metrics(aggs: &[CellAgg], out: &mut Outcome) {
    let measured: Vec<&CellAgg> = aggs.iter().filter(|a| !a.seconds.is_empty()).collect();
    let per_cell = |engine: EngineKind, f: &dyn Fn(&CellAgg) -> Option<f64>| -> f64 {
        let v: Vec<f64> = measured
            .iter()
            .filter(|a| a.engine == engine)
            .filter_map(|a| f(a))
            .collect();
        geomean(&v)
    };
    for e in EngineKind::fig7_columns() {
        let name = config::engine_name(e);
        out.set(
            format!("mips.{name}"),
            per_cell(e, &|a| {
                Some(a.counters.instructions as f64 / a.kernel_ns() * 1e3)
            }),
        );
        for cat in config::CATEGORIES {
            out.set(
                format!("{name}.{cat}.ns_per_op"),
                per_cell(e, &|a| {
                    let in_cat = a.workload.category().map(config::category_name) == Some(cat);
                    let ops = a.workload.tested_ops(&a.counters).unwrap_or(0);
                    (in_cat && ops > 0).then(|| a.kernel_ns() / ops as f64)
                }),
            );
        }
        out.set(
            format!("{name}.apps.ns_per_insn"),
            per_cell(e, &|a| {
                matches!(a.workload, Workload::App(_))
                    .then(|| a.kernel_ns() / a.counters.instructions as f64)
            }),
        );
        let total = sum(&measured, e);
        out.set(
            format!("{name}.tlb_miss_ratio"),
            ratio(
                total.tlb_misses as f64,
                (total.tlb_hits + total.tlb_misses) as f64,
            ),
        );
    }
    let dbt = EngineKind::fig7_columns()[0];
    out.set(
        "dbt.ns_per_translation",
        per_cell(dbt, &|a| {
            let codegen = a.workload.category() == Some("Code Generation");
            (codegen && a.counters.blocks_translated > 0)
                .then(|| a.kernel_ns() / a.counters.blocks_translated as f64)
        }),
    );
    let d = sum(&measured, dbt);
    let entries = d.block_cache_hits + d.blocks_translated;
    out.set(
        "dbt.block_hit_ratio",
        ratio(d.block_cache_hits as f64, entries as f64),
    );
    out.set(
        "dbt.chain_ratio",
        ratio(
            d.block_chain_follows as f64,
            (d.block_chain_follows + entries) as f64,
        ),
    );
    out.set(
        "virt.ns_per_exit",
        per_cell(EngineKind::Virt, &|a| {
            let cat = a.workload.category();
            (matches!(cat, Some("I/O" | "Exception Handling")) && a.counters.vm_exits > 0)
                .then(|| a.kernel_ns() / a.counters.vm_exits as f64)
        }),
    );
    let v = sum(&measured, EngineKind::Virt);
    out.set(
        "virt.exits_per_kinsn",
        ratio(v.vm_exits as f64 * 1e3, v.instructions as f64),
    );
}

fn sum(aggs: &[&CellAgg], engine: EngineKind) -> Counters {
    aggs.iter()
        .filter(|a| a.engine == engine)
        .fold(Counters::default(), |acc, a| acc.plus(&a.counters))
}

/// `core.boot_us`: median `Machine::boot` plus median drop, and
/// `core.digest_ms`: median `state_digest`.
pub fn boot_metric(t: &Tracer, out: &mut Outcome) {
    let boot_ms = median(&t.millis("core.boot")) + median(&t.millis("core.drop"));
    out.set("core.boot_us", boot_ms * 1e3);
    out.set("core.digest_ms", median(&t.millis("core.digest")));
}

/// Campaign-layer time per unit of work (a matrix pass or a churn
/// round): wall time inside the runner, kernel time it reported, and
/// the runner's own cost per repetition on each of its `workers`.
pub fn campaign_metrics(
    run: Duration,
    workers: u32,
    kernel_s: f64,
    reps: u64,
    units: usize,
    out: &mut Outcome,
) {
    let run_s = run.as_secs_f64();
    out.set("campaign.run_s", run_s / units as f64);
    out.set("campaign.kernel_s", kernel_s / units as f64);
    out.set(
        "campaign.overhead_us_per_rep",
        ratio((run_s * f64::from(workers) - kernel_s) * 1e6, reps as f64),
    );
}
