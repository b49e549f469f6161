//! `campaign-churn`: the CI sharded pipeline in a loop. Each round runs
//! the whole suite matrix at the minimum 16 iterations as two concurrent
//! shards, saves and reloads both artifacts, merges them and
//! counter-compares the merge against the reference. Kernels last
//! microseconds, so the runner, boot and persistence do most of the
//! work.
//!
//! The fault-smoke half of the pipeline, a journaled round whose
//! journals are replayed, runs once per run after the timed phase: its
//! cost is one fsync per repetition, and fsync latency on the shared
//! disk of the development host swung twofold from minute to minute,
//! far beyond any bound a timed metric could keep.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simbench_campaign::{
    compare_counters, merge, replay, run_shard, CampaignResult, CampaignSpec, CellResult,
    CellStatus, EngineKind, Guest, Journal, RunnerOpts, Shard, Verdict, Workload, JOURNAL_FILE,
};
use simbench_suite::Benchmark;

use crate::check::{self, CellAgg, Reference};
use crate::config;
use crate::report::{self, median, Outcome, Timing};
use crate::trace::Tracer;
use crate::Args;

/// Shards per round, run concurrently: the host's two cores.
const SHARDS: u32 = 2;

/// The round's spec, with guest, workload and engine axes in a seeded
/// order so the cell visit order differs between rounds and seeds.
fn spec(rng: &mut simbench_differ::Rng) -> CampaignSpec {
    fn shuffled<T: Copy>(v: &[T], rng: &mut simbench_differ::Rng) -> Vec<T> {
        report::permutation(v.len(), rng)
            .into_iter()
            .map(|i| v[i])
            .collect()
    }
    CampaignSpec {
        name: "campaign-churn".to_string(),
        guests: shuffled(&Guest::ALL, rng),
        engines: shuffled(&EngineKind::fig7_columns(), rng),
        workloads: shuffled(&CampaignSpec::suite_workloads(), rng),
        scale: config::CHURN_SCALE,
        reps: config::CHURN_REPS,
        precision: None,
        wall_limit: Some(Duration::from_secs(60)),
    }
}

/// What one round left behind, for the metrics.
struct Round {
    merged: Option<CampaignResult>,
    problems: Vec<String>,
    journal_bytes: u64,
    artifact_bytes: u64,
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// One round; with `journaled`, each shard also writes a journal that
/// is replayed and checked against the shard's result.
fn round(
    spec: &CampaignSpec,
    work: &Path,
    journaled: bool,
    reference: Option<&Reference>,
    t: &mut Tracer,
) -> Round {
    let mut problems = Vec::new();
    let mut loaded = Vec::new();
    let (mut journal_bytes, mut artifact_bytes) = (0, 0);
    let _ = std::fs::remove_dir_all(work);
    if let Err(e) = std::fs::create_dir_all(work) {
        problems.push(format!("{}: {e}", work.display()));
    }
    let mut shards = Vec::new();
    for index in 1..=SHARDS {
        let shard = Shard::new(index, SHARDS).expect("valid shard");
        let dir = work.join(format!("journal-{index}"));
        if !journaled {
            shards.push((shard, dir, None));
            continue;
        }
        match Journal::create(&dir, spec, Some(shard)) {
            Ok(j) => shards.push((shard, dir, Some(Arc::new(j)))),
            Err(e) => problems.push(format!("shard {shard}: journal: {e}")),
        }
    }
    // Both shards at once, one runner worker each, as CI runs shards in
    // separate processes.
    let span = if journaled {
        "campaign.run_shard_journaled"
    } else {
        "campaign.run_shard"
    };
    let results: Vec<CampaignResult> = t.span(span, |_| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .map(|(shard, _, journal)| {
                    let opts = RunnerOpts {
                        jobs: 1,
                        journal: journal.clone(),
                        ..RunnerOpts::default()
                    };
                    scope.spawn(move || run_shard(spec, &opts, Some(*shard)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the runner isolates cell panics"))
                .collect()
        })
    });
    for ((shard, dir, journal), result) in shards.into_iter().zip(results) {
        let path = work.join(format!("shard-{}.json", shard.index));
        if let Err(e) = t.span("campaign.save", |_| result.save(&path)) {
            problems.push(format!("shard {shard}: save: {e}"));
            continue;
        }
        artifact_bytes += file_len(&path);
        match t.span("campaign.load", |_| CampaignResult::load(&path)) {
            Ok(r) => loaded.push(r),
            Err(e) => problems.push(format!("shard {shard}: load: {e}")),
        }
        if journal.is_none() {
            continue;
        }
        journal_bytes += file_len(&dir.join(JOURNAL_FILE));
        // The journal must prove every measured cell of the shard
        // finished, with the counters the runner returned.
        match t.span("campaign.replay", |_| replay(&dir, spec, Some(shard))) {
            Ok(r) => {
                let measured = result
                    .cells
                    .iter()
                    .filter(|c| !matches!(c.status, CellStatus::Skipped | CellStatus::NotOnIsa))
                    .count();
                if r.torn || r.cells.len() + r.broken != measured {
                    problems.push(format!(
                        "shard {shard}: journal replays {} + {} broken of {measured} cells (torn: {})",
                        r.cells.len(),
                        r.broken,
                        r.torn
                    ));
                }
                for (i, cell) in &r.cells {
                    if result.cells.get(*i).map(|c| c.counters) != Some(cell.counters) {
                        problems.push(format!("{}: journal counters differ", check::cell_id(cell)));
                    }
                }
            }
            Err(e) => problems.push(format!("shard {shard}: replay: {e}")),
        }
    }
    let merged = t
        .span("campaign.merge", |_| merge(&loaded))
        .map_err(|e| problems.push(format!("merge: {e}")))
        .ok();
    if let (Some(reference), Some(merged)) = (reference, &merged) {
        let cmp = t.span("campaign.compare", |_| {
            compare_counters(&reference.0, merged, 0.0)
        });
        if cmp.deltas.iter().any(|d| d.verdict != Verdict::Unchanged) {
            problems.push(format!(
                "merged shards do not compare clean against the reference:\n{}",
                cmp.render()
            ));
        }
        for cell in &merged.cells {
            problems.extend(check::cell(check::hole_of(cell), cell, reference));
        }
    }
    Round {
        merged,
        problems,
        journal_bytes,
        artifact_bytes,
    }
}

/// One untimed round for `--write-reference`.
pub fn reference(work: &Path) -> Result<Vec<CellResult>, String> {
    let mut rng = simbench_differ::Rng::new(config::DEFAULT_SEED);
    let r = round(&spec(&mut rng), work, true, None, &mut Tracer::new(false));
    let _ = std::fs::remove_dir_all(work);
    match (r.merged, r.problems.is_empty()) {
        (Some(m), true) => Ok(m.cells),
        _ => Err(r.problems.join("\n")),
    }
}

pub fn run(args: &Args, reference: &Reference, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut t = Tracer::new(args.trace);
    let mut rng = simbench_differ::Rng::new(args.seed);
    let workloads: Vec<(Workload, u32, u64)> = Benchmark::ALL
        .iter()
        .map(|&b| {
            (
                Workload::Suite(b),
                b.scaled_iterations(config::CHURN_SCALE),
                config::CHURN_SCALE,
            )
        })
        .collect();
    crate::matrix::setup(&workloads, &mut t, &mut out);

    let mut aggs: BTreeMap<String, CellAgg> = BTreeMap::new();
    let mut timing = Timing::default();
    let (mut kernel_s, mut reps, mut traced_rounds) = (0.0, 0u64, 0usize);
    let mut artifact_bytes = Vec::new();
    let start = Instant::now();
    let mut n = 0usize;
    // Whole rounds while the next one is expected to end in budget.
    while n == 0 || start.elapsed().as_secs_f64() + timing.median_s() <= args.seconds {
        let spec = spec(&mut rng);
        timing.op(
            &mut t,
            args.trace,
            n,
            |t| round(&spec, work, false, Some(reference), t),
            |r, traced, slowdown| {
                out.record(r.problems);
                let mut cells = r.merged.map(|m| m.cells).unwrap_or_default();
                if traced {
                    traced_rounds += 1;
                    kernel_s += cells.iter().flat_map(|c| &c.seconds).sum::<f64>();
                    reps += cells.iter().map(|c| u64::from(c.reps_run)).sum::<u64>();
                    artifact_bytes.push(r.artifact_bytes as f64);
                }
                for c in &mut cells {
                    c.seconds.iter_mut().for_each(|s| *s /= slowdown);
                    if let (Some(e), Some(w)) =
                        (EngineKind::by_id(&c.engine), Workload::by_id(&c.workload))
                    {
                        aggs.entry(check::cell_id(c))
                            .or_insert_with(|| CellAgg::new(e, w))
                            .add(c);
                    }
                }
            },
        );
        n += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    out.notes.push(format!(
        "{n} rounds of {SHARDS} shards x {} cells x {} reps in {wall:.3} s",
        aggs.len(),
        config::CHURN_REPS
    ));
    timing.report(args.trace, &mut out);
    // Untimed: the journaled round, replayed and checked like any other.
    t.set_op(n as u64);
    let journaled = round(&spec(&mut rng), work, true, Some(reference), &mut t);
    out.record(journaled.problems);
    let _ = std::fs::remove_dir_all(work);
    out.notes.push(format!(
        "journaled round: {} journal bytes, not timed",
        journaled.journal_bytes
    ));
    let aggs: Vec<CellAgg> = aggs.into_values().collect();
    check::engine_metrics(&aggs, &mut out);
    if args.trace {
        let run: Duration = t.durations("campaign.run_shard").iter().sum();
        check::campaign_metrics(run, SHARDS, kernel_s, reps, traced_rounds, &mut out);
        for (metric, span) in [
            ("campaign.save_ms", "campaign.save"),
            ("campaign.load_ms", "campaign.load"),
            ("campaign.merge_ms", "campaign.merge"),
            ("campaign.compare_ms", "campaign.compare"),
            ("campaign.replay_ms", "campaign.replay"),
        ] {
            out.set(metric, median(&t.millis(span)));
        }
        out.set("campaign.journal_bytes", journaled.journal_bytes as f64);
        out.set("campaign.artifact_bytes", median(&artifact_bytes));
        out.trace_table(&t);
        out.notes.push(crate::write_trace(args, &t));
    }
    out
}
