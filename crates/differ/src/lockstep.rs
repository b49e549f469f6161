//! Checkpointed lockstep execution of one guest image on two engines.
//!
//! Both engines boot their own [`Machine`] from the same image. One
//! engine *leads*: it runs to the next checkpoint's retired-instruction
//! target and reports where it actually stopped (the DBT retires whole
//! translation blocks, so it may overshoot a target; every other engine
//! stops exactly). The other engine then *follows* to the leader's
//! exact count, and the two architectural digests are compared. On a
//! mismatch the divergence is bisected — fresh boot, run to the probe
//! count, compare — down to the first leader-stoppable instruction
//! count at which the states differ, and the full named state diff is
//! reported there.
//!
//! Chunking a run into repeated `Engine::run` calls is architecturally
//! equivalent to one long run: engines keep no architectural state
//! outside the `Machine` and re-derive their caches on entry, and all
//! engines check interrupts and limits at instruction (or block)
//! boundaries, which is exactly where the chunk seams fall.
//!
//! ## Interrupt-delivery granularity
//!
//! The engines intentionally model different interrupt-delivery
//! granularities (the paper's Fig 4 row: the DBT delivers at block
//! boundaries, everything else per instruction). When a workload
//! raises external interrupts across such a pair, *intermediate*
//! states are not comparable — the same handler instructions retire at
//! different positions in the stream — so the differ compares only the
//! quiesced final state, and a residual mismatch confined to the
//! exception banking registers (`sys.saved_pc` / `sys.saved_status`,
//! which durably record *where* the last interrupt landed) is waived
//! as a modeled difference rather than reported as a bug. Everything
//! else — registers, flags, privilege, the rest of the system state
//! and all of RAM — must still match exactly.

use simbench_campaign::EngineKind;
use simbench_core::digest::{StateDelta, StateDigest};
use simbench_core::engine::{Engine, ExitReason, RunLimits, RunOutcome};
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_dbt::Dbt;
use simbench_detailed::Detailed;
use simbench_interp::Interp;
use simbench_obs::Counter;
use simbench_platform::Platform;
use simbench_virt::Virt;

static OBS_RUNS: Counter = Counter::new("differ.lockstep_runs");
static OBS_CHECKPOINTS: Counter = Counter::new("differ.checkpoints");
static OBS_MISMATCHES: Counter = Counter::new("differ.mismatches");
static OBS_BISECT_PROBES: Counter = Counter::new("differ.bisect_probes");
static OBS_IRQ_WAIVED: Counter = Counter::new("differ.irq_timing_waived");

/// Differ tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct DifferConfig {
    /// Retired-instruction budget per lockstep run. Runs that neither
    /// halt nor diverge within the budget count as agreement over the
    /// compared prefix.
    pub max_insns: u64,
    /// Intermediate digest comparisons to aim for (at least 1). Pairs
    /// that cannot synchronize mid-run fall back to a single final
    /// comparison regardless.
    pub checkpoints: u32,
    /// Campaign scale divisor used when assembling suite/app workload
    /// images (fuzz programs ignore it).
    pub scale: u64,
}

impl Default for DifferConfig {
    fn default() -> Self {
        DifferConfig {
            max_insns: 20_000_000,
            checkpoints: 8,
            scale: 20_000,
        }
    }
}

/// One engine's role description for [`lockstep_with`].
pub struct DifferEngine<F> {
    /// Display id (e.g. `interp`, `dbt@v2.5`).
    pub label: String,
    /// Construct a fresh engine. The lockstep pass builds one engine
    /// per side; every bisection probe builds its own so each probe is
    /// a single uninterrupted run from boot.
    pub make: F,
    /// Whether the engine stops at exactly `max_insns` retired
    /// instructions. Per-instruction engines do; the block-granular
    /// DBT may overshoot to the end of the current translation block
    /// and deliver interrupts only at block boundaries.
    pub insn_granular: bool,
}

/// The first point where two engines' architectural states differ.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Retired-instruction count of the first divergent state (the
    /// smallest leader-stoppable count at which digests differ).
    pub first_bad: u64,
    /// Exit reason of engine A's run to that point.
    pub exit_a: ExitReason,
    /// Exit reason of engine B's run to that point.
    pub exit_b: ExitReason,
    /// Instructions engine A retired.
    pub retired_a: u64,
    /// Instructions engine B retired.
    pub retired_b: u64,
    /// Engine A's state digest there.
    pub digest_a: StateDigest,
    /// Engine B's state digest there.
    pub digest_b: StateDigest,
    /// Named state deltas (A vs B), RAM deltas capped.
    pub deltas: Vec<StateDelta>,
}

/// Outcome of one lockstep comparison.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All compared states matched.
    Agree {
        /// True when the only differences were the exception banking
        /// registers under mixed interrupt-delivery granularity (see
        /// the module docs) — agreement modulo a modeled difference.
        waived_irq_banking: bool,
    },
    /// The engines produced different architectural states.
    Diverged(Divergence),
    /// The pair could not be meaningfully compared (an engine refused
    /// the workload, or two block-granular engines never reached a
    /// common instruction boundary).
    Inconclusive(String),
}

/// Result of one lockstep comparison, renderable for the CLI.
#[derive(Debug, Clone)]
pub struct Report {
    /// What ran (workload id or fuzz program label).
    pub subject: String,
    /// Engine A's display id.
    pub engine_a: String,
    /// Engine B's display id.
    pub engine_b: String,
    /// Retired instructions covered by the comparison.
    pub insns_compared: u64,
    /// Digest comparisons performed.
    pub checkpoints: u32,
    /// The verdict.
    pub verdict: Verdict,
}

impl Report {
    /// True when the engines agreed (waived modeled differences count
    /// as agreement).
    pub fn agree(&self) -> bool {
        matches!(self.verdict, Verdict::Agree { .. })
    }

    /// Human-readable report; divergences include the full state diff.
    pub fn render(&self) -> String {
        let head = format!(
            "differ: {} vs {} on {}",
            self.engine_a, self.engine_b, self.subject
        );
        match &self.verdict {
            Verdict::Agree { waived_irq_banking } => format!(
                "{head} — agree ({} insns, {} checkpoint(s){})\n",
                self.insns_compared,
                self.checkpoints,
                if *waived_irq_banking {
                    ", irq banking waived"
                } else {
                    ""
                }
            ),
            Verdict::Inconclusive(why) => format!("{head} — INCONCLUSIVE: {why}\n"),
            Verdict::Diverged(d) => {
                let mut out = format!("{head} — DIVERGED at instruction {}\n", d.first_bad);
                out.push_str(&format!(
                    "  exits: {} ({} retired) vs {} ({} retired)\n",
                    d.exit_a, d.retired_a, d.exit_b, d.retired_b
                ));
                out.push_str(&format!("  digest A: {}\n", d.digest_a));
                out.push_str(&format!("  digest B: {}\n", d.digest_b));
                if d.deltas.is_empty() {
                    out.push_str("  state deltas: none (exit reasons differ)\n");
                } else {
                    out.push_str("  state deltas (A vs B):\n");
                    for delta in &d.deltas {
                        out.push_str(&format!("    {delta}\n"));
                    }
                }
                out
            }
        }
    }
}

/// The campaign's engine selector, made runnable behind one type.
enum AnyEngine<I: Isa> {
    Dbt(Box<Dbt<I>>),
    Interp(Interp<I>),
    Detailed(Box<Detailed<I>>),
    Virt(Virt<I>),
}

impl<I: Isa> AnyEngine<I> {
    fn new(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Dbt(profile) => AnyEngine::Dbt(Box::new(Dbt::with_profile(profile))),
            EngineKind::Interp => AnyEngine::Interp(Interp::new()),
            // Full device models, unlike the campaign's Fig 7 cell: the
            // differ checks semantics, not the paper's footnote about
            // Gem5's missing devices.
            EngineKind::Detailed => AnyEngine::Detailed(Box::new(Detailed::new())),
            EngineKind::Virt => AnyEngine::Virt(Virt::kvm()),
            EngineKind::Native => AnyEngine::Virt(Virt::native()),
        }
    }
}

impl<I: Isa> Engine<I, Platform> for AnyEngine<I> {
    fn info(&self) -> simbench_core::engine::EngineInfo {
        match self {
            AnyEngine::Dbt(e) => Engine::<I, Platform>::info(e.as_ref()),
            AnyEngine::Interp(e) => Engine::<I, Platform>::info(e),
            AnyEngine::Detailed(e) => Engine::<I, Platform>::info(e.as_ref()),
            AnyEngine::Virt(e) => Engine::<I, Platform>::info(e),
        }
    }

    fn run(&mut self, m: &mut Machine<I, Platform>, limits: &RunLimits) -> RunOutcome {
        match self {
            AnyEngine::Dbt(e) => e.run(m, limits),
            AnyEngine::Interp(e) => e.run(m, limits),
            AnyEngine::Detailed(e) => e.run(m, limits),
            AnyEngine::Virt(e) => e.run(m, limits),
        }
    }
}

/// Whether an engine kind stops at exact retired-instruction counts
/// (everything but the block-granular DBT does).
fn insn_granular(kind: EngineKind) -> bool {
    !matches!(kind, EngineKind::Dbt(_))
}

/// Run `image` on both engines of a campaign pair in checkpointed
/// lockstep. `subject` labels the report.
pub fn lockstep<I: Isa>(
    image: &GuestImage,
    kind_a: EngineKind,
    kind_b: EngineKind,
    cfg: &DifferConfig,
    subject: &str,
) -> Report {
    lockstep_with::<I, _, _, _, _>(
        image,
        DifferEngine {
            label: kind_a.id(),
            make: move || AnyEngine::<I>::new(kind_a),
            insn_granular: insn_granular(kind_a),
        },
        DifferEngine {
            label: kind_b.id(),
            make: move || AnyEngine::<I>::new(kind_b),
            insn_granular: insn_granular(kind_b),
        },
        cfg,
        subject,
    )
}

/// Fields whose divergence is a modeled interrupt-delivery difference,
/// not a bug, when the pair mixes delivery granularities (module docs).
fn irq_banking_field(field: &str) -> bool {
    field == "sys.saved_pc" || field == "sys.saved_status"
}

/// Boot a fresh machine and run a fresh engine once to `budget`.
fn probe<I: Isa, E, F>(
    make: &F,
    image: &GuestImage,
    budget: u64,
) -> (Machine<I, Platform>, RunOutcome)
where
    E: Engine<I, Platform>,
    F: Fn() -> E,
{
    let mut m = Machine::<I, Platform>::boot(image, Platform::new());
    let out = make().run(&mut m, &RunLimits::insns(budget));
    (m, out)
}

/// Exit reasons agree for lockstep purposes (`Unsupported` is handled
/// before this is asked).
fn exits_agree(a: ExitReason, b: ExitReason) -> bool {
    matches!(
        (a, b),
        (ExitReason::Halted, ExitReason::Halted) | (ExitReason::InsnLimit, ExitReason::InsnLimit)
    )
}

/// Generic lockstep core: compare any two engine factories. Public so
/// tests (and future engines) can put a deliberately broken engine in
/// front of the checker without going through [`EngineKind`].
pub fn lockstep_with<I, EA, EB, FA, FB>(
    image: &GuestImage,
    a: DifferEngine<FA>,
    b: DifferEngine<FB>,
    cfg: &DifferConfig,
    subject: &str,
) -> Report
where
    I: Isa,
    EA: Engine<I, Platform>,
    EB: Engine<I, Platform>,
    FA: Fn() -> EA,
    FB: Fn() -> EB,
{
    let _span = simbench_obs::span!("differ.lockstep");
    OBS_RUNS.add(1);
    let report = |insns, checkpoints, verdict| Report {
        subject: subject.to_string(),
        engine_a: a.label.clone(),
        engine_b: b.label.clone(),
        insns_compared: insns,
        checkpoints,
        verdict,
    };

    // Roles: a block-granular engine must lead (it cannot follow to an
    // exact count); between two exact engines A leads by convention.
    let a_leads = a.insn_granular || !b.insn_granular;
    // A pair of exact engines can synchronize (and so bisect) at every
    // instruction; a mixed pair only at the leader's block boundaries;
    // two block-granular engines only where both happen to stop.
    let exact_pair = a.insn_granular && b.insn_granular;
    let mixed_pair = a.insn_granular != b.insn_granular;

    // A mixed pair also *delivers interrupts* at different points, so
    // intermediate states are incomparable once an IRQ fires; compare
    // only the quiesced final state then. IRQ usage is only known
    // after running, so mixed pairs get one final checkpoint up front.
    let checkpoints = if exact_pair {
        cfg.checkpoints.max(1)
    } else {
        1
    };
    let step = (cfg.max_insns / u64::from(checkpoints)).max(1);

    let mut m_lead = Machine::<I, Platform>::boot(image, Platform::new());
    let mut m_follow = Machine::<I, Platform>::boot(image, Platform::new());
    // One engine per side for the whole lockstep pass: chunk seams are
    // instruction boundaries, so resuming the same engine is the same
    // execution (only bisection probes re-run from boot).
    let mut engine_a = (a.make)();
    let mut engine_b = (b.make)();
    let mut lead_total: u64 = 0;
    let mut follow_total: u64 = 0;
    let mut irqs_delivered: u64 = 0;
    let mut compared: u32 = 0;
    let mut last_sync: u64 = 0;

    macro_rules! lead_run {
        ($limits:expr) => {
            if a_leads {
                engine_a.run(&mut m_lead, $limits)
            } else {
                engine_b.run(&mut m_lead, $limits)
            }
        };
    }
    macro_rules! follow_run {
        ($limits:expr) => {
            if a_leads {
                engine_b.run(&mut m_follow, $limits)
            } else {
                engine_a.run(&mut m_follow, $limits)
            }
        };
    }

    loop {
        let target = (lead_total + step).min(cfg.max_insns);
        let out_lead = lead_run!(&RunLimits::insns(target - lead_total));
        lead_total += out_lead.counters.instructions;
        irqs_delivered += out_lead.counters.irqs_delivered;
        if let ExitReason::Unsupported(what) = out_lead.exit {
            return report(
                lead_total,
                compared,
                Verdict::Inconclusive(format!("leader cannot run this workload: {what}")),
            );
        }

        let out_follow = follow_run!(&RunLimits::insns(lead_total - follow_total));
        follow_total += out_follow.counters.instructions;
        irqs_delivered += out_follow.counters.irqs_delivered;
        if let ExitReason::Unsupported(what) = out_follow.exit {
            return report(
                follow_total,
                compared,
                Verdict::Inconclusive(format!("follower cannot run this workload: {what}")),
            );
        }
        if follow_total != lead_total
            && !matches!(out_follow.exit, ExitReason::Halted)
            && !matches!(out_lead.exit, ExitReason::Halted)
        {
            // Only possible when the follower is block-granular too:
            // neither engine can stop at the other's boundary.
            return report(
                lead_total,
                compared,
                Verdict::Inconclusive(
                    "block-granular pair never reached a common instruction boundary".to_string(),
                ),
            );
        }

        compared += 1;
        OBS_CHECKPOINTS.add(1);
        let (digest_lead, digest_follow) = (m_lead.state_digest(), m_follow.state_digest());
        let exits_ok = exits_agree(out_lead.exit, out_follow.exit);

        if digest_lead != digest_follow || !exits_ok {
            OBS_MISMATCHES.add(1);
            // Mixed-granularity IRQ waiver: at the quiesced final
            // state, a mismatch confined to the exception banking
            // registers is a modeled delivery-timing difference.
            if mixed_pair && irqs_delivered > 0 {
                let deltas = if a_leads {
                    m_lead.state_diff(&m_follow)
                } else {
                    m_follow.state_diff(&m_lead)
                };
                let essential: Vec<StateDelta> = deltas
                    .iter()
                    .filter(|d| !irq_banking_field(&d.field))
                    .cloned()
                    .collect();
                if essential.is_empty() && exits_agree(out_lead.exit, out_follow.exit) {
                    OBS_IRQ_WAIVED.add(1);
                    return report(
                        lead_total,
                        compared,
                        Verdict::Agree {
                            waived_irq_banking: true,
                        },
                    );
                }
                // IRQs were in play, so no earlier state is comparable:
                // report the final divergence without bisection.
                let (exit_a, exit_b, retired_a, retired_b, digest_a, digest_b) = if a_leads {
                    (
                        out_lead.exit,
                        out_follow.exit,
                        lead_total,
                        follow_total,
                        digest_lead,
                        digest_follow,
                    )
                } else {
                    (
                        out_follow.exit,
                        out_lead.exit,
                        follow_total,
                        lead_total,
                        digest_follow,
                        digest_lead,
                    )
                };
                return report(
                    lead_total,
                    compared,
                    Verdict::Diverged(Divergence {
                        first_bad: lead_total,
                        exit_a,
                        exit_b,
                        retired_a,
                        retired_b,
                        digest_a,
                        digest_b,
                        deltas: if essential.is_empty() {
                            deltas
                        } else {
                            essential
                        },
                    }),
                );
            }
            let div = bisect::<I, _, _, _, _>(image, &a, &b, a_leads, last_sync, lead_total);
            return report(lead_total, compared, Verdict::Diverged(div));
        }

        if matches!(out_lead.exit, ExitReason::Halted) || lead_total >= cfg.max_insns {
            return report(
                lead_total,
                compared,
                Verdict::Agree {
                    waived_irq_banking: false,
                },
            );
        }
        last_sync = lead_total;
    }
}

/// Narrow a divergence known to lie in `(lo, hi]` (leader counts,
/// states agree at `lo`, disagree at `hi`) to the first
/// leader-stoppable count where the digests differ, then produce the
/// full diff there. Every probe is a fresh boot-and-run, so bisection
/// is sound for any deterministic engine.
fn bisect<I, EA, EB, FA, FB>(
    image: &GuestImage,
    a: &DifferEngine<FA>,
    b: &DifferEngine<FB>,
    a_leads: bool,
    mut lo: u64,
    mut hi: u64,
) -> Divergence
where
    I: Isa,
    EA: Engine<I, Platform>,
    EB: Engine<I, Platform>,
    FA: Fn() -> EA,
    FB: Fn() -> EB,
{
    let _span = simbench_obs::span!("differ.bisect");
    let states_at = |n: u64| {
        OBS_BISECT_PROBES.add(2);
        let (m_lead, out_lead) = if a_leads {
            probe::<I, _, _>(&a.make, image, n)
        } else {
            probe::<I, _, _>(&b.make, image, n)
        };
        let stopped = out_lead.counters.instructions;
        let (m_follow, out_follow) = if a_leads {
            probe::<I, _, _>(&b.make, image, stopped)
        } else {
            probe::<I, _, _>(&a.make, image, stopped)
        };
        (m_lead, out_lead, m_follow, out_follow, stopped)
    };

    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (m_lead, out_lead, m_follow, out_follow, stopped) = states_at(mid);
        if stopped >= hi {
            // The leader cannot stop inside (lo, hi): the whole gap is
            // one translation block. `hi` is the first stoppable count.
            break;
        }
        let agree = exits_agree(out_lead.exit, out_follow.exit)
            && m_lead.state_digest() == m_follow.state_digest();
        if agree {
            lo = stopped;
        } else {
            hi = stopped;
        }
    }

    let (m_lead, out_lead, m_follow, out_follow, _) = states_at(hi);
    let (m_a, m_b, out_a, out_b) = if a_leads {
        (&m_lead, &m_follow, &out_lead, &out_follow)
    } else {
        (&m_follow, &m_lead, &out_follow, &out_lead)
    };
    Divergence {
        first_bad: hi,
        exit_a: out_a.exit,
        exit_b: out_b.exit,
        retired_a: out_a.counters.instructions,
        retired_b: out_b.counters.instructions,
        digest_a: m_a.state_digest(),
        digest_b: m_b.state_digest(),
        deltas: m_a.state_diff(m_b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simbench_core::asm::{PReg, PortableAsm};
    use simbench_core::bus::Bus;
    use simbench_core::ir::{AluOp, Cond, MemSize};
    use simbench_isa_armlet::{Armlet, ArmletAsm};

    /// Flat ALU loop retiring `2 + 4*passes + 1` instructions, then halt.
    fn loop_image(passes: u32) -> GuestImage {
        let mut a = ArmletAsm::new();
        a.org(0x8000);
        a.mov_imm(PReg::A, 0);
        a.mov_imm(PReg::B, passes);
        let top = a.new_label();
        a.bind(top);
        a.alu_ri(AluOp::Add, PReg::A, PReg::A, 3);
        a.alu_ri(AluOp::Sub, PReg::B, PReg::B, 1);
        a.cmp_ri(PReg::B, 0);
        a.b_cond(Cond::Ne, top);
        a.halt();
        a.finish(0x8000)
    }

    fn interp_side(label: &str) -> DifferEngine<impl Fn() -> Interp<Armlet>> {
        DifferEngine {
            label: label.to_string(),
            make: Interp::<Armlet>::new,
            insn_granular: true,
        }
    }

    /// An interpreter that applies `corrupt` to the machine the first
    /// time its cumulative retired count crosses `trip` — a stand-in
    /// for an engine with a bug that manifests mid-run.
    struct Broken {
        inner: Interp<Armlet>,
        trip: u64,
        total: u64,
        corrupt: fn(&mut Machine<Armlet, Platform>),
    }

    /// The engine side of a [`Broken`] interpreter.
    fn broken_side(
        trip: u64,
        corrupt: fn(&mut Machine<Armlet, Platform>),
    ) -> DifferEngine<impl Fn() -> Broken> {
        DifferEngine {
            label: "broken".to_string(),
            make: move || Broken {
                inner: Interp::new(),
                trip,
                total: 0,
                corrupt,
            },
            insn_granular: true,
        }
    }

    impl Engine<Armlet, Platform> for Broken {
        fn info(&self) -> simbench_core::engine::EngineInfo {
            Engine::<Armlet, Platform>::info(&self.inner)
        }

        fn run(&mut self, m: &mut Machine<Armlet, Platform>, limits: &RunLimits) -> RunOutcome {
            let out = self.inner.run(m, limits);
            let before = self.total;
            self.total += out.counters.instructions;
            if before < self.trip && self.total >= self.trip {
                (self.corrupt)(m);
            }
            out
        }
    }

    #[test]
    fn identical_engines_agree_across_checkpoints() {
        let image = loop_image(2_000); // 8003 retired instructions
        let cfg = DifferConfig {
            max_insns: 10_000,
            checkpoints: 4,
            scale: 20_000,
        };
        let report = lockstep_with::<Armlet, _, _, _, _>(
            &image,
            interp_side("interp"),
            interp_side("interp"),
            &cfg,
            "loop",
        );
        assert!(report.agree(), "{}", report.render());
        assert_eq!(report.insns_compared, 8_003);
        assert_eq!(report.checkpoints, 4, "2500/5000/7500/halt");
    }

    #[test]
    fn broken_engine_bisected_to_first_divergent_instruction() {
        let image = loop_image(2_000); // 8003 retired instructions
        let trip = 3_137;
        let cfg = DifferConfig {
            max_insns: 10_000,
            checkpoints: 4,
            scale: 20_000,
        };
        let report = lockstep_with::<Armlet, _, _, _, _>(
            &image,
            interp_side("interp"),
            broken_side(trip, |m| m.cpu.regs[3] ^= 0x10),
            &cfg,
            "loop",
        );
        // The mismatch surfaces at the 5000-instruction checkpoint;
        // bisection must pin it to the corrupting instruction count.
        let Verdict::Diverged(d) = &report.verdict else {
            panic!("expected divergence, got: {}", report.render());
        };
        assert_eq!(d.first_bad, trip, "{}", report.render());
        assert!(
            d.deltas.iter().any(|delta| delta.field == "r3"),
            "diff names the corrupted register: {}",
            report.render()
        );
        assert_eq!(d.deltas.len(), 1, "only r3 differs");
        assert!(report.render().contains("DIVERGED at instruction 3137"));
    }

    #[test]
    fn ram_corruption_in_an_untouched_page_is_caught() {
        // The guest never touches this page, so only the corrupting
        // store marks it: the written-page digest and diff must still
        // see it.
        const PA: u32 = 0x40_0000;
        let image = loop_image(2_000);
        let trip = 5_321;
        let cfg = DifferConfig {
            max_insns: 10_000,
            checkpoints: 4,
            scale: 20_000,
        };
        let report = lockstep_with::<Armlet, _, _, _, _>(
            &image,
            interp_side("interp"),
            broken_side(trip, |m| {
                let v = m.bus.read(PA, MemSize::B4).unwrap();
                m.bus.write(PA, !v, MemSize::B4).unwrap();
            }),
            &cfg,
            "loop",
        );
        let Verdict::Diverged(d) = &report.verdict else {
            panic!("expected divergence, got: {}", report.render());
        };
        assert_eq!(d.first_bad, trip, "{}", report.render());
        assert_eq!(
            d.deltas,
            [StateDelta {
                field: format!("ram[{PA:#010x}]"),
                a: 0,
                b: 0xffff_ffff,
            }],
            "{}",
            report.render()
        );
    }

    #[test]
    fn campaign_pair_agrees_on_flat_loop() {
        let image = loop_image(500);
        let cfg = DifferConfig {
            max_insns: 10_000,
            checkpoints: 3,
            scale: 20_000,
        };
        for kind in [
            EngineKind::Dbt(simbench_dbt::VersionProfile::latest()),
            EngineKind::Detailed,
            EngineKind::Virt,
            EngineKind::Native,
        ] {
            let report = lockstep::<Armlet>(&image, EngineKind::Interp, kind, &cfg, "loop");
            assert!(report.agree(), "{}", report.render());
        }
    }
}
