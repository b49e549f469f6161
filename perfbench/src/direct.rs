//! Direct engine runs: `Machine::boot`, one engine's `Engine::run`,
//! optionally `Machine::state_digest`, and the machine's drop, each in
//! its own span. The campaign runner does the same internally but
//! returns only kernel time and counters; running it here exposes boot
//! cost and the time an engine spends outside the kernel (guest boot
//! code), and doubles as a counter cross-check against the campaign.

use std::time::Duration;

use simbench_campaign::registry::{dispatch_guest, GuestSpec, GuestVisitor};
use simbench_campaign::{EngineKind, Guest};
use simbench_core::engine::{Engine, RunLimits, RunOutcome};
use simbench_core::image::GuestImage;
use simbench_core::isa::Isa;
use simbench_core::machine::Machine;
use simbench_dbt::Dbt;
use simbench_detailed::Detailed;
use simbench_interp::Interp;
use simbench_platform::Platform;
use simbench_virt::Virt;

use crate::trace::Tracer;

/// Which device models the detailed engine gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Devices {
    /// As a campaign cell: no interrupt controller or safe MMIO device
    /// (the paper's Fig 7 footnote), so those cells are `Unsupported`.
    Fig7,
    /// Every device, as the differ runs it.
    Full,
}

/// The span name of an engine's `run` call.
pub fn run_span(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Dbt(_) => "dbt.run",
        EngineKind::Interp => "interp.run",
        EngineKind::Detailed => "detailed.run",
        EngineKind::Virt => "virt.run",
        EngineKind::Native => "native.run",
    }
}

/// Boot `image` on a fresh machine and run it once on `engine`; with
/// `digest`, also hash the final architectural state.
pub fn run(
    guest: Guest,
    engine: EngineKind,
    image: &GuestImage,
    devices: Devices,
    digest: bool,
    t: &mut Tracer,
) -> RunOutcome {
    struct Direct<'a> {
        engine: EngineKind,
        image: &'a GuestImage,
        devices: Devices,
        digest: bool,
        t: &'a mut Tracer,
    }
    impl GuestVisitor for Direct<'_> {
        type Out = RunOutcome;
        fn visit<G: GuestSpec>(self) -> RunOutcome {
            let t = self.t;
            let mut m = t.span("core.boot", |_| {
                Machine::<G::Isa, Platform>::boot(self.image, Platform::new())
            });
            let outcome = t.span(run_span(self.engine), |_| {
                run_engine(self.engine, self.devices, &mut m)
            });
            if self.digest {
                t.span("core.digest", |_| std::hint::black_box(m.state_digest()));
            }
            t.span("core.drop", |_| drop(m));
            outcome
        }
    }
    dispatch_guest(
        guest,
        Direct {
            engine,
            image,
            devices,
            digest,
            t,
        },
    )
}

fn run_engine<I: Isa>(
    engine: EngineKind,
    devices: Devices,
    m: &mut Machine<I, Platform>,
) -> RunOutcome {
    let limits = RunLimits {
        max_insns: u64::MAX,
        wall_limit: Some(Duration::from_secs(60)),
    };
    match engine {
        EngineKind::Dbt(profile) => Dbt::<I>::with_profile(profile).run(m, &limits),
        EngineKind::Interp => Interp::<I>::new().run(m, &limits),
        EngineKind::Detailed => {
            let pages = [
                simbench_platform::INTC_BASE >> 12,
                simbench_platform::SAFEDEV_BASE >> 12,
            ];
            let d = Detailed::<I>::new();
            let mut d = match devices {
                Devices::Fig7 => d.with_unimplemented_pages(&pages),
                Devices::Full => d,
            };
            d.run(m, &limits)
        }
        EngineKind::Virt => Virt::<I>::kvm().run(m, &limits),
        EngineKind::Native => Virt::<I>::native().run(m, &limits),
    }
}
