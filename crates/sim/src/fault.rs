//! Deterministic fault injection with zero-cost-when-disabled checks.
//!
//! A [`FaultPlan`] describes which faults to inject and at what rates;
//! [`install`] arms the plan for the current thread, seeding the in-repo
//! xoshiro256** generator so every decision is reproducible from
//! `(seed, rate)` alone. Timing models then consult [`inject`] at their
//! injection sites — NoC message drop/duplication/delay, SE_L3 bank
//! stalls, offload-request NACKs, transient memory read errors, and
//! forced alias-filter mis-speculations.
//!
//! Injected faults perturb only *timing*, *traffic*, and *counters*:
//! architectural results are computed by the functional layer and are
//! bit-identical to the fault-free run by construction. The recovery
//! protocol (retry, backoff, migration, fallback-to-core) lives in the
//! consuming crates; this module only decides *when* something breaks.
//!
//! When no plan is installed the entire cost of an injection site is one
//! relaxed atomic load — the same discipline as [`crate::trace`] — so
//! fault hooks may sit on hot paths without distorting benchmarks.
//!
//! ```
//! use nsc_sim::fault::{self, FaultPlan, FaultSite};
//!
//! fault::install(FaultPlan::uniform(42, 1.0));
//! assert!(fault::inject(FaultSite::NocDrop)); // rate 1.0: always fires
//! let stats = fault::uninstall().unwrap();
//! assert_eq!(stats.count(FaultSite::NocDrop), 1);
//! ```

use crate::rng::Rng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One kind of injectable fault; each maps to a distinct injection site
/// family in the timing models.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSite {
    /// A NoC message is dropped in flight and must be retransmitted.
    NocDrop,
    /// A NoC message is delivered twice (duplicate traffic, same data).
    NocDuplicate,
    /// A NoC message suffers extra in-network delay.
    NocDelay,
    /// An SE_L3 bank is stalled/offline for a window of cycles.
    BankStall,
    /// A bank refuses (NACKs) an offload configuration request.
    OffloadNack,
    /// A DRAM/cache read returns a transient error and is retried.
    MemError,
    /// The alias filter reports a spurious conflict (mis-speculation).
    AliasMisSpec,
}

impl FaultSite {
    /// Every site, in stable order (indexes [`FaultStats`]).
    pub const ALL: [FaultSite; 7] = [
        FaultSite::NocDrop,
        FaultSite::NocDuplicate,
        FaultSite::NocDelay,
        FaultSite::BankStall,
        FaultSite::OffloadNack,
        FaultSite::MemError,
        FaultSite::AliasMisSpec,
    ];

    /// Short stable label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::NocDrop => "noc-drop",
            FaultSite::NocDuplicate => "noc-duplicate",
            FaultSite::NocDelay => "noc-delay",
            FaultSite::BankStall => "bank-stall",
            FaultSite::OffloadNack => "offload-nack",
            FaultSite::MemError => "mem-error",
            FaultSite::AliasMisSpec => "alias-mis-spec",
        }
    }

    fn index(self) -> usize {
        match self {
            FaultSite::NocDrop => 0,
            FaultSite::NocDuplicate => 1,
            FaultSite::NocDelay => 2,
            FaultSite::BankStall => 3,
            FaultSite::OffloadNack => 4,
            FaultSite::MemError => 5,
            FaultSite::AliasMisSpec => 6,
        }
    }
}

/// A deterministic fault schedule: per-site probabilities plus the
/// penalty magnitudes the recovery paths apply when a fault fires.
///
/// Probabilities are per injection-site visit, in `[0, 1]`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// PRNG seed; the whole schedule is a pure function of this.
    pub seed: u64,
    /// Probability a NoC message is dropped (then retransmitted).
    pub noc_drop: f64,
    /// Probability a NoC message is duplicated.
    pub noc_duplicate: f64,
    /// Probability a NoC message is delayed by [`noc_delay_cycles`].
    ///
    /// [`noc_delay_cycles`]: FaultPlan::noc_delay_cycles
    pub noc_delay: f64,
    /// Extra cycles added to a delayed message.
    pub noc_delay_cycles: u64,
    /// Probability an SE_L3 bank access hits a stall window.
    pub bank_stall: f64,
    /// Length of a bank stall window in cycles.
    pub bank_stall_cycles: u64,
    /// Probability a bank NACKs an offload configuration request.
    pub offload_nack: f64,
    /// Probability a DRAM/cache read takes a transient error.
    pub mem_error: f64,
    /// Retry latency added on a transient memory error.
    pub mem_retry_cycles: u64,
    /// Probability the alias filter reports a spurious conflict.
    pub alias_false_positive: f64,
}

impl FaultPlan {
    /// The fault-free plan: every probability zero.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            noc_drop: 0.0,
            noc_duplicate: 0.0,
            noc_delay: 0.0,
            noc_delay_cycles: 32,
            bank_stall: 0.0,
            bank_stall_cycles: 200,
            offload_nack: 0.0,
            mem_error: 0.0,
            mem_retry_cycles: 64,
            alias_false_positive: 0.0,
        }
    }

    /// A plan injecting every fault kind at the same `rate`, with the
    /// default penalty magnitudes. The workhorse for sweeps and chaos
    /// tests.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let rate = if rate.is_finite() { rate.clamp(0.0, 1.0) } else { 0.0 };
        FaultPlan {
            seed,
            noc_drop: rate,
            noc_duplicate: rate,
            noc_delay: rate,
            bank_stall: rate,
            offload_nack: rate,
            mem_error: rate,
            alias_false_positive: rate,
            ..FaultPlan::none()
        }
    }

    /// Derives the plan a parallel sweep arms for run number `run`:
    /// identical rates, with the seed mixed (splitmix64) from the base
    /// seed and the run's submission index. Each run then draws an
    /// independent, reproducible stream that depends only on
    /// `(base seed, run index)` — never on which worker executes it or
    /// in what order runs complete.
    pub fn for_run(&self, run: u64) -> FaultPlan {
        let mut z = self
            .seed
            .wrapping_add(run.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        FaultPlan {
            seed: z ^ (z >> 31),
            ..self.clone()
        }
    }

    /// Whether the plan can never fire (all probabilities zero).
    pub fn is_inert(&self) -> bool {
        self.noc_drop <= 0.0
            && self.noc_duplicate <= 0.0
            && self.noc_delay <= 0.0
            && self.bank_stall <= 0.0
            && self.offload_nack <= 0.0
            && self.mem_error <= 0.0
            && self.alias_false_positive <= 0.0
    }

    /// Validates probabilities (finite, in `[0, 1]`).
    pub fn validate(&self) -> Result<(), crate::error::SimError> {
        for (name, p) in [
            ("noc_drop", self.noc_drop),
            ("noc_duplicate", self.noc_duplicate),
            ("noc_delay", self.noc_delay),
            ("bank_stall", self.bank_stall),
            ("offload_nack", self.offload_nack),
            ("mem_error", self.mem_error),
            ("alias_false_positive", self.alias_false_positive),
        ] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(crate::error::SimError::config(format!(
                    "fault probability {name} = {p} must be in [0, 1]"
                )));
            }
        }
        Ok(())
    }

    fn rate(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::NocDrop => self.noc_drop,
            FaultSite::NocDuplicate => self.noc_duplicate,
            FaultSite::NocDelay => self.noc_delay,
            FaultSite::BankStall => self.bank_stall,
            FaultSite::OffloadNack => self.offload_nack,
            FaultSite::MemError => self.mem_error,
            FaultSite::AliasMisSpec => self.alias_false_positive,
        }
    }
}

/// Per-site injection counts, returned by [`uninstall`] / [`snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    counts: [u64; 7],
}

impl FaultStats {
    /// Rebuilds stats from raw per-site counts, ordered as
    /// [`FaultSite::ALL`]. Used by the result cache to replay a cached
    /// run's injection totals into the live accounting via [`absorb`].
    pub fn from_counts(counts: [u64; 7]) -> FaultStats {
        FaultStats { counts }
    }

    /// Raw per-site counts, ordered as [`FaultSite::ALL`].
    pub fn counts(&self) -> [u64; 7] {
        self.counts
    }

    /// Injections at `site`.
    pub fn count(&self, site: FaultSite) -> u64 {
        self.counts[site.index()]
    }

    /// Total injections across all sites (saturating).
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Per-site difference `self - earlier` (saturating), for windowed
    /// accounting across multiple runs under one installed plan.
    pub fn since(&self, earlier: &FaultStats) -> FaultStats {
        let mut out = FaultStats::default();
        for i in 0..self.counts.len() {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// Generation counter: non-zero while an injector is installed somewhere.
/// A single relaxed load of this is the entire disabled-path cost of
/// [`inject`].
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

struct Injector {
    plan: FaultPlan,
    rng: Rng,
    stats: FaultStats,
}

thread_local! {
    static INJECTOR: RefCell<Option<Injector>> = const { RefCell::new(None) };
}

/// Arms `plan` for this thread, replacing any previous plan (and
/// discarding its stats).
///
/// # Panics
///
/// Panics if the plan fails [`FaultPlan::validate`]; harnesses should
/// validate user-supplied rates before installing.
pub fn install(plan: FaultPlan) {
    if let Err(e) = plan.validate() {
        panic!("refusing to install fault plan: {e}");
    }
    let rng = Rng::seed_from_u64(plan.seed);
    let replaced = INJECTOR.with(|t| {
        t.borrow_mut()
            .replace(Injector {
                plan,
                rng,
                stats: FaultStats::default(),
            })
            .is_some()
    });
    if !replaced {
        ACTIVE.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms the injector and returns its stats, or `None` if fault
/// injection was not enabled on this thread.
pub fn uninstall() -> Option<FaultStats> {
    let prev = INJECTOR.with(|t| t.borrow_mut().take());
    if prev.is_some() {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
    prev.map(|inj| inj.stats)
}

/// Adds `stats` into the injector installed on *this* thread.
///
/// Parallel sweeps arm a per-run injector on whatever worker executes a
/// run (see [`FaultPlan::for_run`]) and absorb each run's stats back
/// into the main-thread injector in submission order, so the totals the
/// harness reports are independent of worker count and completion
/// timing. A no-op when no injector is installed here.
pub fn absorb(stats: FaultStats) {
    INJECTOR.with(|t| {
        if let Some(inj) = t.borrow_mut().as_mut() {
            for i in 0..inj.stats.counts.len() {
                inj.stats.counts[i] = inj.stats.counts[i].saturating_add(stats.counts[i]);
            }
        }
    });
}

/// The plan armed on *this* thread, if any. The result cache folds it
/// into the run digest: the same simulation point under different fault
/// schedules is a different artifact.
pub fn current_plan() -> Option<FaultPlan> {
    INJECTOR.with(|t| t.borrow().as_ref().map(|inj| inj.plan.clone()))
}

/// Whether any injector is installed (fast, approximate across threads).
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Draws the injection decision for `site`. Returns `false` — without
/// running the PRNG — when no plan is installed; otherwise consumes one
/// random draw and counts a hit.
#[inline]
pub fn inject(site: FaultSite) -> bool {
    if !active() {
        return false;
    }
    inject_slow(site)
}

#[cold]
fn inject_slow(site: FaultSite) -> bool {
    INJECTOR.with(|t| {
        let mut b = t.borrow_mut();
        let Some(inj) = b.as_mut() else { return false };
        let rate = inj.plan.rate(site);
        if rate <= 0.0 {
            return false;
        }
        let hit = rate >= 1.0 || inj.rng.gen_f64() < rate;
        if hit {
            let c = &mut inj.stats.counts[site.index()];
            *c = c.saturating_add(1);
            crate::metrics::count(crate::metrics::Metric::FaultsInjected);
        }
        hit
    })
}

/// The penalty magnitude (in cycles) the installed plan assigns to
/// `site`; 0 for sites without a magnitude or when disarmed. Only
/// meaningful right after [`inject`] returned `true`, so this is never
/// on a hot path.
pub fn penalty(site: FaultSite) -> u64 {
    INJECTOR.with(|t| {
        let b = t.borrow();
        let Some(inj) = b.as_ref() else { return 0 };
        match site {
            FaultSite::NocDelay => inj.plan.noc_delay_cycles,
            FaultSite::BankStall => inj.plan.bank_stall_cycles,
            FaultSite::MemError => inj.plan.mem_retry_cycles,
            _ => 0,
        }
    })
}

/// A copy of the current per-site stats (all zero when disarmed).
/// Harnesses snapshot before and after a run and diff with
/// [`FaultStats::since`] to attribute injections to that run.
pub fn snapshot() -> FaultStats {
    INJECTOR.with(|t| t.borrow().as_ref().map(|inj| inj.stats).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_into_installed_injector() {
        install(FaultPlan::uniform(11, 1.0));
        assert!(inject(FaultSite::NocDrop));
        let mut other = FaultStats::default();
        other.counts[FaultSite::MemError.index()] = 4;
        other.counts[FaultSite::NocDrop.index()] = 2;
        absorb(other);
        let s = uninstall().unwrap();
        assert_eq!(s.count(FaultSite::NocDrop), 3);
        assert_eq!(s.count(FaultSite::MemError), 4);
        // Absorb with nothing installed is a silent no-op.
        absorb(other);
        assert!(uninstall().is_none());
    }

    #[test]
    fn for_run_is_deterministic_and_decorrelated() {
        let base = FaultPlan::uniform(0xC0FFEE, 1e-3);
        assert_eq!(base.for_run(5), base.for_run(5));
        assert_ne!(base.for_run(0).seed, base.for_run(1).seed);
        assert_ne!(base.for_run(0).seed, base.seed);
        let derived = base.for_run(3);
        assert_eq!(derived.mem_error, base.mem_error);
        assert_eq!(derived.noc_delay_cycles, base.noc_delay_cycles);
    }

    #[test]
    fn install_replacing_does_not_leak_active_count() {
        let before = ACTIVE.load(Ordering::Relaxed);
        install(FaultPlan::uniform(1, 0.5));
        install(FaultPlan::uniform(2, 0.5)); // replace, not stack
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before + 1);
        assert!(uninstall().is_some());
        assert_eq!(ACTIVE.load(Ordering::Relaxed), before);
    }

    #[test]
    fn disarmed_never_injects() {
        // Note: `active()` is process-global, so a parallel test thread
        // may have an injector armed; the thread-local lookup is what
        // guarantees this thread stays fault-free.
        assert!(uninstall().is_none());
        assert!(!inject(FaultSite::NocDrop));
        assert_eq!(penalty(FaultSite::BankStall), 0);
        assert_eq!(snapshot(), FaultStats::default());
    }

    #[test]
    fn rate_one_always_fires_and_counts() {
        install(FaultPlan::uniform(7, 1.0));
        for _ in 0..5 {
            assert!(inject(FaultSite::MemError));
        }
        assert!(inject(FaultSite::AliasMisSpec));
        let s = uninstall().unwrap();
        assert_eq!(s.count(FaultSite::MemError), 5);
        assert_eq!(s.count(FaultSite::AliasMisSpec), 1);
        assert_eq!(s.total(), 6);
    }

    #[test]
    fn rate_zero_never_fires_even_when_armed() {
        install(FaultPlan::none());
        for site in FaultSite::ALL {
            assert!(!inject(site));
        }
        assert_eq!(uninstall().unwrap().total(), 0);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            install(FaultPlan::uniform(seed, 0.3));
            let hits: Vec<bool> = (0..200).map(|_| inject(FaultSite::NocDrop)).collect();
            uninstall().unwrap();
            hits
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99), run(100), "different seeds should diverge");
    }

    #[test]
    fn penalties_come_from_the_plan() {
        let mut plan = FaultPlan::uniform(1, 0.5);
        plan.noc_delay_cycles = 17;
        plan.bank_stall_cycles = 33;
        plan.mem_retry_cycles = 51;
        install(plan);
        assert_eq!(penalty(FaultSite::NocDelay), 17);
        assert_eq!(penalty(FaultSite::BankStall), 33);
        assert_eq!(penalty(FaultSite::MemError), 51);
        assert_eq!(penalty(FaultSite::NocDrop), 0);
        uninstall();
    }

    #[test]
    fn snapshot_diffs_attribute_windows() {
        install(FaultPlan::uniform(3, 1.0));
        inject(FaultSite::OffloadNack);
        let mid = snapshot();
        inject(FaultSite::OffloadNack);
        inject(FaultSite::NocDrop);
        let end = snapshot();
        let delta = end.since(&mid);
        assert_eq!(delta.count(FaultSite::OffloadNack), 1);
        assert_eq!(delta.count(FaultSite::NocDrop), 1);
        assert_eq!(delta.total(), 2);
        uninstall();
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        let mut p = FaultPlan::none();
        p.mem_error = 1.5;
        assert!(p.validate().is_err());
        p.mem_error = f64::NAN;
        assert!(p.validate().is_err());
        assert!(FaultPlan::uniform(0, 0.5).validate().is_ok());
        // `uniform` clamps out-of-range input.
        assert!(FaultPlan::uniform(0, 7.0).validate().is_ok());
    }

    #[test]
    fn inert_detection() {
        assert!(FaultPlan::none().is_inert());
        assert!(FaultPlan::uniform(0, 0.0).is_inert());
        assert!(!FaultPlan::uniform(0, 0.01).is_inert());
    }
}
