//! The falsification sweep harness: thousands of generated scenarios,
//! safety asserted universally, liveness asserted exactly on the
//! eventually-clean subset.
//!
//! Built on the sweep plumbing of [`homonym_sim::sweep`] — the **single**
//! implementation module for seed fan-out, worker arenas and the
//! prefix-sharing executor, re-exported from here so chaos users import
//! one coherent surface: each scenario run is a pure function of
//! `(stack, topology, family, seed)`, so the sweep parallelizes freely
//! and every counterexample is replayable from its report line alone —
//! the [`Counterexample`] carries the seed and the full scenario script.
//! Each worker threads reusable [`EngineArena`]s through its block of
//! scenarios, so the thousandth run reuses the first run's queue ring,
//! history tables and scratch buffers instead of rebuilding a world.
//!
//! # Two executors, one verdict set
//!
//! Both executors are generic over one stack definition: a crate-private
//! `SweepStack` impl per [`StackKind`] supplies the node factory, base
//! network, run goal, property check and
//! [`RunCondition`](homonym_core::properties::RunCondition) of its stack,
//! and whether its node construction is prefix-invariant. Each public
//! entry point turns its [`StackKind`] into that type once; the runners
//! below it never match on the stack.
//!
//! * [`falsification_sweep`] — the **flat** executor: every run
//!   re-executes its full history from tick 0. This is the differential
//!   baseline.
//! * [`falsification_sweep_forked`] — the **prefix-sharing** executor:
//!   when [`SweepConfig::variants`] expands each generated scenario into
//!   a [`fault_window_variants`] family (same seed, same fault starts,
//!   different heal times / GST margins), the family's shared prefix is
//!   run **once**, snapshotted at the computed divergence point, and
//!   restored per variant ([`PrefixSweeper`]). The verdict sets of the
//!   two executors are **identical** — `tests/chaos_scenarios.rs` and
//!   the `chaos_sweep_forked` bench row assert report equality and
//!   per-run event-count equality. Stacks whose node construction is
//!   not prefix-invariant (the oracle-backed Figure 9 stack: its
//!   `OracleWorld` stabilization instant differs per variant) take the
//!   flat runner inside the forked executor — the documented worst
//!   case, no shared prefix.
//!
//! # What counts as a counterexample
//!
//! * a **safety** violation (consensus validity/agreement, `HΣ` quorum
//!   intersection, monotonicity) in *any* run, however adversarial;
//! * a **liveness** violation (termination, `◇HP` convergence, `HΩ`
//!   election) in a run whose environment was eventually clean — all
//!   network faults healed, GST passed, and the configured decision
//!   margin still ahead.
//!
//! Liveness failures on runs that never became clean (lossy scenarios
//! under reliable-link consensus models, truncated pre-heal probes) are
//! recorded as **excused**, exactly as the paper's definitions permit —
//! and the pre-heal probes double as the demonstration that liveness
//! *correctly* fails while a partition is up and holds once it heals.

use std::path::Path;

use homonym_consensus::{ByzQuorumConsensus, HOmegaPolicy, MajorityConsensus};
use homonym_core::classes::HOmegaOutput;
use homonym_core::identity::{Identity, IdentityAssignment};
use homonym_core::properties::{classify_run, PropertyViolation, RunVerdict};
use homonym_core::query::SharedCell;
use homonym_core::time::{Span, Time};
use homonym_core::wire::Persist;
use homonym_detectors::evt_hp::EvtHpProcess;
use homonym_sim::engine::{Engine, EngineArena, SimConfig};
use homonym_sim::network::{NetworkModel, PreGstBehavior};
use homonym_sim::stack::Stacked;
use homonym_sim::{SnapshotSpool, SpoolStats};

// The shared sweep plumbing lives in `homonym_sim::sweep`; re-exported
// here so the chaos crate presents one import surface (and so the bench
// harness can keep importing everything from one place).
pub use homonym_sim::sweep::{
    config_divergence, item_divergence, parallel_seed_sweep, parallel_seed_sweep_with, ForkStats,
    PrefixItem, PrefixSweeper, PrefixTree, RunGoal,
};

use crate::generators::{
    byzantine_attack_variants, corrupt_minority_homonyms, fault_window_variants, flapping_minority,
    hidden_equivocator, homonym_group_isolation, leader_churn_across_heights,
    over_threshold_byzantine, split_brain,
};
use crate::scenario::{FaultClause, Scenario};
use crate::stack::{proposals, with_stack, SweepStack};

/// A scenario family the sweep can draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// [`split_brain`].
    SplitBrain,
    /// [`flapping_minority`].
    FlappingMinority,
    /// [`homonym_group_isolation`].
    HomonymIsolation,
    /// [`leader_churn_across_heights`] — sequential churn windows on
    /// the `HΩ` leader candidates, built to straddle the replicated log
    /// service's height boundaries.
    LeaderChurn,
    /// [`hidden_equivocator`].
    HiddenEquivocator,
    /// [`corrupt_minority_homonyms`].
    CorruptMinorityHomonyms,
    /// [`over_threshold_byzantine`] — an `f ≥ ⌈n/3⌉` coalition past the
    /// tolerance bound of the Byzantine-tolerant stack.
    OverThresholdByzantine,
}

impl Family {
    /// The crash/partition families, in historical rotation order.
    pub const ALL: [Family; 4] = [
        Family::SplitBrain,
        Family::FlappingMinority,
        Family::HomonymIsolation,
        Family::LeaderChurn,
    ];

    /// The Byzantine families.
    pub const BYZANTINE: [Family; 3] = [
        Family::HiddenEquivocator,
        Family::CorruptMinorityHomonyms,
        Family::OverThresholdByzantine,
    ];

    /// The Byzantine-mode rotation: the Byzantine families interleaved
    /// with the crash families, so one sweep asserts both halves of the
    /// contract — demonstrated counterexamples on the corrupt runs,
    /// untouched safety on the crash-only (clean) subset. The
    /// over-threshold family rides in the same rotation so the tolerant
    /// stack's `n > 3f` bound is exercised from both sides: within it the
    /// stack must survive, past it the stack is *expected* to fall.
    pub const WITH_BYZANTINE: [Family; 6] = [
        Family::HiddenEquivocator,
        Family::SplitBrain,
        Family::CorruptMinorityHomonyms,
        Family::FlappingMinority,
        Family::OverThresholdByzantine,
        Family::HomonymIsolation,
    ];

    /// The family's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::SplitBrain => "split-brain",
            Family::FlappingMinority => "flapping-minority",
            Family::HomonymIsolation => "homonym-isolation",
            Family::LeaderChurn => "leader-churn",
            Family::HiddenEquivocator => "hidden-equivocator",
            Family::CorruptMinorityHomonyms => "corrupt-minority-homonyms",
            Family::OverThresholdByzantine => "over-threshold-byzantine",
        }
    }

    /// The family with the given report name (the inverse of
    /// [`Family::name`], for replaying a counterexample from its
    /// coordinates).
    #[must_use]
    pub fn by_name(name: &str) -> Option<Family> {
        Family::ALL
            .into_iter()
            .chain(Family::BYZANTINE)
            .find(|f| f.name() == name)
    }

    /// Generates this family's scenario for `(topology, seed)`.
    #[must_use]
    pub fn generate(self, assign: &IdentityAssignment, seed: u64) -> Scenario {
        match self {
            Family::SplitBrain => split_brain(assign.n(), seed),
            Family::FlappingMinority => flapping_minority(assign.n(), seed),
            Family::HomonymIsolation => homonym_group_isolation(assign, seed),
            Family::LeaderChurn => leader_churn_across_heights(assign, seed),
            Family::HiddenEquivocator => hidden_equivocator(assign, seed),
            Family::CorruptMinorityHomonyms => corrupt_minority_homonyms(assign, seed),
            Family::OverThresholdByzantine => over_threshold_byzantine(assign, seed),
        }
    }
}

/// Which detector/consensus stack the sweep drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackKind {
    /// The full Figure 6 + Figure 8 stack: a real message-passing `◇HP`
    /// detector mirrored into `HΩ` under Figure 8 majority consensus, in
    /// `HPS`. Safety = consensus validity + agreement; liveness =
    /// termination.
    Fig8EvtHp,
    /// Figure 9 quorum consensus over oracle `HΩ`/`HΣ` (the detector is
    /// correct by construction, so every surviving violation indicts the
    /// consensus algorithm), in `HAS`. Safety = validity + agreement
    /// (resting on `HΣ` quorum intersection); liveness = termination.
    Fig9OracleQuorum,
    /// The Figure 6 detector alone in `HPS`: no safety properties (`◇HP`
    /// has none), liveness = `◇HP` convergence and `HΩ` election.
    EvtHpDetector,
    /// The Byzantine-*tolerant* stack: the Figure 6 `◇HP` detector
    /// stacked over [`ByzQuorumConsensus`] — `> (n+f)/2` quorum
    /// certificates, per-label admission windows and echo-certified
    /// decisions, in `HPS`. Safety = agreement + (corrupt-free runs only)
    /// validity, **claimed even under corruption** whenever the run's
    /// fault count satisfies `3f < n`: violations inside the envelope are
    /// real counterexamples, never excused as
    /// [`ByzantineExpected`](RunVerdict::ByzantineExpected). Past the
    /// bound (`3f ≥ n`) the claim is withdrawn and violations are the
    /// demonstrated fall the threshold theory predicts.
    ByzTolerant,
}

impl StackKind {
    /// The stack's report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StackKind::Fig8EvtHp => "fig8-evt-hp",
            StackKind::Fig9OracleQuorum => "fig9-oracle-quorum",
            StackKind::EvtHpDetector => "evt-hp-detector",
            StackKind::ByzTolerant => "byz-tolerant-quorum",
        }
    }
}

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// System size.
    pub n: usize,
    /// Homonymy degree (distinct identifiers; see
    /// [`IdentityAssignment::round_robin`]).
    pub l: usize,
    /// Number of generated base scenarios.
    pub scenarios: usize,
    /// Shared-prefix variants per base scenario (see
    /// [`fault_window_variants`]); `1` leaves the historical behaviour —
    /// every generated scenario stands alone. Total runs =
    /// `scenarios × variants`.
    pub variants: usize,
    /// The stack under test.
    pub stack: StackKind,
    /// Families to rotate through.
    pub families: Vec<Family>,
    /// Base seed; scenario `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// How long after the environment is clean a consensus stack gets to
    /// terminate before a missing decision counts as a liveness
    /// violation.
    pub decision_margin: Span,
    /// Observation window granted to detector-only runs after the
    /// environment is clean.
    pub detector_margin: Span,
    /// Run a truncated **pre-heal probe** for every `probe_every`-th
    /// base scenario (0 disables): the same run cut off just before the
    /// first heal, expected to be blocked — the demonstration that
    /// liveness correctly fails pre-heal. Consensus stacks only; probes
    /// attach to the base variant of a family.
    pub probe_every: usize,
}

impl SweepConfig {
    /// Defaults: `n = 8`, `ℓ = 3`, rotation over all families, no
    /// variant expansion, a generous post-clean margin, and a probe
    /// every 8th scenario.
    #[must_use]
    pub fn new(stack: StackKind, scenarios: usize) -> Self {
        SweepConfig {
            n: 8,
            l: 3,
            scenarios,
            variants: 1,
            stack,
            families: Family::ALL.to_vec(),
            base_seed: 1,
            decision_margin: Span::from_ticks(30_000),
            detector_margin: Span::from_ticks(2_500),
            probe_every: 8,
        }
    }

    /// Sets the per-scenario variant count (builder style); see
    /// [`SweepConfig::variants`].
    #[must_use]
    pub fn with_variants(mut self, variants: usize) -> Self {
        self.variants = variants.max(1);
        self
    }

    /// The **Byzantine mode**: the same defaults as [`SweepConfig::new`]
    /// but rotating through [`Family::WITH_BYZANTINE`], so the sweep
    /// interleaves equivocation/corruption attacks (whose violations are
    /// *demanded* as [`SweepReport::byzantine_demonstrated`]
    /// counterexamples against the crash-only stacks) with the crash
    /// families (whose safety must stay untouched — the `f < n/3` clean
    /// subset).
    #[must_use]
    pub fn byzantine(stack: StackKind, scenarios: usize) -> Self {
        SweepConfig {
            families: Family::WITH_BYZANTINE.to_vec(),
            ..SweepConfig::new(stack, scenarios)
        }
    }

    /// A stable fingerprint of everything that determines the sweep's
    /// run list and verdicts. A checkpoint directory written under one
    /// fingerprint refuses to resume under another — segment files
    /// would silently describe different runs.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut s = homonym_core::wire::Saver::new();
        (self.n, self.l, self.scenarios).save(&mut s);
        self.variants.save(&mut s);
        self.stack.name().save(&mut s);
        let families: Vec<&'static str> = self.families.iter().map(|f| f.name()).collect();
        families.save(&mut s);
        self.base_seed.save(&mut s);
        self.decision_margin.ticks().save(&mut s);
        self.detector_margin.ticks().save(&mut s);
        self.probe_every.save(&mut s);
        homonym_sim::fnv1a(&s.finish())
    }
}

/// A falsifying (or excused) run, replayable from `seed` + the script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The scenario seed (`family.generate(assign, seed)` rebuilds the
    /// base; the script pins the exact variant).
    pub seed: u64,
    /// The family that generated the scenario.
    pub family: &'static str,
    /// The full scenario script (`Scenario`'s `Display`).
    pub script: String,
    /// The violated property.
    pub violation: PropertyViolation,
}

/// Aggregated sweep results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Scenario runs executed (excluding pre-heal probes).
    pub runs: usize,
    /// Safety violations — must be empty for a correct implementation.
    pub safety_counterexamples: Vec<Counterexample>,
    /// Liveness violations on eventually-clean runs — must be empty.
    pub liveness_counterexamples: Vec<Counterexample>,
    /// Runs on which liveness was required and held.
    pub liveness_held: usize,
    /// Runs on which a liveness failure was excused (environment never
    /// clean inside the window).
    pub liveness_excused: usize,
    /// Violations in runs with corrupt processes against a crash-only
    /// stack — the **demonstrated counterexamples** the Byzantine mode
    /// requires (each replayable as family + seed + script). These do
    /// not falsify the implementation; their *absence* falsifies the
    /// Byzantine sweep's claim that crash-only stacks fall to a hidden
    /// equivocator.
    pub byzantine_demonstrated: Vec<Counterexample>,
    /// Byzantine runs the attack failed to falsify (every property
    /// held despite the corruption).
    pub byzantine_survived: usize,
    /// Pre-heal probes executed.
    pub probes: usize,
    /// Probes correctly blocked before the heal **whose full run then
    /// terminated** — the pre-heal/post-heal liveness demonstration.
    pub probe_demonstrations: usize,
    /// Probes that decided even before the heal (possible when the cut
    /// leaves a deciding majority).
    pub probe_decided_early: usize,
}

impl SweepReport {
    /// The first falsifying run, if any (safety first — a safety
    /// counterexample always outranks a liveness one).
    #[must_use]
    pub fn first_counterexample(&self) -> Option<&Counterexample> {
        self.safety_counterexamples
            .first()
            .or(self.liveness_counterexamples.first())
    }

    /// Whether the sweep falsified the stack.
    #[must_use]
    pub fn falsified(&self) -> bool {
        self.first_counterexample().is_some()
    }

    /// The first demonstrated Byzantine counterexample, if any — the
    /// replay seed of the mid-run attack-variation fork
    /// ([`replay_byzantine_counterexample`]).
    #[must_use]
    pub fn first_demonstration(&self) -> Option<&Counterexample> {
        self.byzantine_demonstrated.first()
    }
}

/// Per-worker state of the prefix-sharing executor for the stack `S`
/// being swept: one prefix sweeper, plus one recycled engine arena for
/// the runs that share no prefix (probes, and every run of a stack that
/// is not prefix-invariant). Arenas change allocation traffic only —
/// `sweep_report_is_deterministic` in `tests/chaos_scenarios.rs` pins it.
pub(crate) struct Worker<S: SweepStack> {
    arena: EngineArena<S::Node>,
    sweeper: PrefixSweeper<S::Node>,
}

impl<S: SweepStack> Worker<S> {
    pub(crate) fn new() -> Self {
        Worker {
            arena: EngineArena::new(),
            sweeper: PrefixSweeper::new(),
        }
    }

    /// Spills branch-point snapshots past `budget_bytes` of RAM to a
    /// spool in `dir`; a spool that cannot be created (read-only disk)
    /// leaves them in RAM rather than failing the sweep.
    pub(crate) fn enable_spill(&mut self, dir: &Path, budget_bytes: u64) {
        if let Some(spill) = S::SPILL {
            if let Ok(spool) = SnapshotSpool::new(dir, budget_bytes) {
                spill(&mut self.sweeper, spool);
            }
        }
    }

    /// Spill activity so far (zeros when spilling is off).
    pub(crate) fn spool_stats(&self) -> SpoolStats {
        self.sweeper.spool_stats().unwrap_or_default()
    }
}

/// One scenario run's contribution to the report.
pub(crate) struct RunOutcome {
    pub(crate) family: &'static str,
    pub(crate) seed: u64,
    pub(crate) script: String,
    pub(crate) verdict: RunVerdict<()>,
    /// Number of corrupt processes in the run (splits Byzantine passes
    /// from crash-only passes in the aggregate).
    pub(crate) corrupt: usize,
    /// `Some(blocked)` when a pre-heal probe ran: `true` if the probe
    /// failed to terminate before the heal (the expected outcome).
    pub(crate) probe_blocked: Option<bool>,
}

// Outcomes are what sweep checkpoints persist: one segment file holds
// the outcomes of one scenario group (`&'static str` round-trips
// through the wire interner).
homonym_core::persist_fields!(RunOutcome {
    family,
    seed,
    script,
    verdict,
    corrupt,
    probe_blocked
});

/// One planned scenario run: the expanded (family, seed, variant)
/// coordinates both executors consume, so flat and forked sweeps run the
/// byte-identical scenario list.
pub(crate) struct PlannedRun {
    family: &'static str,
    seed: u64,
    scenario: Scenario,
    /// Whether this run also executes the truncated pre-heal probe.
    probe: bool,
}

impl PlannedRun {
    fn outcome(&self, verdict: RunVerdict<()>, probe_blocked: Option<bool>) -> RunOutcome {
        RunOutcome {
            family: self.family,
            seed: self.seed,
            script: self.scenario.to_string(),
            verdict,
            corrupt: self.scenario.corrupt_count(),
            probe_blocked,
        }
    }
}

/// Expands the sweep configuration into its topology and full run list:
/// base scenarios in rotation order, each followed by its shared-prefix
/// variants (variant 0 *is* the base).
pub(crate) fn plan_runs(cfg: &SweepConfig) -> (IdentityAssignment, Vec<PlannedRun>) {
    assert!(!cfg.families.is_empty(), "sweep needs at least one family");
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let variants = cfg.variants.max(1);
    let mut runs = Vec::with_capacity(cfg.scenarios * variants);
    for i in 0..cfg.scenarios as u64 {
        let seed = cfg.base_seed + i;
        let family = cfg.families[i as usize % cfg.families.len()];
        let base = family.generate(&assign, seed);
        let probe_base = cfg.probe_every > 0 && i.is_multiple_of(cfg.probe_every as u64);
        for (v, scenario) in fault_window_variants(&base, seed, variants)
            .into_iter()
            .enumerate()
        {
            runs.push(PlannedRun {
                family: family.name(),
                seed,
                scenario,
                probe: probe_base && v == 0,
            });
        }
    }
    (assign, runs)
}

/// Folds per-run outcomes into the aggregate report (shared by both
/// executors and the checkpointed driver, so report equality reduces to
/// outcome equality).
pub(crate) fn aggregate(outcomes: Vec<RunOutcome>) -> SweepReport {
    let mut report = SweepReport {
        runs: outcomes.len(),
        ..SweepReport::default()
    };
    for o in outcomes {
        let cex = |v: &PropertyViolation| Counterexample {
            seed: o.seed,
            family: o.family,
            script: o.script.clone(),
            violation: v.clone(),
        };
        match &o.verdict {
            RunVerdict::Pass(()) if o.corrupt > 0 => report.byzantine_survived += 1,
            RunVerdict::Pass(()) => report.liveness_held += 1,
            RunVerdict::SafetyViolated(v) => report.safety_counterexamples.push(cex(v)),
            RunVerdict::LivenessViolated(v) => report.liveness_counterexamples.push(cex(v)),
            RunVerdict::LivenessExcused(_) => report.liveness_excused += 1,
            RunVerdict::ByzantineExpected(v) => report.byzantine_demonstrated.push(cex(v)),
        }
        if let Some(blocked) = o.probe_blocked {
            report.probes += 1;
            if blocked {
                if matches!(o.verdict, RunVerdict::Pass(())) {
                    report.probe_demonstrations += 1;
                }
            } else {
                report.probe_decided_early += 1;
            }
        }
    }
    report
}

/// Runs the falsification sweep on the **flat** executor: every run
/// re-executes its full history from tick 0 (the differential baseline
/// of [`falsification_sweep_forked`]).
///
/// # Panics
///
/// Panics if the config names no families or a generated scenario fails
/// to validate (a generator bug, not a property violation).
#[must_use]
pub fn falsification_sweep(cfg: &SweepConfig) -> SweepReport {
    let (assign, runs) = plan_runs(cfg);
    let outcomes = with_stack!(cfg.stack, |S| {
        parallel_seed_sweep_with(runs.len(), EngineArena::new, |arena, i| {
            run_flat::<S>(cfg, &assign, arena, &runs[i as usize])
        })
    });
    aggregate(outcomes)
}

/// Runs the falsification sweep on the **prefix-sharing** executor:
/// each base scenario's variant family is planned through the divergence
/// computation and executed with snapshot-at-branch-point +
/// restore-per-child, on worker-local arenas. Produces the identical
/// report to [`falsification_sweep`]; with `variants == 1` (or a stack
/// that cannot share) every family is a single fresh run and the two
/// executors coincide exactly.
///
/// # Panics
///
/// Panics if the config names no families or a generated scenario fails
/// to validate.
#[must_use]
pub fn falsification_sweep_forked(cfg: &SweepConfig) -> SweepReport {
    let (assign, runs) = plan_runs(cfg);
    let variants = cfg.variants.max(1);
    let per_family = with_stack!(cfg.stack, |S| {
        parallel_seed_sweep_with(cfg.scenarios, Worker::<S>::new, |worker, g| {
            let group = &runs[g as usize * variants..(g as usize + 1) * variants];
            run_family(cfg, &assign, worker, group)
        })
    });
    aggregate(per_family.into_iter().flatten().collect())
}

/// Runs stack `S` on `sim` (clean from `clean`) inside `arena` toward
/// `goal`, and checks the stack's properties on the result.
fn run_once<S: SweepStack>(
    sim: &SimConfig,
    clean: Time,
    goal: RunGoal,
    proposals: &[u64],
    corrupt: usize,
    arena: &mut EngineArena<S::Node>,
) -> Result<(), PropertyViolation> {
    let nodes = S::nodes(sim, clean, proposals);
    let mut engine = Engine::new_in(sim.clone(), |p, _| nodes(p), std::mem::take(arena));
    match goal {
        RunGoal::Until(t) => engine.run_until(t),
        RunGoal::UntilAllCorrectDecided(t) => engine.run_until_all_correct_decided(t),
    };
    let result = S::check(&engine, proposals, corrupt);
    *arena = engine.into_arena();
    result
}

/// The pre-heal probe of `run` on stack `S`, if it carries one: the run
/// cut off just before the first heal. `Some(true)` means blocked there,
/// the expected outcome.
fn probe<S: SweepStack>(
    run: &PlannedRun,
    sim: &SimConfig,
    clean: Time,
    proposals: &[u64],
    arena: &mut EngineArena<S::Node>,
) -> Option<bool> {
    if !(S::PROBES && run.probe) {
        return None;
    }
    let goal = RunGoal::UntilAllCorrectDecided(first_heal(&run.scenario)?);
    let corrupt = run.scenario.corrupt_count();
    Some(run_once::<S>(sim, clean, goal, proposals, corrupt, arena).is_err())
}

/// Executes one planned run from tick 0 — the flat executor's unit, and
/// the reference the prefix-sharing executor must reproduce.
fn run_flat<S: SweepStack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    arena: &mut EngineArena<S::Node>,
    run: &PlannedRun,
) -> RunOutcome {
    let proposals = proposals(cfg.n);
    let (sim, clean) = S::install(assign, run.seed, &run.scenario);
    let corrupt = run.scenario.corrupt_count();
    let result = run_once::<S>(&sim, clean, S::goal(cfg, clean), &proposals, corrupt, arena);
    let verdict = classify_run(S::condition(cfg.n, &run.scenario, clean), result);
    run.outcome(verdict, probe::<S>(run, &sim, clean, &proposals, arena))
}

/// Executes one variant family on the prefix-sharing executor. Probes
/// run flat, and so does every run of a stack that is not
/// prefix-invariant — the documented no-sharing worst case.
pub(crate) fn run_family<S: SweepStack>(
    cfg: &SweepConfig,
    assign: &IdentityAssignment,
    worker: &mut Worker<S>,
    group: &[PlannedRun],
) -> Vec<RunOutcome> {
    if !S::PREFIX_INVARIANT {
        return group
            .iter()
            .map(|run| run_flat::<S>(cfg, assign, &mut worker.arena, run))
            .collect();
    }
    let proposals = proposals(cfg.n);
    // Each item's tag is its clean instant.
    let items: Vec<PrefixItem<Time>> = group
        .iter()
        .map(|run| {
            let (config, clean) = S::install(assign, run.seed, &run.scenario);
            PrefixItem {
                goal: S::goal(cfg, clean),
                config,
                tag: clean,
            }
        })
        .collect();
    let verdicts = worker.sweeper.run_family(
        &items,
        |i, p, _| S::nodes(&items[i].config, items[i].tag, &proposals)(p),
        |engine, j| {
            let scenario = &group[j].scenario;
            let result = S::check(engine, &proposals, scenario.corrupt_count());
            classify_run(S::condition(cfg.n, scenario, items[j].tag), result)
        },
    );
    group
        .iter()
        .zip(&items)
        .zip(verdicts)
        .map(|((run, item), verdict)| {
            let probe_blocked =
                probe::<S>(run, &item.config, item.tag, &proposals, &mut worker.arena);
            run.outcome(verdict, probe_blocked)
        })
        .collect()
}

/// The instant just before the earliest network fault ends — the
/// pre-heal probe's deadline. `None` when the scenario has no network
/// fault (nothing to heal) or it ends at the very first tick.
fn first_heal(scenario: &Scenario) -> Option<Time> {
    scenario
        .clauses()
        .iter()
        .filter_map(|c| match c {
            FaultClause::Partition { heal_at, .. } => Some(*heal_at),
            FaultClause::LinkOverlay { end, .. } => Some(*end),
            FaultClause::Churn { up, .. } => Some(*up),
            // Crashes never heal; a Byzantine window's end is process
            // redemption, not a network heal, and the demonstration
            // sweeps have nothing to probe there.
            FaultClause::Crash { .. }
            | FaultClause::ByzantineEquivocate { .. }
            | FaultClause::ByzantineCorrupt { .. }
            | FaultClause::ByzantineReplay { .. }
            | FaultClause::ByzantineSelectiveSend { .. } => None,
        })
        .min()
        .filter(|t| t.ticks() > 1)
        .map(|t| Time::from_ticks(t.ticks() - 1))
}

/// The instant from which an installed config's environment is clean:
/// every fault over and (for `HPS`) GST passed. Exported because every
/// consumer of the sweep's verdict semantics (the bench harness's
/// forked rows, the atlas example) must anchor deadlines to the same
/// definition.
#[must_use]
pub fn clean_instant(cfg: &SimConfig, scenario: &Scenario) -> Time {
    let gst = match cfg.network {
        NetworkModel::PartialSync { gst, .. } => gst,
        _ => Time::ZERO,
    };
    scenario.last_fault_end().max(gst)
}

/// The canonical full stack: the Figure 6 `◇HP`/`HΩ` detector mirrored
/// into Figure 8 majority consensus through a shared cell.
pub type Fig8Node =
    Stacked<EvtHpProcess, MajorityConsensus<HOmegaPolicy<SharedCell<HOmegaOutput>>>>;

/// Builds one [`Fig8Node`] — the exact stack the falsification sweep
/// drives, exported so tests and examples exercise the same shape (same
/// consensus tick, same wiring) instead of hand-rolling a drifting copy.
#[must_use]
pub fn fig8_node(proposal: u64, n: usize, t: usize) -> Fig8Node {
    let cell: SharedCell<HOmegaOutput> = SharedCell::new(HOmegaOutput::new(Identity::BOTTOM, 1));
    let detector = EvtHpProcess::new().with_h_omega_mirror(cell.clone());
    let consensus =
        MajorityConsensus::new(proposal, n, t, HOmegaPolicy(cell)).with_tick(Span::from_ticks(2));
    Stacked::new(detector, consensus)
}

/// The Byzantine-tolerant stack: the Figure 6 `◇HP`/`HΩ` detector
/// stacked over the `HΣ`-style quorum-certificate consensus — same
/// two-layer shape as [`Fig8Node`], so the batched hot path, the
/// snapshot/fork layer and the [`PrefixSweeper`] drive it unchanged.
pub type ByzTolerantNode = Stacked<EvtHpProcess, ByzQuorumConsensus>;

/// Builds one [`ByzTolerantNode`] — the exact stack the Byzantine sweep
/// drives, exported so tests, benches and examples exercise the same
/// shape (same consensus tick, same design tolerance `f = ⌊(n−1)/3⌋`
/// fixed from the topology) instead of hand-rolling a drifting copy.
#[must_use]
pub fn byz_tolerant_node(proposal: u64, assign: &IdentityAssignment) -> ByzTolerantNode {
    Stacked::new(
        EvtHpProcess::new(),
        ByzQuorumConsensus::new(proposal, assign).with_tick(2),
    )
}

/// Base `HPS` network for scenario runs: pre-GST copies delayed but
/// never lost by the *network* (loss, if any, is the scenario's move),
/// so reliability is exactly what the scenario says it is. The GST here
/// is a placeholder the scenario's [`GstPlacement`](crate::GstPlacement)
/// overwrites at install time.
#[must_use]
pub fn hps_base() -> NetworkModel {
    NetworkModel::PartialSync {
        gst: Time::ZERO, // overwritten by the scenario's GST placement
        delta: Span::from_ticks(3),
        pre_gst: PreGstBehavior::DelayOnly {
            max_delay: Span::from_ticks(20),
        },
    }
}

// ---------------------------------------------------------------------------
// Mid-run counterexample replay
// ---------------------------------------------------------------------------

/// Result of replaying one Byzantine counterexample across attack
/// variations (see [`replay_byzantine_counterexample`]): the per-variant
/// verdicts of the prefix-sharing executor, the flat from-tick-0
/// re-executions they must equal, and the fork accounting proving the
/// honest prefix was shared rather than re-executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByzantineReplay {
    /// Each variation's full scenario script (variant 0 is the original
    /// counterexample), replayable verbatim.
    pub scripts: Vec<String>,
    /// Verdicts from the **forked** execution: the honest prefix runs
    /// once, is snapshotted just before the earliest attack window, and
    /// every variation restores from that snapshot.
    pub forked: Vec<RunVerdict<()>>,
    /// Verdicts from flat re-execution of every variation.
    pub flat: Vec<RunVerdict<()>>,
    /// Fork accounting of the forked execution (a nonzero
    /// [`ForkStats::forked`] proves the prefix was actually shared on
    /// sharable stacks).
    pub stats: ForkStats,
}

impl ByzantineReplay {
    /// Whether the forked replay reproduced the flat re-execution
    /// verdict for verdict — the soundness check of mid-run replay.
    #[must_use]
    pub fn verdicts_match(&self) -> bool {
        self.forked == self.flat
    }

    /// How many variations the original attack's damage survived into
    /// (non-passing forked verdicts).
    #[must_use]
    pub fn still_falsified(&self) -> usize {
        self.forked
            .iter()
            .filter(|v| v.violation().is_some())
            .count()
    }
}

/// Re-locates the **exact falsified scenario** a counterexample names: a
/// sweep with variant expansion (`cfg.variants > 1`) may have found the
/// counterexample in a fault-window variant of the family base, not the
/// base itself, so the scenario is pinned by matching each variant's
/// printed script against [`Counterexample::script`].
///
/// # Panics
///
/// Panics if the counterexample's family name is unknown or its script
/// matches no variant of `(family, seed)` under the sweep's variant
/// count — i.e. the counterexample did not come from a sweep with this
/// configuration.
#[must_use]
pub fn locate_counterexample_scenario(cfg: &SweepConfig, cex: &Counterexample) -> Scenario {
    let family = Family::by_name(cex.family)
        .unwrap_or_else(|| panic!("unknown scenario family {:?}", cex.family));
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    fault_window_variants(
        &family.generate(&assign, cex.seed),
        cex.seed,
        cfg.variants.max(1),
    )
    .into_iter()
    .find(|s| s.to_string() == cex.script)
    .unwrap_or_else(|| {
        panic!(
            "counterexample script matches no variant of family={} seed={}: {}",
            cex.family, cex.seed, cex.script
        )
    })
}

/// Replays a demonstrated Byzantine counterexample **from mid-run**: the
/// counterexample's `(family, seed)` coordinates rebuild the base
/// scenario, [`byzantine_attack_variants`] expands it into `variants`
/// attack variations (redrawn victim sets and timings, same corrupt
/// sources, same honest prefix), and the prefix-sharing executor runs
/// the family — the run is snapshotted just before the earliest
/// equivocation window and re-forked per variation via the same
/// [`PrefixSweeper`]/divergence machinery the falsification sweep uses,
/// never re-executing the honest prefix. The same variations are also
/// re-executed flat from tick 0; [`ByzantineReplay::verdicts_match`]
/// must hold (asserted by `exp_chaos` and the chaos integration tests).
///
/// The oracle-backed Figure 9 stack takes its documented flat fallback
/// inside the forked executor (per-variant oracle worlds are not
/// prefix-invariant), so its [`ForkStats`] report no sharing.
///
/// # Panics
///
/// Panics if the counterexample's family name is unknown, or the rebuilt
/// scenario mounts no Byzantine attack (the counterexample did not come
/// from a Byzantine run).
#[must_use]
pub fn replay_byzantine_counterexample(
    cfg: &SweepConfig,
    cex: &Counterexample,
    variants: usize,
) -> ByzantineReplay {
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let base = locate_counterexample_scenario(cfg, cex);
    let group: Vec<PlannedRun> = byzantine_attack_variants(&base, cex.seed, variants.max(1))
        .into_iter()
        .map(|scenario| PlannedRun {
            family: cex.family,
            seed: cex.seed,
            scenario,
            probe: false,
        })
        .collect();
    let (forked, flat, stats) = with_stack!(cfg.stack, |S| {
        let mut worker = Worker::<S>::new();
        let forked = run_family(cfg, &assign, &mut worker, &group);
        let mut arena = EngineArena::new();
        let flat: Vec<RunOutcome> = group
            .iter()
            .map(|run| run_flat::<S>(cfg, &assign, &mut arena, run))
            .collect();
        (forked, flat, worker.sweeper.stats)
    });
    ByzantineReplay {
        scripts: group.iter().map(|r| r.scenario.to_string()).collect(),
        forked: forked.into_iter().map(|o| o.verdict).collect(),
        flat: flat.into_iter().map(|o| o.verdict).collect(),
        stats,
    }
}
