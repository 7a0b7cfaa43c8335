//! The stacks the falsification sweep drives, each defined once: the
//! sweep executors and the [`SessionBuilder`](crate::session::SessionBuilder)
//! constructors are generic over [`SweepStack`], and [`with_stack!`] is
//! the one place a runtime [`StackKind`] becomes a type.

use homonym_consensus::QuorumConsensus;
use homonym_core::identity::IdentityAssignment;
use homonym_core::properties::{
    check_byzantine_consensus, check_consensus, check_evt_hp, check_h_omega, PropertyViolation,
    RunCondition,
};
use homonym_core::time::{Span, Time};
use homonym_core::FailureSchedule;
use homonym_detectors::evt_hp::{split_snapshots, EvtHpProcess};
use homonym_detectors::oracle::{HOmegaOracle, HSigmaOracle, OracleWorld, PreStability};
use homonym_sim::engine::{Engine, SimConfig};
use homonym_sim::network::{LatencyDistribution, NetworkModel};
use homonym_sim::{ForkProcess, SnapshotSpool};

use crate::scenario::Scenario;
#[cfg(doc)]
use crate::sweep::StackKind;
use crate::sweep::{
    byz_tolerant_node, clean_instant, fig8_node, hps_base, ByzTolerantNode, Fig8Node,
    PrefixSweeper, RunGoal, SweepConfig,
};

/// [`PrefixSweeper::enable_spill`] for one node type.
pub(crate) type Spill<P> = fn(&mut PrefixSweeper<P>, SnapshotSpool);

/// The sweep's proposals: process `p` proposes `100 + p`.
pub(crate) fn proposals(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

/// One stack the sweep can drive. The provided methods are the
/// consensus-stack defaults; impls override what their stack does
/// differently.
pub(crate) trait SweepStack {
    /// The process the engine runs.
    type Node: ForkProcess;

    /// Whether node construction depends only on proposals and topology,
    /// so the variants of one family may share a prefix. Other stacks
    /// run flat inside the prefix-sharing executor.
    const PREFIX_INVARIANT: bool = true;

    /// Whether truncated pre-heal probes apply.
    const PROBES: bool = true;

    /// How the stack's sweeper spills cold branch-point snapshots, for
    /// stacks with a wire codec.
    const SPILL: Option<Spill<Self::Node>> = None;

    /// The network a scenario is installed over.
    fn network() -> NetworkModel {
        hps_base()
    }

    /// The node factory of a run installed as `sim`, clean from `clean`.
    fn nodes(sim: &SimConfig, clean: Time, proposals: &[u64]) -> impl Fn(usize) -> Self::Node;

    /// How far a run goes.
    fn goal(cfg: &SweepConfig, clean: Time) -> RunGoal {
        RunGoal::UntilAllCorrectDecided(clean + cfg.decision_margin)
    }

    /// The stack's properties on a finished engine; `corrupt` counts the
    /// run's corrupt processes.
    fn check(
        engine: &Engine<Self::Node>,
        proposals: &[u64],
        _corrupt: usize,
    ) -> Result<(), PropertyViolation> {
        check_consensus(&engine.outcome(proposals.to_vec()), &engine.config().sched).map(|_| ())
    }

    /// Which of [`SweepStack::check`]'s obligations a run of `scenario`
    /// must meet among `n` processes.
    fn condition(_n: usize, scenario: &Scenario, clean: Time) -> RunCondition {
        reliable_link_condition(scenario, clean)
    }

    /// Installs `scenario` over this stack's network with run seed
    /// `seed`; returns the config and the instant it is clean from.
    fn install(assign: &IdentityAssignment, seed: u64, scenario: &Scenario) -> (SimConfig, Time) {
        let sim = SimConfig::new(
            assign.clone(),
            FailureSchedule::none(assign.n()),
            Self::network(),
        )
        .with_seed(seed);
        let sim = scenario.install(sim).expect("generated scenarios validate");
        let clean = clean_instant(&sim, scenario);
        (sim, clean)
    }
}

/// The consensus stacks are written for reliable links: a scenario that
/// permanently loses copies leaves their model, so termination is only
/// required of loss-free scenarios. Corrupt processes void every
/// obligation of a crash-only stack — violations under them are
/// demonstrations, not falsifications.
fn reliable_link_condition(scenario: &Scenario, clean: Time) -> RunCondition {
    let condition = if scenario.is_lossy() {
        RunCondition::never_clean()
    } else {
        RunCondition::clean_from(clean)
    };
    condition.with_corrupt(scenario.corrupt_count())
}

/// [`StackKind::Fig8EvtHp`].
pub(crate) struct Fig8EvtHp;

impl SweepStack for Fig8EvtHp {
    type Node = Fig8Node;
    const SPILL: Option<Spill<Fig8Node>> = Some(PrefixSweeper::enable_spill);

    fn nodes(sim: &SimConfig, _: Time, proposals: &[u64]) -> impl Fn(usize) -> Fig8Node {
        let n = sim.assign.n();
        move |p| fig8_node(proposals[p], n, (n - 1) / 2)
    }
}

/// [`StackKind::Fig9OracleQuorum`].
pub(crate) struct Fig9OracleQuorum;

impl SweepStack for Fig9OracleQuorum {
    type Node = QuorumConsensus<HOmegaOracle, HSigmaOracle>;

    /// The oracles stabilize at each variant's own clean instant.
    const PREFIX_INVARIANT: bool = false;

    fn network() -> NetworkModel {
        NetworkModel::Asynchronous(LatencyDistribution::Uniform {
            min: Span::TICK,
            max: Span::from_ticks(5),
        })
    }

    /// Oracle detectors stabilize once the environment is clean; before
    /// that `HΩ` may churn arbitrarily.
    fn nodes(sim: &SimConfig, clean: Time, proposals: &[u64]) -> impl Fn(usize) -> Self::Node {
        let world = OracleWorld::new(sim.sched.clone(), sim.assign.clone(), clean);
        move |p| {
            QuorumConsensus::new(
                proposals[p],
                world.h_omega_for(p, PreStability::Chaotic),
                world.h_sigma_for(p, PreStability::Truthful),
            )
        }
    }
}

/// [`StackKind::EvtHpDetector`].
pub(crate) struct EvtHpDetector;

impl SweepStack for EvtHpDetector {
    type Node = EvtHpProcess;
    const PROBES: bool = false;
    const SPILL: Option<Spill<EvtHpProcess>> = Some(PrefixSweeper::enable_spill);

    fn nodes(_: &SimConfig, _: Time, _: &[u64]) -> impl Fn(usize) -> EvtHpProcess {
        |_| EvtHpProcess::new()
    }

    fn goal(cfg: &SweepConfig, clean: Time) -> RunGoal {
        RunGoal::Until(clean + cfg.detector_margin)
    }

    /// `◇HP` convergence, then `HΩ` election.
    fn check(engine: &Engine<EvtHpProcess>, _: &[u64], _: usize) -> Result<(), PropertyViolation> {
        let (evt, omg): (Vec<_>, Vec<_>) = engine.histories().iter().map(split_snapshots).unzip();
        let sim = engine.config();
        check_evt_hp(&evt, &sim.sched, &sim.assign)?;
        check_h_omega(&omg, &sim.sched, &sim.assign).map(|_| ())
    }

    /// `◇HP` lives in `HPS`, which tolerates arbitrary pre-GST behaviour
    /// — lossy scenarios included — so liveness is required of every
    /// scenario the generators produce (all network faults end before
    /// GST); corrupt processes again turn violations into
    /// demonstrations.
    fn condition(_n: usize, scenario: &Scenario, clean: Time) -> RunCondition {
        RunCondition::clean_from(clean).with_corrupt(scenario.corrupt_count())
    }
}

/// [`StackKind::ByzTolerant`].
pub(crate) struct ByzTolerant;

impl SweepStack for ByzTolerant {
    type Node = ByzTolerantNode;
    const SPILL: Option<Spill<ByzTolerantNode>> = Some(PrefixSweeper::enable_spill);

    fn nodes(sim: &SimConfig, _: Time, proposals: &[u64]) -> impl Fn(usize) -> ByzTolerantNode {
        move |p| byz_tolerant_node(proposals[p], &sim.assign)
    }

    /// Agreement always; validity only over corrupt-free runs.
    fn check(
        engine: &Engine<ByzTolerantNode>,
        proposals: &[u64],
        corrupt: usize,
    ) -> Result<(), PropertyViolation> {
        let outcome = engine.outcome(proposals.to_vec());
        check_byzantine_consensus(&outcome, &engine.config().sched, corrupt).map(|_| ())
    }

    /// The tolerance claim is asserted exactly when the scenario's
    /// corruption stays inside the stack's `n > 3f` envelope — within
    /// it, violations are *real* counterexamples (never
    /// `ByzantineExpected`); past it the claim is withdrawn and
    /// violations are the demonstrated fall past the bound.
    fn condition(n: usize, scenario: &Scenario, clean: Time) -> RunCondition {
        let condition = reliable_link_condition(scenario, clean);
        if 3 * scenario.corrupt_count() < n {
            condition.claiming_byzantine_tolerance(n)
        } else {
            condition
        }
    }
}

/// Evaluates `$body` with the type `$S` bound to the [`SweepStack`] impl
/// of the [`StackKind`] `$kind` (each impl is named after its variant).
macro_rules! with_stack {
    ($kind:expr, |$S:ident| $body:expr) => {
        $crate::stack::with_stack!(
            @ $kind, $S, $body, Fig8EvtHp Fig9OracleQuorum EvtHpDetector ByzTolerant
        )
    };
    (@ $kind:expr, $S:ident, $body:expr, $($stack:ident)*) => {
        match $kind {
            $($crate::sweep::StackKind::$stack => {
                type $S = $crate::stack::$stack;
                $body
            })*
        }
    };
}
pub(crate) use with_stack;
