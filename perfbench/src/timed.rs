//! Bench-side layer timing for the traced run.
//!
//! [`Timed<P>`] wraps a process half and forwards every [`Process`]
//! callback (and the Byzantine mutation hook) to it unchanged, adding
//! one call count and the callback's wall time to `P`'s layer. It also
//! implements [`HeightEngine`], so the replicated log can spawn timed
//! per-height engines. Nothing in the program changes: the traced stack
//! is assembled from the same public parts as the production one, and
//! the traced run checks that it dispatches the same events and ends in
//! the same log fingerprints.
//!
//! Callback spans number in the tens of millions on the larger log
//! workloads, so they are aggregated in place per layer (count and busy
//! time), never stored one by one.

use std::cell::Cell;
use std::time::Instant;

use homonym_consensus::byz_quorum::ByzQuorumConsensus;
use homonym_consensus::rsm::{ByzHeightSeed, HeightEngine, ReplicatedLog, RsmMsg, RsmOptions};
use homonym_core::fork::ForkSpace;
use homonym_core::identity::IdentityAssignment;
use homonym_detectors::evt_hp::EvtHpProcess;
use homonym_sim::engine::Metrics;
use homonym_sim::process::{ActionSink, Process, TimerTag};
use homonym_sim::stack::{Either, Stacked};
use homonym_sim::workload::CommandQueue;

use crate::report;

/// The process layers the traced run prices.
#[derive(Debug, Clone, Copy)]
pub enum Layer {
    /// The `◇HP`/`HΩ` detector half (`detectors::evt_hp`).
    EvtHp = 0,
    /// The replicated log's envelope, catch-up and height turnover
    /// (`consensus::rsm`), including its nested per-height engine.
    Rsm = 1,
    /// One height's Byzantine quorum engine (`consensus::byz_quorum`).
    ByzQuorum = 2,
}

const LAYERS: usize = 3;

thread_local! {
    static CALLS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
    static BUSY_NS: [Cell<u64>; LAYERS] = const { [const { Cell::new(0) }; LAYERS] };
}

/// Callback count and busy wall time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerSpan {
    pub calls: u64,
    pub busy_ns: u64,
}

impl LayerSpan {
    pub fn busy_s(self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn ns_per_call(self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }
}

/// Zeroes every layer's counters (before a traced pass).
pub fn reset() {
    CALLS.with(|c| c.iter().for_each(|x| x.set(0)));
    BUSY_NS.with(|c| c.iter().for_each(|x| x.set(0)));
}

/// The counters accumulated since the last [`reset`].
pub fn spans() -> [LayerSpan; LAYERS] {
    let mut out = [LayerSpan::default(); LAYERS];
    CALLS.with(|c| {
        for (o, x) in out.iter_mut().zip(c) {
            o.calls = x.get();
        }
    });
    BUSY_NS.with(|c| {
        for (o, x) in out.iter_mut().zip(c) {
            o.busy_ns = x.get();
        }
    });
    out
}

#[inline]
fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let i = layer as usize;
    CALLS.with(|c| c[i].set(c[i].get() + 1));
    BUSY_NS.with(|c| c[i].set(c[i].get() + ns));
    out
}

/// Which layer a wrapped process half belongs to.
pub trait Layered {
    const LAYER: Layer;
}

impl Layered for EvtHpProcess {
    const LAYER: Layer = Layer::EvtHp;
}

impl Layered for ByzQuorumConsensus {
    const LAYER: Layer = Layer::ByzQuorum;
}

impl<C: HeightEngine> Layered for ReplicatedLog<C> {
    const LAYER: Layer = Layer::Rsm;
}

/// A process half whose callbacks are counted and timed; see the module
/// docs.
pub struct Timed<P>(pub P);

impl<P: Process + Layered> Process for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        span(P::LAYER, || self.0.on_start(ctx));
    }

    fn on_message(&mut self, msg: Self::Msg, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        span(P::LAYER, || self.0.on_message(msg, ctx));
    }

    fn on_messages(&mut self, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        span(P::LAYER, || self.0.on_messages(ctx));
    }

    fn on_timer(&mut self, timer: TimerTag, ctx: &mut ActionSink<'_, Self::Msg, Self::Output>) {
        span(P::LAYER, || self.0.on_timer(timer, ctx));
    }

    fn mutate_payload(msg: &Self::Msg, entropy: u64) -> Option<Self::Msg> {
        P::mutate_payload(msg, entropy)
    }
}

impl<C: HeightEngine + Layered> HeightEngine for Timed<C> {
    type Seed = C::Seed;

    fn spawn(seed: &Self::Seed, proposal: u64) -> Self {
        Timed(C::spawn(seed, proposal))
    }

    fn fork_seed(seed: &Self::Seed, space: &mut ForkSpace) -> Self::Seed {
        C::fork_seed(seed, space)
    }
}

/// The traced shape of `homonym_chaos::RsmNode`.
pub type TracedRsmNode =
    Stacked<Timed<EvtHpProcess>, Timed<ReplicatedLog<Timed<ByzQuorumConsensus>>>>;

/// Builds one [`TracedRsmNode`] from the same parts and settings as
/// `homonym_chaos::rsm_node` (consensus tick 2, `f + 1` catch-up
/// certificates).
pub fn traced_rsm_node(assign: &IdentityAssignment, client: CommandQueue) -> TracedRsmNode {
    let seed = ByzHeightSeed {
        assign: assign.clone(),
        tick: 2,
    };
    Stacked::new(
        Timed(EvtHpProcess::new()),
        Timed(ReplicatedLog::new(
            seed,
            client,
            assign,
            RsmOptions::byzantine(assign),
        )),
    )
}

/// The traced shape of `homonym_chaos::ByzTolerantNode`.
pub type TracedByzNode = Stacked<Timed<EvtHpProcess>, Timed<ByzQuorumConsensus>>;

/// Builds one [`TracedByzNode`] with the settings of
/// `homonym_chaos::byz_tolerant_node`.
pub fn traced_byz_node(proposal: u64, assign: &IdentityAssignment) -> TracedByzNode {
    Stacked::new(
        Timed(EvtHpProcess::new()),
        Timed(ByzQuorumConsensus::new(proposal, assign).with_tick(2)),
    )
}

/// Broadcast classes of the traced log stack, counted by the engine's
/// classifier.
pub fn classify_rsm<L, M>(msg: &Either<L, RsmMsg<M>>) -> &'static str {
    match msg {
        Either::L(_) => "evt_hp",
        Either::R(RsmMsg::Inner { .. }) => "byz_quorum",
        Either::R(RsmMsg::Commit { .. }) => "rsm_commit",
    }
}

/// Broadcast classes of the traced one-shot stack.
pub fn classify_byz<L, R>(msg: &Either<L, R>) -> &'static str {
    match msg {
        Either::L(_) => "evt_hp",
        Either::R(_) => "byz_quorum",
    }
}

/// Adds one session's engine counters to a pass total.
pub fn add_metrics(total: &mut Metrics, m: &Metrics) {
    total.broadcasts += m.broadcasts;
    total.copies_sent += m.copies_sent;
    total.copies_delivered += m.copies_delivered;
    total.copies_lost += m.copies_lost;
    total.copies_blocked += m.copies_blocked;
    total.copies_forged += m.copies_forged;
    total.copies_suppressed += m.copies_suppressed;
    total.copies_discarded += m.copies_discarded;
    total.timers_fired += m.timers_fired;
    total.events += m.events;
    for (class, count) in &m.by_class {
        *total.by_class.entry(class).or_insert(0) += count;
    }
}

/// The engine-side per-layer metrics: `sim.engine`, `sim.network` and
/// `sim.adversary`. `engine_self_s` is the traced wall time minus all
/// process-callback busy time.
pub fn put_engine(m: &mut report::Metrics, e: &Metrics, engine_self_s: f64) {
    m.put("sim.engine.events", "count", e.events as f64);
    m.put("sim.engine.self_s", "s", engine_self_s);
    m.put(
        "sim.engine.ns_per_event",
        "ns",
        engine_self_s * 1e9 / e.events.max(1) as f64,
    );
    m.put("sim.engine.timers_fired", "count", e.timers_fired as f64);
    m.put("sim.network.copies_sent", "count", e.copies_sent as f64);
    m.put(
        "sim.network.copies_delivered",
        "count",
        e.copies_delivered as f64,
    );
    m.put("sim.network.copies_lost", "count", e.copies_lost as f64);
    m.put(
        "sim.adversary.copies_blocked",
        "count",
        e.copies_blocked as f64,
    );
    m.put(
        "sim.adversary.copies_forged",
        "count",
        e.copies_forged as f64,
    );
    m.put(
        "sim.adversary.copies_suppressed",
        "count",
        e.copies_suppressed as f64,
    );
}

/// The detector and quorum-engine layers. `instances` is the number of
/// consensus instances the pass decided (log heights, or one per
/// one-shot run).
pub fn put_process_layers(
    m: &mut report::Metrics,
    evt: LayerSpan,
    byz: LayerSpan,
    e: &Metrics,
    instances: u64,
) {
    m.put("detectors.evt_hp.calls", "count", evt.calls as f64);
    m.put("detectors.evt_hp.busy_s", "s", evt.busy_s());
    m.put("detectors.evt_hp.ns_per_call", "ns", evt.ns_per_call());
    m.put("consensus.byz_quorum.calls", "count", byz.calls as f64);
    m.put("consensus.byz_quorum.busy_s", "s", byz.busy_s());
    m.put("consensus.byz_quorum.ns_per_call", "ns", byz.ns_per_call());
    let broadcasts = e.by_class.get("byz_quorum").copied().unwrap_or(0);
    m.put(
        "consensus.byz_quorum.broadcasts_per_height",
        "broadcasts",
        broadcasts as f64 / instances.max(1) as f64,
    );
}
