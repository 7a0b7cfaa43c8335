//! The log-service workloads: `closed_n4`, `open_n16` and `churn_n8`.
//!
//! Every workload drives the Byzantine-tolerant replicated log
//! (`RsmNode`) through `SessionBuilder::rsm` on the `hps_base` network
//! (GST = 0) with `Goal::TickHorizon`. One *pass* is a fixed list of
//! sessions whose seeds derive from the run seed, so every figure that
//! counts ticks, events or commands is a pure function of the seed;
//! a run repeats the pass until its time is up and checks that every
//! repetition reproduces the first exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use homonym_chaos::scenario::{FaultClause, Scenario};
use homonym_chaos::session::{Goal, RsmNode, Session, SessionBuilder};
use homonym_consensus::byz_quorum::ByzQuorumConsensus;
use homonym_consensus::rsm::LogEntry;
use homonym_core::time::Time;
use homonym_core::wire::{self, Persist, Saver};
use homonym_detectors::evt_hp::{EvtHpProcess, EvtHpSnapshot};
use homonym_sim::engine::{Engine, Metrics as EngineMetrics};
use homonym_sim::process::Process;
use homonym_sim::stack::Either;
use homonym_sim::store::{fnv1a, read_verified, write_atomic};
use homonym_sim::workload::{
    is_noop, proposer_of, seq_of, ArrivalModel, CommandQueue, WorkloadConfig,
};

use crate::report::{self, derive, median, median_index, percentile, Metrics, SetupSampler};
use crate::timed::{self, classify_rsm, traced_rsm_node, TracedRsmNode};

/// A submitted command counts as failed when it is not committed within
/// this many ticks (about 20 fault-free heights).
const FAIL_AFTER_TICKS: u64 = 500;

/// Recorder capacity of the recorder-on pass; events past it are
/// counted as dropped by the recorder.
const RECORDER_CAP: usize = 1 << 20;

/// Shape of one log workload.
#[derive(Debug, Clone, Copy)]
pub struct LogSpec {
    pub name: &'static str,
    pub n: usize,
    pub l: usize,
    /// Open-loop mean arrival gap per client; `None` is a closed loop.
    pub mean_gap: Option<u64>,
    /// Churn the carriers of the smallest identifier for the whole run.
    pub churn: bool,
    /// Virtual ticks per session.
    pub horizon: u64,
    /// Sessions per pass.
    pub sessions: usize,
}

pub const CLOSED_N4: LogSpec = LogSpec {
    name: "closed_n4",
    n: 4,
    l: 2,
    mean_gap: None,
    churn: false,
    horizon: 150_000,
    sessions: 4,
};

pub const OPEN_N16: LogSpec = LogSpec {
    name: "open_n16",
    n: 16,
    l: 8,
    mean_gap: Some(800),
    churn: false,
    horizon: 150_000,
    sessions: 1,
};

pub const CHURN_N8: LogSpec = LogSpec {
    name: "churn_n8",
    n: 8,
    l: 4,
    mean_gap: Some(800),
    churn: true,
    horizon: 150_000,
    sessions: 2,
};

/// The inputs of one session, all derived from the run seed.
#[derive(Clone)]
struct SessionInput {
    builder: SessionBuilder,
    workload: WorkloadConfig,
}

fn inputs(spec: &LogSpec, seed: u64) -> Vec<SessionInput> {
    (0..spec.sessions as u64)
        .map(|i| {
            let mut builder = SessionBuilder::new(spec.n, spec.l)
                .with_seed(derive(seed, 2 * i))
                .with_goal(Goal::TickHorizon)
                .with_deadline_ticks(spec.horizon);
            if spec.churn {
                let scenario = churn_scenario(spec, &builder);
                builder = builder.with_scenario(scenario);
            }
            let (arrival, commands_per_proc) = match spec.mean_gap {
                // Enough commands that no client drains before the
                // horizon (checked after every session).
                None => (ArrivalModel::Closed, spec.horizon / 16),
                Some(gap) => (
                    ArrivalModel::Open {
                        mean_gap_ticks: gap,
                    },
                    2 * spec.horizon / gap + 8,
                ),
            };
            let workload = WorkloadConfig {
                commands_per_proc: usize::try_from(commands_per_proc).expect("fits usize"),
                arrival,
                seed: derive(seed, 2 * i + 1),
                ..WorkloadConfig::default()
            };
            SessionInput { builder, workload }
        })
        .collect()
}

/// The carriers of the smallest identifier (the `HΩ` leader's) take
/// turns going unreachable for 150 ticks out of every 1 000, for the
/// whole horizon.
fn churn_scenario(spec: &LogSpec, builder: &SessionBuilder) -> Scenario {
    let assign = builder.assignment();
    let leader = (0..spec.n)
        .map(|p| assign.id_of(p))
        .min()
        .expect("nonempty system");
    let carriers = assign.processes_with(leader);
    let mut scenario = Scenario::new("leader-carrier-churn", spec.n);
    for (k, down) in (500..spec.horizon).step_by(1_000).enumerate() {
        scenario = scenario.with_clause(FaultClause::Churn {
            process: carriers[k % carriers.len()],
            down: Time::from_ticks(down),
            up: Time::from_ticks(down + 150),
        });
    }
    scenario
}

/// `CommandQueue`'s fields, read through its public `Persist` encoding
/// (`proc_idx, cmds, arrivals, done`).
struct QueueFields {
    proc_idx: usize,
    cmds: Vec<u64>,
    arrivals: Vec<u64>,
    _done: usize,
}

homonym_core::persist_fields!(QueueFields {
    proc_idx,
    cmds,
    arrivals,
    _done
});

fn queue_fields(q: &CommandQueue) -> QueueFields {
    wire::from_bytes(&wire::to_bytes(q)).expect("CommandQueue encoding decodes")
}

/// What a finished session leaves behind, read from outside.
struct Replica {
    correct: bool,
    log: Vec<u64>,
    hash: u64,
    /// `(tick, height, value)` per commit, from the engine history.
    commits: Vec<(u64, u64, u64)>,
    client_done: usize,
}

struct Record {
    /// `Session::prefix_violation()` reported a pair (untraced runs).
    prefix_violation: bool,
    events: u64,
    metrics: EngineMetrics,
    replicas: Vec<Replica>,
}

/// Read access to the log half of both node shapes.
trait LogNode: Process<Output = Either<EvtHpSnapshot, LogEntry>> {
    fn log(&self) -> &[u64];
    fn hash(&self) -> u64;
    fn client(&self) -> &CommandQueue;
}

impl LogNode for RsmNode {
    fn log(&self) -> &[u64] {
        self.upper().log()
    }
    fn hash(&self) -> u64 {
        self.upper().state_hash()
    }
    fn client(&self) -> &CommandQueue {
        self.upper().client()
    }
}

impl LogNode for TracedRsmNode {
    fn log(&self) -> &[u64] {
        self.upper().0.log()
    }
    fn hash(&self) -> u64 {
        self.upper().0.state_hash()
    }
    fn client(&self) -> &CommandQueue {
        self.upper().0.client()
    }
}

fn record<P: LogNode>(engine: &Engine<P>) -> Record {
    let sched = &engine.config().sched;
    let replicas = (0..engine.n())
        .map(|p| {
            let node = engine.process(p);
            let commits = engine.histories()[p]
                .iter()
                .filter_map(|(t, o)| match o {
                    Either::R(e) => Some((t.ticks(), e.height, e.value)),
                    Either::L(_) => None,
                })
                .collect();
            Replica {
                correct: sched.is_correct(p),
                log: node.log().to_vec(),
                hash: node.hash(),
                commits,
                client_done: node.client().completed(),
            }
        })
        .collect();
    Record {
        prefix_violation: false,
        events: engine.metrics().events,
        metrics: engine.metrics().clone(),
        replicas,
    }
}

/// The fingerprint two executions of one pass must share: events and
/// every replica's log length and hash.
fn fingerprint(records: &[Record]) -> u64 {
    let mut words = Vec::new();
    for r in records {
        words.push(r.events);
        for rep in &r.replicas {
            words.extend([rep.log.len() as u64, rep.hash]);
        }
    }
    fnv1a(&wire::to_bytes(&words))
}

/// One command's life, seen from outside: the span id is the encoded
/// command word.
struct CmdSpan {
    session: usize,
    word: u64,
    proposer: usize,
    submit: u64,
    /// `(tick, height)` of the commit at the proposer's own replica.
    commit: Option<(u64, u64)>,
}

/// The deterministic figures of one pass.
#[derive(Default)]
struct Figures {
    ticks: u64,
    events: u64,
    cmds: u64,
    heights: u64,
    noops: u64,
    copies: u64,
    /// Submit-to-commit ticks of every submitted command, censored at
    /// the horizon.
    latencies: Vec<u64>,
    censored: u64,
    fail_eligible: u64,
    failed: u64,
    lag_max: u64,
    gap_max: u64,
    discards: u64,
    fingerprint: u64,
}

impl Figures {
    fn metrics(&self, m: &mut Metrics, prefix: &str) {
        let mut put = |name: &str, unit, v| m.put(format!("{prefix}{name}"), unit, v);
        put(
            "cmds_per_kilotick",
            "cmd/kTick",
            self.cmds as f64 * 1000.0 / self.ticks as f64,
        );
        put(
            "latency_p50_ticks",
            "ticks",
            percentile(&self.latencies, 50) as f64,
        );
        put(
            "latency_p99_ticks",
            "ticks",
            percentile(&self.latencies, 99) as f64,
        );
        put("latency_samples", "count", self.latencies.len() as f64);
        put("latency_censored", "count", self.censored as f64);
        put(
            "fail_share",
            "fraction",
            self.failed as f64 / self.fail_eligible.max(1) as f64,
        );
        put(
            "events_per_cmd",
            "events/cmd",
            self.events as f64 / self.cmds.max(1) as f64,
        );
        put("replica_lag_max", "heights", self.lag_max as f64);
        put("service_gap_max_ticks", "ticks", self.gap_max as f64);
        put("generator_lateness_ticks", "ticks", 0.0);
        put("commands_committed", "count", self.cmds as f64);
        put("commands_submitted", "count", self.latencies.len() as f64);
    }
}

/// Checks one session's outputs and folds its figures into `fig`.
fn analyze(
    spec: &LogSpec,
    session: usize,
    input: &SessionInput,
    rec: &Record,
    fig: &mut Figures,
    spans: Option<&mut Vec<CmdSpan>>,
) -> Result<(), String> {
    let n = spec.n;
    let horizon = spec.horizon;
    let queues: Vec<QueueFields> = input.workload.queues(n).iter().map(queue_fields).collect();

    // Commit histories reproduce the logs.
    for (p, r) in rec.replicas.iter().enumerate() {
        let from_history: Vec<u64> = r.commits.iter().map(|c| c.2).collect();
        if from_history != r.log || r.commits.iter().enumerate().any(|(i, c)| c.1 != i as u64) {
            return Err(format!(
                "replica {p}: commit history disagrees with its log"
            ));
        }
    }
    // Every committed client word was generated for its proposer and
    // appears at most once, in sequence order, on every correct log.
    for (r_idx, r) in rec.replicas.iter().enumerate().filter(|(_, r)| r.correct) {
        let mut next = vec![1u32; n];
        for (h, &w) in r.log.iter().enumerate() {
            if is_noop(w) {
                continue;
            }
            let p = proposer_of(w);
            if p >= n {
                return Err(format!(
                    "replica {r_idx} h{h}: word {w:#x} names proposer {p}"
                ));
            }
            let seq = seq_of(w);
            if seq != next[p] {
                return Err(format!(
                    "replica {r_idx} h{h}: proposer {p} seq {seq}, expected {}",
                    next[p]
                ));
            }
            if queues[p].cmds.get(seq as usize - 1) != Some(&w) {
                return Err(format!(
                    "replica {r_idx} h{h}: word {w:#x} was not generated for proposer {p}"
                ));
            }
            next[p] += 1;
        }
    }
    // Prefix agreement among correct replicas.
    if rec.prefix_violation {
        return Err("Session::prefix_violation reported a pair".into());
    }
    let correct: Vec<&Replica> = rec.replicas.iter().filter(|r| r.correct).collect();
    let longest = correct
        .iter()
        .max_by_key(|r| r.log.len())
        .ok_or("no correct replica")?;
    for r in &correct {
        if longest.log[..r.log.len()] != r.log[..] {
            return Err("log prefix disagreement among correct replicas".into());
        }
    }

    // Submit instants and commit instants at the proposer's replica.
    let mut cmd_spans = Vec::new();
    for (p, q) in queues.iter().enumerate() {
        let own: Vec<(u64, u64, u64)> = rec.replicas[p]
            .commits
            .iter()
            .copied()
            .filter(|&(_, _, w)| !is_noop(w) && proposer_of(w) == p)
            .collect();
        if q.proc_idx != p || rec.replicas[p].client_done != own.len() {
            return Err(format!(
                "proposer {p}: client completions disagree with its log"
            ));
        }
        match spec.mean_gap {
            None => {
                let mut submit = 0;
                for &(t, h, w) in &own {
                    cmd_spans.push(CmdSpan {
                        session,
                        word: w,
                        proposer: p,
                        submit,
                        commit: Some((t, h)),
                    });
                    submit = t;
                }
                let pending = *q
                    .cmds
                    .get(own.len())
                    .ok_or_else(|| format!("closed-loop client {p} drained before the horizon"))?;
                cmd_spans.push(CmdSpan {
                    session,
                    word: pending,
                    proposer: p,
                    submit,
                    commit: None,
                });
            }
            Some(_) => {
                if q.arrivals.last().is_none_or(|&a| a <= horizon) {
                    return Err(format!("open-loop client {p} drained before the horizon"));
                }
                let at: BTreeMap<u64, (u64, u64)> =
                    own.iter().map(|&(t, h, w)| (w, (t, h))).collect();
                for (i, &arrival) in q.arrivals.iter().enumerate() {
                    if arrival > horizon {
                        break;
                    }
                    let commit = at.get(&q.cmds[i]).copied();
                    // Arrivals are virtual instants: a command cannot
                    // commit before it arrives, so the generator is
                    // never late.
                    if commit.is_some_and(|(t, _)| t < arrival) {
                        return Err(format!(
                            "command {:#x} committed before it arrived",
                            q.cmds[i]
                        ));
                    }
                    cmd_spans.push(CmdSpan {
                        session,
                        word: q.cmds[i],
                        proposer: p,
                        submit: arrival,
                        commit,
                    });
                }
            }
        }
    }

    for s in &cmd_spans {
        let lat = match s.commit {
            Some((t, _)) => t - s.submit,
            None => {
                fig.censored += 1;
                horizon - s.submit
            }
        };
        fig.latencies.push(lat);
        if s.submit + FAIL_AFTER_TICKS <= horizon {
            fig.fail_eligible += 1;
            if lat > FAIL_AFTER_TICKS {
                fig.failed += 1;
            }
        }
    }

    let min_len = correct.iter().map(|r| r.log.len()).min().unwrap_or(0);
    fig.lag_max = fig.lag_max.max((longest.log.len() - min_len) as u64);
    let mut prev = 0;
    for &(t, _, _) in &longest.commits {
        fig.gap_max = fig.gap_max.max(t - prev);
        prev = t;
    }
    fig.ticks += horizon;
    fig.events += rec.events;
    fig.heights += longest.log.len() as u64;
    fig.noops += longest.log.iter().filter(|&&w| is_noop(w)).count() as u64;
    fig.cmds += longest.log.iter().filter(|&&w| !is_noop(w)).count() as u64;
    fig.discards += rec.metrics.copies_discarded;
    fig.copies += rec.metrics.copies_sent;
    if let Some(out) = spans {
        out.extend(cmd_spans);
    }
    Ok(())
}

fn figures(
    spec: &LogSpec,
    ins: &[SessionInput],
    recs: &[Record],
    mut spans: Option<&mut Vec<CmdSpan>>,
) -> Result<Figures, String> {
    let mut fig = Figures {
        fingerprint: fingerprint(recs),
        ..Figures::default()
    };
    for (i, (input, rec)) in ins.iter().zip(recs).enumerate() {
        analyze(spec, i, input, rec, &mut fig, spans.as_deref_mut())
            .map_err(|e| format!("{} session {i}: {e}", spec.name))?;
    }
    if fig.cmds == 0 {
        return Err(format!("{}: no client command committed", spec.name));
    }
    fig.latencies.sort_unstable();
    Ok(fig)
}

/// Runs one untraced pass; `on_first` sees the first finished session.
fn untraced_pass(
    ins: &[SessionInput],
    mut on_first: impl FnMut(&Session<RsmNode>),
) -> (Duration, Vec<Record>) {
    let mut wall = Duration::ZERO;
    let mut recs = Vec::with_capacity(ins.len());
    for (i, input) in ins.iter().enumerate() {
        let mut session = input.builder.clone().rsm(&input.workload);
        let start = Instant::now();
        session.run();
        wall += start.elapsed();
        let mut rec = record(session.engine());
        rec.prefix_violation = session.prefix_violation().is_some();
        recs.push(rec);
        if i == 0 {
            on_first(&session);
        }
    }
    (wall, recs)
}

/// Time to build a pass's sessions (queue generation and engine
/// construction), as the first build of a fresh process pays it.
pub fn cold_setup(spec: &LogSpec, seed: u64) -> f64 {
    let ins = inputs(spec, seed);
    let start = Instant::now();
    let sessions: Vec<Session<RsmNode>> = ins
        .iter()
        .map(|i| i.builder.clone().rsm(&i.workload))
        .collect();
    let t = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(sessions));
    t
}

/// A timed run: passes until `seconds` are spent, then the held-out
/// seed's pass.
pub fn run_timed(spec: &LogSpec, seed: u64, seconds: u64) -> Result<crate::Outcome, String> {
    let ins = inputs(spec, seed);

    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut setup = SetupSampler::new(spec.name, seed);
    let (wall, recs) = untraced_pass(&ins, |_| {});
    let fig = figures(spec, &ins, &recs, None)?;
    drop(recs);
    let mut walls = vec![wall.as_secs_f64()];
    setup.sample(SetupSampler::PER_REPETITION)?;
    while started.elapsed() < budget {
        let (wall, recs) = untraced_pass(&ins, |_| {});
        walls.push(wall.as_secs_f64());
        setup.sample(SetupSampler::PER_REPETITION)?;
        if fingerprint(&recs) != fig.fingerprint || recs.iter().any(|r| r.prefix_violation) {
            return Err(format!(
                "{}: a repeated pass diverged from the first",
                spec.name
            ));
        }
    }

    let held = inputs(spec, report::held_out(seed));
    let (_, held_recs) = untraced_pass(&held, |_| {});
    let held_fig = figures(spec, &held, &held_recs, None)?;
    drop(held_recs);

    let peak_rss = report::peak_rss_mb();
    let setup = setup.median()?;
    let pass_wall = median(&walls);
    let cmds_per_s = fig.cmds as f64 / pass_wall;
    let mut m = Metrics::default();
    m.put("ops_per_s", "op/s", cmds_per_s);
    m.put(
        "events_per_op",
        "events/op",
        fig.events as f64 / fig.cmds as f64,
    );
    m.put(
        "copies_per_op",
        "copies/op",
        fig.copies as f64 / fig.cmds as f64,
    );
    m.put("setup_s", "s", setup);
    m.put("peak_rss_mb", "MB", peak_rss);
    m.put("cmds_per_s", "cmd/s", cmds_per_s);
    fig.metrics(&mut m, "");
    m.put("passes", "count", walls.len() as f64);
    m.put("pass_wall_s", "s", pass_wall);
    m.put(
        "pass_wall_min_s",
        "s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.put(
        "pass_wall_max_s",
        "s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    m.put("sessions_per_pass", "count", spec.sessions as f64);
    m.put("held_out_seed", "seed", report::held_out(seed) as f64);
    held_fig.metrics(&mut m, "held_out.");

    Ok(crate::Outcome {
        attempted: (fig.latencies.len() * walls.len()) as u64,
        metrics: m,
    })
}

/// One traced iteration: the untraced pass, the traced pass and the
/// recorder-on pass over the same sessions.
struct Iteration {
    untraced_s: f64,
    traced_s: f64,
    recorder_s: f64,
    recorder_events: u64,
    layers: [timed::LayerSpan; 3],
    engine: EngineMetrics,
}

/// The traced run: per-layer figures plus the trace's own overhead.
pub fn run_traced(spec: &LogSpec, seed: u64, seconds: u64) -> Result<crate::Outcome, String> {
    let ins = inputs(spec, seed);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut wire_metrics = None;
    let mut fig = None;
    let mut cmd_spans = Vec::new();
    let mut height_spans = Vec::new();

    while iters.is_empty() || started.elapsed() < budget {
        // Untraced reference (and, once, the wire snapshot).
        let (untraced, recs) = untraced_pass(&ins, |s| {
            if wire_metrics.is_none() {
                wire_metrics = Some(snapshot_round_trip(s, spec.name, seed));
            }
        });
        let reference: Vec<(u64, Vec<u64>)> = recs
            .iter()
            .map(|r| (r.events, r.replicas.iter().map(|x| x.hash).collect()))
            .collect();
        if fig.is_none() {
            fig = Some(figures(spec, &ins, &recs, Some(&mut cmd_spans))?);
            height_spans = recs.iter().enumerate().flat_map(height_spans_of).collect();
        }
        drop(recs);

        // Traced pass.
        timed::reset();
        let mut traced = Duration::ZERO;
        let mut engine = EngineMetrics::default();
        for (i, input) in ins.iter().enumerate() {
            let assign = input.builder.assignment();
            let queues = input.workload.queues(spec.n);
            let mut session = input
                .builder
                .clone()
                .build(move |p, _| traced_rsm_node(&assign, queues[p].clone()));
            session.engine_mut().set_classifier(classify_rsm);
            let start = Instant::now();
            session.run();
            traced += start.elapsed();
            let rec = record(session.engine());
            let hashes: Vec<u64> = rec.replicas.iter().map(|x| x.hash).collect();
            if (rec.events, hashes) != reference[i] {
                return Err(format!(
                    "{} session {i}: the traced run diverged from the untraced run",
                    spec.name
                ));
            }
            timed::add_metrics(&mut engine, &rec.metrics);
        }
        let layers = timed::spans();

        // Recorder-on pass.
        let mut recorder = Duration::ZERO;
        let mut recorder_events = 0;
        for (i, input) in ins.iter().enumerate() {
            let mut session = input
                .builder
                .clone()
                .with_recorder(RECORDER_CAP)
                .rsm(&input.workload);
            let start = Instant::now();
            session.run();
            recorder += start.elapsed();
            let r = session.engine().recorder().expect("recorder attached");
            recorder_events += r.events().len() as u64 + r.dropped();
            if session.engine().metrics().events != reference[i].0 {
                return Err(format!(
                    "{} session {i}: the recorder changed the event count",
                    spec.name
                ));
            }
        }

        iters.push(Iteration {
            untraced_s: untraced.as_secs_f64(),
            traced_s: traced.as_secs_f64(),
            recorder_s: recorder.as_secs_f64(),
            recorder_events,
            layers,
            engine,
        });
    }

    let fig = fig.expect("at least one iteration");
    let it = &iters[median_index(&iters.iter().map(|i| i.traced_s).collect::<Vec<_>>())];
    let untraced = median(&iters.iter().map(|i| i.untraced_s).collect::<Vec<_>>());
    let recorder = median(&iters.iter().map(|i| i.recorder_s).collect::<Vec<_>>());
    let [evt, rsm, byz] = it.layers;
    // Self times partition the traced wall time: the engine's is what
    // the process callbacks leave, the log's excludes its nested
    // per-height engine. Both must come out positive.
    let engine_self = it.traced_s - evt.busy_s() - rsm.busy_s();
    let rsm_self = rsm.busy_s() - byz.busy_s();
    if engine_self <= 0.0 || rsm_self <= 0.0 {
        return Err("layer spans do not nest inside the traced wall time".into());
    }
    let e = &it.engine;
    let mut m = Metrics::default();
    timed::put_engine(&mut m, e, engine_self);
    timed::put_process_layers(&mut m, evt, byz, e, fig.heights);
    m.put("consensus.rsm.calls", "count", rsm.calls as f64);
    m.put("consensus.rsm.self_s", "s", rsm_self);
    m.put("consensus.rsm.heights", "count", fig.heights as f64);
    m.put(
        "consensus.rsm.ticks_per_height",
        "ticks",
        fig.ticks as f64 / fig.heights as f64,
    );
    m.put(
        "consensus.rsm.noop_share",
        "fraction",
        fig.noops as f64 / fig.heights as f64,
    );
    m.put(
        "consensus.rsm.copies_discarded",
        "count",
        fig.discards as f64,
    );
    let wire = wire_metrics.expect("snapshot taken")?;
    m.0.extend(wire.0);
    m.put("obs.recorder.events", "count", it.recorder_events as f64);
    m.put("obs.recorder.overhead", "ratio", recorder / untraced);
    m.put("trace.overhead", "ratio", it.traced_s / untraced);
    m.put("trace.wall_s", "s", it.traced_s);
    m.put("trace.untraced_wall_s", "s", untraced);
    m.put("trace.iterations", "count", iters.len() as f64);
    m.put("layer_share.engine", "fraction", engine_self / it.traced_s);
    m.put("layer_share.evt_hp", "fraction", evt.busy_s() / it.traced_s);
    m.put("layer_share.rsm", "fraction", rsm_self / it.traced_s);
    m.put(
        "layer_share.byz_quorum",
        "fraction",
        byz.busy_s() / it.traced_s,
    );

    write_spans(spec.name, seed, &height_spans, &cmd_spans)?;
    Ok(crate::Outcome {
        attempted: (fig.latencies.len() * iters.len()) as u64,
        metrics: m,
    })
}

/// Per-height spans of one session's most advanced correct replica:
/// `(session, height, start tick, commit tick, command word)`.
fn height_spans_of((session, rec): (usize, &Record)) -> Vec<(usize, u64, u64, u64, u64)> {
    let longest = rec
        .replicas
        .iter()
        .filter(|r| r.correct)
        .max_by_key(|r| r.log.len())
        .expect("a correct replica");
    let mut prev = 0;
    longest
        .commits
        .iter()
        .map(|&(t, h, w)| {
            let span = (session, h, prev, t, w);
            prev = t;
            span
        })
        .collect()
}

/// Writes the per-height and per-command spans kept during the traced
/// run as CSV files under the benchmark's work directory.
fn write_spans(
    name: &str,
    seed: u64,
    heights: &[(usize, u64, u64, u64, u64)],
    cmds: &[CmdSpan],
) -> Result<(), String> {
    let dir = report::work_dir().join("spans");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut out = String::from("session,height,start_tick,commit_tick,word\n");
    for (s, h, a, b, w) in heights {
        let _ = writeln!(out, "{s},{h},{a},{b},{w:#x}");
    }
    let path = dir.join(format!("{name}-seed{seed}-heights.csv"));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    let mut out = String::from("session,word,proposer,submit_tick,commit_tick,commit_height\n");
    for c in cmds {
        let (t, h) = c.commit.map_or((String::new(), String::new()), |(t, h)| {
            (t.to_string(), h.to_string())
        });
        let _ = writeln!(
            out,
            "{},{:#x},{},{},{t},{h}",
            c.session, c.word, c.proposer, c.submit
        );
    }
    let path = dir.join(format!("{name}-seed{seed}-commands.csv"));
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The persistable state of one log replica. `ReplicatedLog` itself has
/// no wire codec, so the snapshot carries its parts that do: the
/// detector, the live height engine, the log, its fingerprint and the
/// client queue.
struct ReplicaState {
    detector: EvtHpProcess,
    engine: ByzQuorumConsensus,
    log: Vec<u64>,
    hash: u64,
    client: CommandQueue,
}

homonym_core::persist_fields!(ReplicaState {
    detector,
    engine,
    log,
    hash,
    client
});

struct LogSessionState {
    metrics: EngineMetrics,
    now: u64,
    replicas: Vec<ReplicaState>,
}

homonym_core::persist_fields!(LogSessionState {
    metrics,
    now,
    replicas
});

/// Container schema of the benchmark's log-session snapshot file.
const SNAPSHOT_SCHEMA: u32 = 0x7065_7266;

/// Snapshots one log session at its horizon and times encode,
/// `write_atomic`, `read_verified` and decode; the round trip must be
/// lossless.
fn snapshot_round_trip(
    session: &Session<RsmNode>,
    name: &str,
    seed: u64,
) -> Result<Metrics, String> {
    let e = session.engine();
    let start = Instant::now();
    let mut s = Saver::new();
    e.metrics().save(&mut s);
    e.now().ticks().save(&mut s);
    s.len(e.n());
    for p in 0..e.n() {
        let node = e.process(p);
        node.lower().save(&mut s);
        node.upper().engine().save(&mut s);
        node.upper().log().to_vec().save(&mut s);
        node.upper().state_hash().save(&mut s);
        node.upper().client().save(&mut s);
    }
    let bytes = s.finish();
    let encode = start.elapsed();

    let dir = report::work_dir().join(format!("snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}-seed{seed}.ck"));
    let start = Instant::now();
    write_atomic(&path, SNAPSHOT_SCHEMA, &bytes).map_err(|e| format!("write_atomic: {e}"))?;
    let write = start.elapsed();
    let file_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let start = Instant::now();
    let payload = read_verified(&path, SNAPSHOT_SCHEMA)
        .map_err(|e| format!("read_verified: {e}"))?
        .ok_or("snapshot file vanished")?;
    let read = start.elapsed();
    let start = Instant::now();
    let state: LogSessionState =
        wire::from_bytes(&payload).map_err(|e| format!("decode: {e:?}"))?;
    let decode = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let lossless = wire::to_bytes(&state) == bytes
        && state.metrics == *e.metrics()
        && state.now == e.now().ticks()
        && state.replicas.len() == e.n()
        && state.replicas.iter().enumerate().all(|(p, r)| {
            let node = e.process(p).upper();
            r.log == node.log() && r.hash == node.state_hash() && r.client == *node.client()
        });
    if !lossless {
        return Err("log-session snapshot round trip is lossy".into());
    }
    let mut m = Metrics::default();
    m.put("core.wire.snapshot_bytes", "bytes", bytes.len() as f64);
    m.put("core.wire.encode_s", "s", encode.as_secs_f64());
    m.put("core.wire.decode_s", "s", decode.as_secs_f64());
    m.put("sim.store.write_atomic_s", "s", write.as_secs_f64());
    m.put("sim.store.read_verified_s", "s", read.as_secs_f64());
    m.put("sim.store.segments", "count", 1.0);
    m.put("sim.store.bytes_written", "bytes", file_bytes as f64);
    Ok(m)
}
