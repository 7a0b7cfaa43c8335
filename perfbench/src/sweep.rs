//! The `sweep_byz` workload: a `SweepConfig::byzantine` checkpointed
//! falsification sweep of the Byzantine-tolerant stack, with
//! prefix-sharing variants per scenario.
//!
//! Timed runs price the checkpointed driver a researcher runs. Every
//! run first checks that the flat, forked and checkpointed drivers give
//! identical reports with no in-bound counterexample. The traced run
//! re-executes the sweep's flat run list through `SessionBuilder` with
//! the timed stack to price the process layers, and times the drivers
//! and the checkpoint files separately.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use homonym_chaos::checkpoint::{
    checkpointed_falsification_sweep, CheckpointConfig, MANIFEST_SCHEMA, SEGMENT_SCHEMA,
};
use homonym_chaos::generators::fault_window_variants;
use homonym_chaos::scenario::Scenario;
use homonym_chaos::session::SessionBuilder;
use homonym_chaos::sweep::{
    falsification_sweep, falsification_sweep_forked, parallel_seed_sweep, ByzTolerantNode,
    StackKind, SweepConfig, SweepReport,
};
use homonym_core::identity::IdentityAssignment;
use homonym_core::time::{Span, Time};
use homonym_core::wire;
use homonym_sim::engine::Metrics as EngineMetrics;
use homonym_sim::snapshot::EngineSnapshot;
use homonym_sim::store::{read_verified, write_atomic};

use crate::report::{self, median, Metrics, SetupSampler};
use crate::timed::{self, classify_byz, traced_byz_node};

/// Base scenarios per sweep; each expands into [`VARIANTS`] runs.
const SCENARIOS: usize = 256;
/// Prefix-sharing variants per base scenario.
const VARIANTS: usize = 8;
/// Ticks after the clean instant a run gets to decide. With the default
/// (30 000) the never-clean scenarios, which always run to their
/// deadline, make about three quarters of the sweep's cost; 2 500 ticks
/// lets a run afford four times more scenarios and is a stricter
/// liveness demand on every eventually-clean run.
const DECISION_MARGIN_TICKS: u64 = 2_500;
/// Recorder capacity of the recorder-on re-execution.
const RECORDER_CAP: usize = 1 << 20;
/// Container schema of the benchmark's engine-snapshot file.
const SNAPSHOT_SCHEMA: u32 = 0x7377_6570;

/// Scenario windows a run seed can select. Scenario `i` of a sweep uses
/// seed `base_seed + i` and the `i mod 6`-th family of the rotation, so
/// the window starts at `1 + 6 · (seed mod WINDOWS)` to keep each
/// scenario seed paired with the same family. About one scenario group
/// in twenty never decides and runs to its deadline at roughly ten times
/// the cost of the rest, so fully independent draws would move events
/// per run by ±10% and runs/s by ±15% with the seed; windows that share
/// at least 80% of their scenarios keep that draw out of the figures
/// while each seed still runs its own input.
const WINDOWS: u64 = 8;

/// The held-out seed's windows start here, disjoint from every run
/// seed's window.
const HELD_OUT_BASE: u64 = 1 << 20;

fn config(base_seed: u64) -> SweepConfig {
    let mut cfg = SweepConfig::byzantine(StackKind::ByzTolerant, SCENARIOS).with_variants(VARIANTS);
    cfg.base_seed = base_seed;
    cfg.decision_margin = Span::from_ticks(DECISION_MARGIN_TICKS);
    cfg
}

fn window(seed: u64) -> u64 {
    let families = SweepConfig::byzantine(StackKind::ByzTolerant, 1)
        .families
        .len() as u64;
    families * (seed % WINDOWS)
}

fn run_config(seed: u64) -> SweepConfig {
    config(1 + window(seed))
}

fn held_out_config(seed: u64) -> SweepConfig {
    config(HELD_OUT_BASE + window(report::held_out(seed)))
}

/// One planned scenario run: the sweep's own expansion of base
/// scenarios into variants (pre-heal probes aside).
struct Run {
    seed: u64,
    scenario: Scenario,
}

fn plan(cfg: &SweepConfig) -> Vec<Run> {
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let mut runs = Vec::with_capacity(cfg.scenarios * cfg.variants);
    for i in 0..cfg.scenarios {
        let seed = cfg.base_seed + i as u64;
        let family = cfg.families[i % cfg.families.len()];
        let base = family.generate(&assign, seed);
        for scenario in fault_window_variants(&base, seed, cfg.variants) {
            runs.push(Run { seed, scenario });
        }
    }
    runs
}

/// The session of one planned run, with the sweep's deadline (clean
/// instant plus the decision margin).
fn builder(cfg: &SweepConfig, run: &Run) -> SessionBuilder {
    let b = SessionBuilder::new(cfg.n, cfg.l)
        .with_seed(run.seed)
        .with_scenario(run.scenario.clone());
    let deadline: Time = b.stability_instant() + cfg.decision_margin;
    b.with_deadline(deadline)
}

/// Removes the directory it names when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = report::work_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// In-bound counterexamples: safety or liveness violations the tolerant
/// stack claims cannot happen.
fn in_bound_failures(r: &SweepReport) -> usize {
    r.safety_counterexamples.len() + r.liveness_counterexamples.len()
}

fn check_report(what: &str, r: &SweepReport, reference: &SweepReport) -> Result<(), String> {
    if r != reference {
        return Err(format!(
            "sweep_byz: the {what} report differs from the flat report"
        ));
    }
    if in_bound_failures(r) > 0 {
        return Err(format!(
            "sweep_byz: in-bound counterexample: {:?}",
            r.first_counterexample()
        ));
    }
    Ok(())
}

/// Runs the checkpointed driver into a fresh directory under `scratch`.
fn checkpointed(
    cfg: &SweepConfig,
    scratch: &Path,
    k: usize,
    reference: &SweepReport,
) -> Result<(Duration, PathBuf), String> {
    let dir = scratch.join(format!("run{k}"));
    let start = Instant::now();
    let (report, stats) = checkpointed_falsification_sweep(cfg, &CheckpointConfig::new(&dir))
        .map_err(|e| format!("checkpointed sweep: {e}"))?;
    let wall = start.elapsed();
    check_report("checkpointed", &report, reference)?;
    if stats.groups_executed != SCENARIOS as u64 || stats.groups_resumed != 0 {
        return Err(format!(
            "sweep_byz: a fresh directory resumed groups: {stats:?}"
        ));
    }
    Ok((wall, dir))
}

/// Time to plan the sweep (expand the run list and fingerprint the
/// configuration), as the first plan of a fresh process pays it.
pub fn cold_setup(seed: u64) -> f64 {
    let cfg = run_config(seed);
    let start = Instant::now();
    let runs = plan(&cfg);
    let fingerprint = cfg.fingerprint();
    let t = start.elapsed().as_secs_f64();
    std::hint::black_box((runs, fingerprint));
    t
}

fn report_metrics(m: &mut Metrics, prefix: &str, r: &SweepReport) {
    let mut put = |name: &str, v: usize| m.put(format!("{prefix}{name}"), "count", v as f64);
    put("runs", r.runs);
    put("liveness_held", r.liveness_held);
    put("liveness_excused", r.liveness_excused);
    put("byzantine_demonstrated", r.byzantine_demonstrated.len());
    put("byzantine_survived", r.byzantine_survived);
    put("probes", r.probes);
    m.put(
        format!("{prefix}fail_share"),
        "fraction",
        in_bound_failures(r) as f64 / r.runs as f64,
    );
}

/// A timed run of the checkpointed driver.
pub fn run_timed(seed: u64, seconds: u64) -> Result<crate::Outcome, String> {
    let cfg = run_config(seed);
    let started = Instant::now();
    let flat = falsification_sweep(&cfg);
    check_report("flat", &flat, &flat)?;
    check_report("forked", &falsification_sweep_forked(&cfg), &flat)?;

    let scratch = Scratch::new("ck");
    let mut setup = SetupSampler::new("sweep_byz", seed);
    let mut walls = Vec::new();
    while walls.len() < 3 || started.elapsed() < Duration::from_secs(seconds) {
        let (wall, dir) = checkpointed(&cfg, &scratch.0, walls.len(), &flat)?;
        let _ = std::fs::remove_dir_all(dir);
        walls.push(wall.as_secs_f64());
        setup.sample(SetupSampler::PER_REPETITION)?;
    }

    // Engine events and copies per scenario run, from the flat run list
    // re-executed through sessions (the sweep report carries no counts).
    let runs = plan(&cfg);
    let (events, copies) = parallel_seed_sweep(runs.len(), |i| {
        let mut session = builder(&cfg, &runs[i as usize]).byz_tolerant();
        session.run();
        let m = session.engine().metrics();
        (m.events, m.copies_sent)
    })
    .into_iter()
    .fold((0, 0), |(e, c), (de, dc)| (e + de, c + dc));

    let held_cfg = held_out_config(seed);
    let held = falsification_sweep_forked(&held_cfg);
    if in_bound_failures(&held) > 0 {
        return Err(format!(
            "sweep_byz held-out seed: in-bound counterexample: {:?}",
            held.first_counterexample()
        ));
    }

    let peak_rss = report::peak_rss_mb();
    let setup = setup.median()?;
    let runs_per_s = flat.runs as f64 / median(&walls);
    let mut m = Metrics::default();
    m.put("ops_per_s", "op/s", runs_per_s);
    m.put(
        "events_per_op",
        "events/op",
        events as f64 / runs.len() as f64,
    );
    m.put(
        "copies_per_op",
        "copies/op",
        copies as f64 / runs.len() as f64,
    );
    m.put("setup_s", "s", setup);
    m.put("peak_rss_mb", "MB", peak_rss);
    m.put("sweep_runs_per_s", "runs/s", runs_per_s);
    report_metrics(&mut m, "", &flat);
    m.put("sweeps", "count", walls.len() as f64);
    m.put("sweep_wall_s", "s", median(&walls));
    m.put(
        "sweep_wall_min_s",
        "s",
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.put(
        "sweep_wall_max_s",
        "s",
        walls.iter().copied().fold(0.0, f64::max),
    );
    m.put(
        "worker_threads",
        "count",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    m.put("base_seed", "seed", cfg.base_seed as f64);
    m.put("held_out.base_seed", "seed", held_cfg.base_seed as f64);
    report_metrics(&mut m, "held_out.", &held);
    Ok(crate::Outcome {
        attempted: (flat.runs * walls.len()) as u64,
        metrics: m,
    })
}

/// Events and decisions of one re-executed run: what the traced
/// re-execution must reproduce.
type RunPrint = (u64, Vec<Option<(Time, u64)>>);

/// The traced run: driver timings, the flat run list re-executed with
/// the timed stack, and the checkpoint and snapshot files.
pub fn run_traced(seed: u64, seconds: u64) -> Result<crate::Outcome, String> {
    let cfg = run_config(seed);
    let runs = plan(&cfg);
    let assign = IdentityAssignment::round_robin(cfg.n, cfg.l);
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let scratch = Scratch::new("trace");

    let (mut flat_s, mut forked_s, mut ck_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut untraced_s, mut traced_s, mut recorder_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_iters = Vec::new();
    let mut recorder_events = 0;
    let mut store = None;
    let mut wire_metrics = None;
    let mut flat_report = SweepReport::default();

    while flat_s.is_empty() || started.elapsed() < budget {
        let start = Instant::now();
        let flat = falsification_sweep(&cfg);
        flat_s.push(start.elapsed().as_secs_f64());
        check_report("flat", &flat, &flat)?;
        let start = Instant::now();
        let forked = falsification_sweep_forked(&cfg);
        forked_s.push(start.elapsed().as_secs_f64());
        check_report("forked", &forked, &flat)?;
        let (wall, dir) = checkpointed(&cfg, &scratch.0, ck_s.len(), &flat)?;
        ck_s.push(wall.as_secs_f64());
        if store.is_none() {
            store = Some(replay_checkpoint(&dir, &scratch.0.join("replay"))?);
        }
        let _ = std::fs::remove_dir_all(dir);
        flat_report = flat;

        // Untraced re-execution (and, once, the engine snapshot).
        let mut wall = Duration::ZERO;
        let mut reference: Vec<RunPrint> = Vec::with_capacity(runs.len());
        for run in &runs {
            let mut session = builder(&cfg, run).byz_tolerant();
            let start = Instant::now();
            session.run();
            wall += start.elapsed();
            if wire_metrics.is_none() {
                wire_metrics = Some(snapshot_round_trip(
                    &session.engine().snapshot(),
                    &scratch.0,
                ));
            }
            reference.push((
                session.engine().metrics().events,
                session.decisions().to_vec(),
            ));
        }
        untraced_s.push(wall.as_secs_f64());

        // Traced re-execution.
        timed::reset();
        let mut wall = Duration::ZERO;
        let mut engine = EngineMetrics::default();
        for (run, expect) in runs.iter().zip(&reference) {
            let a = assign.clone();
            let mut session =
                builder(&cfg, run).build(move |p, _| traced_byz_node(100 + p as u64, &a));
            session.engine_mut().set_classifier(classify_byz);
            let start = Instant::now();
            session.run();
            wall += start.elapsed();
            let print = (
                session.engine().metrics().events,
                session.decisions().to_vec(),
            );
            if print != *expect {
                return Err("sweep_byz: the traced run diverged from the untraced run".into());
            }
            timed::add_metrics(&mut engine, session.engine().metrics());
        }
        traced_s.push(wall.as_secs_f64());
        traced_iters.push((wall.as_secs_f64(), timed::spans(), engine));

        // Recorder-on re-execution.
        let mut wall = Duration::ZERO;
        recorder_events = 0;
        for (run, expect) in runs.iter().zip(&reference) {
            let mut session = builder(&cfg, run)
                .with_recorder(RECORDER_CAP)
                .byz_tolerant();
            let start = Instant::now();
            session.run();
            wall += start.elapsed();
            let r = session.engine().recorder().expect("recorder attached");
            recorder_events += r.events().len() as u64 + r.dropped();
            if session.engine().metrics().events != expect.0 {
                return Err("sweep_byz: the recorder changed the event count".into());
            }
        }
        recorder_s.push(wall.as_secs_f64());
    }

    let idx = report::median_index(&traced_s);
    let (wall, [evt, _, byz], engine) = &traced_iters[idx];
    let engine_self = wall - evt.busy_s() - byz.busy_s();
    if engine_self <= 0.0 {
        return Err("sweep_byz: layer spans exceed the traced wall time".into());
    }
    let untraced = median(&untraced_s);
    let mut m = Metrics::default();
    timed::put_engine(&mut m, engine, engine_self);
    timed::put_process_layers(&mut m, *evt, *byz, engine, runs.len() as u64);
    m.0.extend(wire_metrics.expect("snapshot taken")?.0);
    m.0.extend(store.expect("checkpoint replayed").0);
    m.put("obs.recorder.events", "count", recorder_events as f64);
    m.put(
        "obs.recorder.overhead",
        "ratio",
        median(&recorder_s) / untraced,
    );
    m.put("trace.overhead", "ratio", wall / untraced);
    m.put("trace.wall_s", "s", *wall);
    m.put("trace.untraced_wall_s", "s", untraced);
    m.put("trace.iterations", "count", traced_s.len() as f64);
    m.put("chaos.sweep.runs", "count", flat_report.runs as f64);
    m.put("chaos.sweep.flat_s", "s", median(&flat_s));
    m.put("chaos.sweep.forked_s", "s", median(&forked_s));
    m.put(
        "chaos.checkpoint.overhead_s",
        "s",
        median(&ck_s) - median(&forked_s),
    );
    m.put("chaos.checkpoint.checkpointed_s", "s", median(&ck_s));
    m.put("layer_share.engine", "fraction", engine_self / wall);
    m.put("layer_share.evt_hp", "fraction", evt.busy_s() / wall);
    m.put("layer_share.byz_quorum", "fraction", byz.busy_s() / wall);
    Ok(crate::Outcome {
        attempted: (flat_report.runs * flat_s.len()) as u64,
        metrics: m,
    })
}

/// Prices the checkpoint's store work: counts the files the
/// checkpointed driver wrote in `dir`, then reads each back through
/// `read_verified` and writes it again through `write_atomic` into
/// `replay`.
fn replay_checkpoint(dir: &Path, replay: &Path) -> Result<Metrics, String> {
    std::fs::create_dir_all(replay).map_err(|e| format!("create {}: {e}", replay.display()))?;
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ck"))
        .collect();
    files.sort();
    let (mut bytes, mut read, mut write) = (0u64, Duration::ZERO, Duration::ZERO);
    for path in &files {
        let schema = if path.file_name().is_some_and(|f| f == "manifest.ck") {
            MANIFEST_SCHEMA
        } else {
            SEGMENT_SCHEMA
        };
        bytes += std::fs::metadata(path).map_err(|e| e.to_string())?.len();
        let start = Instant::now();
        let payload = read_verified(path, schema)
            .map_err(|e| format!("read_verified {}: {e}", path.display()))?
            .ok_or("checkpoint file vanished")?;
        read += start.elapsed();
        let target = replay.join(path.file_name().expect("file name"));
        let start = Instant::now();
        write_atomic(&target, schema, &payload).map_err(|e| format!("write_atomic: {e}"))?;
        write += start.elapsed();
    }
    if files.len() != SCENARIOS + 1 {
        return Err(format!(
            "sweep_byz: expected {} checkpoint files, found {}",
            SCENARIOS + 1,
            files.len()
        ));
    }
    let mut m = Metrics::default();
    m.put("sim.store.write_atomic_s", "s", write.as_secs_f64());
    m.put("sim.store.read_verified_s", "s", read.as_secs_f64());
    m.put("sim.store.segments", "count", files.len() as f64);
    m.put("sim.store.bytes_written", "bytes", bytes as f64);
    Ok(m)
}

/// Encodes one run's complete engine snapshot, stores and reloads it,
/// and checks the round trip re-encodes to the same bytes.
fn snapshot_round_trip(
    snap: &EngineSnapshot<ByzTolerantNode>,
    scratch: &Path,
) -> Result<Metrics, String> {
    let start = Instant::now();
    let bytes = wire::to_bytes(snap);
    let encode = start.elapsed();
    std::fs::create_dir_all(scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let path = scratch.join("engine-snapshot.ck");
    write_atomic(&path, SNAPSHOT_SCHEMA, &bytes).map_err(|e| format!("write_atomic: {e}"))?;
    let payload = read_verified(&path, SNAPSHOT_SCHEMA)
        .map_err(|e| format!("read_verified: {e}"))?
        .ok_or("snapshot file vanished")?;
    let start = Instant::now();
    let decoded: EngineSnapshot<ByzTolerantNode> =
        wire::from_bytes(&payload).map_err(|e| format!("decode: {e:?}"))?;
    let decode = start.elapsed();
    if wire::to_bytes(&decoded) != bytes || decoded.events() != snap.events() {
        return Err("sweep_byz: engine snapshot round trip is lossy".into());
    }
    let mut m = Metrics::default();
    m.put("core.wire.snapshot_bytes", "bytes", bytes.len() as f64);
    m.put("core.wire.encode_s", "s", encode.as_secs_f64());
    m.put("core.wire.decode_s", "s", decode.as_secs_f64());
    Ok(m)
}
