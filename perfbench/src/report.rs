//! Metric records, order statistics and the result lines the runner
//! prints.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// An ordered list of metrics, printed in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, unit, value });
    }

    /// The metrics named in `names`, in that order; panics on a missing
    /// name (every workload must print every listed metric).
    pub fn select(&self, names: &[&str]) -> Metrics {
        Metrics(
            names
                .iter()
                .map(|n| {
                    self.0
                        .iter()
                        .find(|m| m.name == *n)
                        .unwrap_or_else(|| panic!("metric {n} was not measured"))
                        .clone()
                })
                .collect(),
        )
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        out.push('}');
        out
    }

    /// One aligned `name value unit` line per metric.
    pub fn to_table(&self) -> String {
        let width = self.0.iter().map(|m| m.name.len()).max().unwrap_or(0);
        let mut out = String::new();
        for m in &self.0 {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>16}  {}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        out
    }
}

/// A float as JSON: integers without a fraction, everything else with
/// the shortest digits that round-trip.
fn json_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn fmt_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Median of a nonempty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Index of the element holding the (lower) median of `xs`.
pub fn median_index(xs: &[f64]) -> usize {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
    idx[(idx.len() - 1) / 2]
}

/// Nearest-rank percentile `q` (0..=100) of a sorted sample.
pub fn percentile(sorted: &[u64], q: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Fresh processes a run times its set-up in, at least.
const SETUP_PROCESSES: usize = 21;

/// Collects `setup_s`: set-up times of fresh processes, each one this
/// binary run with `--cold-setup 1`, which times the workload's set-up
/// once and prints the seconds. A fresh process is what a user's first
/// build pays; repeated builds inside one long-lived process instead
/// measure the allocator's state, which varies by up to a factor of two
/// over a run. Runs take a few samples after every repetition, so the
/// median spans the whole run rather than one moment of a shared host.
pub struct SetupSampler {
    workload: &'static str,
    seed: u64,
    times: Vec<f64>,
}

impl SetupSampler {
    /// Samples taken after every repetition of a run.
    pub const PER_REPETITION: usize = 5;

    pub fn new(workload: &'static str, seed: u64) -> SetupSampler {
        SetupSampler {
            workload,
            seed,
            times: Vec::new(),
        }
    }

    /// Times the set-up in `count` fresh processes, one after another.
    pub fn sample(&mut self, count: usize) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        for _ in 0..count {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    self.workload,
                    "--seed",
                    &self.seed.to_string(),
                ])
                .args(["--cold-setup", "1"])
                .output()
                .map_err(|e| format!("set-up process: {e}"))?;
            if !out.status.success() {
                return Err(format!("set-up process failed: {}", out.status));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            self.times.push(
                text.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("set-up process printed {text:?}: {e}"))?,
            );
        }
        Ok(())
    }

    /// The median over at least [`SETUP_PROCESSES`] samples (topping up
    /// when the run took fewer).
    pub fn median(mut self) -> Result<f64, String> {
        self.sample(SETUP_PROCESSES.saturating_sub(self.times.len()))?;
        Ok(median(&self.times))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// splitmix64: derives decorrelated sub-seeds from the run seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut x = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The seed nobody tunes against: reported next to the run seed.
pub fn held_out(seed: u64) -> u64 {
    derive(seed, 0x0048_454c_444f_5554) >> 20
}

/// The benchmark's scratch directory, inside the checkout it runs from
/// (ignored by git). Checkpoints go under a per-process subdirectory
/// that is removed before exit; span files stay for inspection.
pub fn work_dir() -> PathBuf {
    PathBuf::from("perfbench").join(".work")
}
