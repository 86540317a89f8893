//! Small measurement helpers: a seeded RNG, quantiles, process memory,
//! on-disk size, and the metric/outcome types every workload returns.

use std::path::Path as FsPath;
use std::time::Duration;

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// `--seed` and nothing else.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Nearest-rank quantile of `samples` (`q` in `0..=1`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &FsPath) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Attempted and failed operations of one operation class.
#[derive(Clone, Debug, Default)]
pub struct OpClass {
    pub name: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Why the class fails, when it fails by a known fault.
    pub note: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub classes: Vec<OpClass>,
    /// Operation outputs that disagreed with their oracle (outside the
    /// known-fault class). Any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Metrics in the JSON result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed in the report only.
    pub info: Vec<Metric>,
}

impl Outcome {
    pub fn class(&mut self, name: &'static str) -> &mut OpClass {
        if let Some(i) = self.classes.iter().position(|c| c.name == name) {
            return &mut self.classes[i];
        }
        self.classes.push(OpClass { name, ..OpClass::default() });
        self.classes.last_mut().expect("just pushed")
    }

    /// Counts one operation of `class`; `ok` false counts it failed.
    pub fn op(&mut self, class: &'static str, ok: bool) {
        let c = self.class(class);
        c.attempted += 1;
        if !ok {
            c.failed += 1;
        }
    }

    /// Records an oracle verdict for an operation that must not fail.
    pub fn check(&mut self, class: &'static str, verdict: Result<(), String>) {
        self.op(class, true);
        if let Err(e) = verdict {
            if self.mismatches.len() < 16 {
                self.mismatches.push(format!("{class}: {e}"));
            }
        }
    }

    /// Records a whole-run property check that is not an operation.
    pub fn verify(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            self.mismatches.push(e);
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push(Metric { name: name.to_owned(), value, unit });
    }
}
