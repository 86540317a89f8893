//! cpdb-perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload curate|audit|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report (every metric by name and unit, and
//! attempted/failed counts per operation class), then, as the last
//! line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` the per-layer ones, from
//! a traced run (see `layers.rs`). Scratch data lives under
//! `.perfbench/` in the working directory and is removed on exit.

mod alloc;
mod audit;
mod curate;
mod deploy;
mod layers;
mod oracle;
mod serve;
mod stats;
mod trace;

use stats::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// The end-to-end metrics every workload reports (`--trace 0`).
pub const END_TO_END: [&str; 5] =
    ["setup_s", "peak_rss_mb", "op_p50_us", "get_hist_p50_us", "store_bytes_per_record"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["curate", "audit", "serve"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?} (curate, audit, serve)", args.workload));
    }
    Ok(args)
}

/// Removes the scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn print_metric(m: &Metric) {
    println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload curate|audit|serve --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let scratch = Scratch(work);
    let result = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds, &scratch.0)
    } else {
        match args.workload.as_str() {
            "curate" => curate::run(args.seed, args.seconds, &scratch.0),
            "audit" => audit::run(args.seed, args.seconds, &scratch.0),
            _ => serve::run(args.seed, args.seconds, &scratch.0),
        }
    };
    let out: Outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END, "every workload reports every end-to-end metric");
    }

    println!(
        "workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("operations (attempted / failed):");
    for c in &out.classes {
        let note = if c.failed > 0 && !c.note.is_empty() { c.note } else { "" };
        println!("  {:<26} {:>9} / {:<6} {note}", c.name, c.attempted, c.failed);
    }
    println!("metrics:");
    out.metrics.iter().for_each(print_metric);
    println!("report-only metrics:");
    out.info.iter().for_each(print_metric);
    for m in &out.mismatches {
        println!("MISMATCH {m}");
    }
    let attempted: u64 = out.classes.iter().map(|c| c.attempted).sum();
    let failed: u64 = out.classes.iter().map(|c| c.failed).sum();
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.mismatches.is_empty(),
        attempted.max(1),
        failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
