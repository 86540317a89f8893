//! `audit`: one auditor, closed loop, read-only, over a bulk-loaded
//! UniProtKB-like archive far larger than the shard buffer pools.
//!
//! The archive `U` holds [`CONTAINERS`] containers of 16 entries; an
//! entry is a root with field, evidence and cross-reference children
//! (10 records, one per node, one transaction per entry). Cross-
//! reference `x0` copies an earlier entry's `name` or `x0` (so `Hist`
//! and `Src` follow chains inside the archive); `x1` copies from an
//! outside source `S`. Set-up bulk-loads, checkpoints and closes the
//! store (several times; the median is `setup_s`). Each round reopens
//! the deployment (`restart_s`) and runs a fixed mix through a
//! `Snapshot` session: container prefix probes (~160 rows), point
//! probes, `get_src`/`get_hist`, `get_mod` over entry subtrees and one
//! full-archive cursor drain.

use crate::deploy::{err, timed, Deployment, Res};
use crate::oracle::{self, FlatOracle};
use crate::stats::{median, us, Outcome, Rng};
use crate::trace;
use cpdb_core::{ProvRecord, Tid};
use cpdb_serve::{Consistency, Session};
use cpdb_tree::{Label, Path};
use std::path::{Path as FsPath, PathBuf};
use std::time::{Duration, Instant};

pub const ARCHIVE: &str = "U";
pub const CONTAINERS: usize = 1600;
pub const ENTRIES_PER_CONTAINER: usize = 16;
const FIELDS: [&str; 7] = ["name", "seq", "org", "desc", "ev0", "ev1", "ev2"];
const SETUPS: usize = 3;

pub const PREFIX_PROBES: usize = 64;
pub const POINT_PROBES: usize = 64;
const SRC_QUERIES: usize = 32;
const HIST_QUERIES: usize = 32;
const MOD_QUERIES: usize = 16;
const DRAIN_PAGE: usize = 1024;

/// The generated archive: records in path order, with the entry and
/// container layout the probes draw from.
pub struct Archive {
    pub oracle: FlatOracle,
    pub containers: Vec<Path>,
    /// Per container, the range of its records in path order (found
    /// by a path-segment filter over the record list).
    pub container_ranges: Vec<std::ops::Range<usize>>,
    pub entries: Vec<Path>,
    pub tnow: Tid,
}

impl Archive {
    pub fn generate(seed: u64, containers: usize) -> Archive {
        let mut rng = Rng::new(seed ^ 0xa0d17);
        let root = Path::single(ARCHIVE);
        let n = containers * ENTRIES_PER_CONTAINER;
        let entries: Vec<Path> = (0..n)
            .map(|e| {
                root.child(format!("c{}", e / ENTRIES_PER_CONTAINER))
                    .child(format!("e{}", e % ENTRIES_PER_CONTAINER))
            })
            .collect();
        let mut records = Vec::with_capacity(n * (FIELDS.len() + 3));
        for (e, entry) in entries.iter().enumerate() {
            let tid = Tid(e as u64 + 1);
            records.push(ProvRecord::insert(tid, entry.clone()));
            for f in FIELDS {
                records.push(ProvRecord::insert(tid, entry.child(f)));
            }
            let x0 = entry.child("x0");
            if e == 0 {
                records.push(ProvRecord::insert(tid, x0));
            } else {
                let m = e - 1 - rng.below(e.min(4096));
                let field = if rng.below(2) == 0 { "x0" } else { "name" };
                records.push(ProvRecord::copy(tid, x0, entries[m].child(field)));
            }
            let outside: Path = format!("S/db{}/f{e}", rng.below(8)).parse().expect("valid path");
            records.push(ProvRecord::copy(tid, entry.child("x1"), outside));
        }
        let container_paths: Vec<Path> =
            (0..containers).map(|c| root.child(format!("c{c}"))).collect();
        let oracle = FlatOracle::new(Label::new(ARCHIVE), records);
        let recs = oracle.records();
        // Path order keeps each container contiguous; find its bounds
        // by segment comparison.
        let container_ranges = container_paths
            .iter()
            .map(|c| {
                let lo = recs
                    .partition_point(|r| oracle::seg_cmp(&r.loc, c) == std::cmp::Ordering::Less);
                let hi = lo + recs[lo..].iter().take_while(|r| oracle::under(&r.loc, c)).count();
                lo..hi
            })
            .collect();
        Archive {
            oracle,
            containers: container_paths,
            container_ranges,
            entries,
            tnow: Tid(n as u64),
        }
    }

    pub fn records(&self) -> &[ProvRecord] {
        self.oracle.records()
    }

    /// The nodes of entry `e`'s subtree.
    pub fn entry_nodes(&self, e: usize) -> Vec<Path> {
        let entry = &self.entries[e];
        let mut nodes = vec![entry.clone()];
        nodes.extend(FIELDS.iter().chain(&["x0", "x1"]).map(|f| entry.child(*f)));
        nodes
    }
}

/// Builds the store under `dir`: create, bulk-load, checkpoint, close.
pub fn build_store(dir: &FsPath, archive: &Archive) -> Res<()> {
    let store = Deployment::create_store(dir, &archive.containers)?;
    Deployment::bulk_load(&store, archive.records())
}

/// Reopens the deployment and serves its first read.
pub fn reopen(dir: &FsPath, archive: &Archive) -> Res<(Deployment, Session, Duration)> {
    let t = Instant::now();
    let dep = Deployment::reopen(dir)?;
    dep.db.create_archive(ARCHIVE, false).map_err(err("archive"))?;
    let session = dep.db.session(ARCHIVE, Consistency::Snapshot).map_err(err("session"))?;
    let first = &archive.records()[0];
    let got = session.reads().by_loc(&first.loc).map_err(err("first read"))?;
    let elapsed = t.elapsed();
    oracle::same_records(std::slice::from_ref(first), &got)?;
    Ok((dep, session, elapsed))
}

/// Sets the archive up [`SETUPS`] times; returns the last store's
/// directory and the set-up times.
pub fn setup(work: &FsPath, archive: &Archive) -> Res<(PathBuf, Vec<f64>)> {
    let mut times = Vec::new();
    let mut dir = PathBuf::new();
    for i in 0..SETUPS {
        if i > 0 {
            std::fs::remove_dir_all(&dir).map_err(err("remove setup dir"))?;
        }
        dir = work.join(format!("audit-{i}"));
        let (r, d) = timed(|| build_store(&dir, archive));
        r?;
        times.push(d.as_secs_f64());
    }
    Ok((dir, times))
}

/// Latency samples of one or more rounds, in µs.
#[derive(Default)]
pub struct Samples {
    pub prefix: Vec<f64>,
    pub point: Vec<f64>,
    pub src: Vec<f64>,
    pub hist: Vec<f64>,
    pub module: Vec<f64>,
    pub drain_rows_per_s: Vec<f64>,
    pub drain_us: Vec<f64>,
    /// Time inside the mix's operations.
    pub busy: Duration,
    pub ops: u64,
}

/// One round's fixed mix through `session`, every answer checked.
pub fn mix(
    session: &Session,
    archive: &Archive,
    rng: &mut Rng,
    s: &mut Samples,
    out: &mut Outcome,
) -> Res<()> {
    let reads = session.reads();
    let recs = archive.records();
    let op = |s: &mut Samples, d: Duration| {
        s.busy += d;
        s.ops += 1;
        us(d)
    };
    for _ in 0..PREFIX_PROBES {
        let c = rng.below(archive.containers.len());
        let (got, d) = timed(|| {
            let _s = trace::span("session.prefix_probe");
            reads.by_loc_prefix(&archive.containers[c])
        });
        let got = got.map_err(err("prefix probe"))?;
        let x = op(s, d);
        s.prefix.push(x);
        out.check(
            "prefix_probe",
            oracle::same_records(&recs[archive.container_ranges[c].clone()], &got),
        );
    }
    for _ in 0..POINT_PROBES {
        let r = &recs[rng.below(recs.len())];
        let (got, d) = timed(|| {
            let _s = trace::span("session.point_probe");
            reads.by_loc(&r.loc)
        });
        let got = got.map_err(err("point probe"))?;
        let x = op(s, d);
        s.point.push(x);
        out.check("point_probe", oracle::same_records(std::slice::from_ref(r), &got));
    }
    let engine = session.query_engine();
    let tnow = archive.tnow;
    for i in 0..SRC_QUERIES + HIST_QUERIES {
        let e = rng.below(archive.entries.len());
        let loc = archive.entries[e].child(if i % 4 == 3 { "name" } else { "x0" });
        if i < SRC_QUERIES {
            let (got, d) = timed(|| {
                let _s = trace::span("query.get_src");
                engine.get_src(&loc, tnow)
            });
            let got: Vec<Tid> = got.map_err(err("get_src"))?.into_iter().collect();
            let x = op(s, d);
            s.src.push(x);
            let want: Vec<Tid> = archive.oracle.src(&loc, tnow).into_iter().collect();
            out.check("get_src", oracle::same_tids("Src", &want, &got));
        } else {
            let (got, d) = timed(|| {
                let _s = trace::span("query.get_hist");
                engine.get_hist(&loc, tnow)
            });
            let got = got.map_err(err("get_hist"))?;
            let x = op(s, d);
            s.hist.push(x);
            out.check(
                "get_hist",
                oracle::same_tids("Hist", &archive.oracle.hist(&loc, tnow), &got),
            );
        }
    }
    for _ in 0..MOD_QUERIES {
        let nodes = archive.entry_nodes(rng.below(archive.entries.len()));
        let (got, d) = timed(|| {
            let _s = trace::span("query.get_mod");
            engine.get_mod(&nodes, tnow)
        });
        let got: Vec<Tid> = got.map_err(err("get_mod"))?.into_iter().collect();
        let x = op(s, d);
        s.module.push(x);
        out.check(
            "get_mod",
            oracle::same_tids("Mod", &archive.oracle.modified(&nodes, tnow), &got),
        );
    }
    // The drain is timed per page fetch; each page is checked (outside
    // the timed fetches) and dropped, as a streaming consumer would.
    let root = Path::single(ARCHIVE);
    let mut check = oracle::DrainCheck::new(recs);
    let (mut d, mut rows) = (Duration::ZERO, 0usize);
    {
        let _s = trace::span("session.drain");
        let mut cursor = reads.scan_loc_prefix(&root, DRAIN_PAGE).map_err(err("drain"))?;
        loop {
            let (page, t) = timed(|| cursor.next_batch());
            d += t;
            let Some(page) = page.map_err(err("drain"))? else { break };
            rows += page.len();
            check.page(&page);
        }
    }
    let x = op(s, d);
    s.drain_us.push(x);
    s.drain_rows_per_s.push(rows as f64 / d.as_secs_f64());
    out.check("drain", check.finish());
    Ok(())
}

pub fn run(seed: u64, seconds: f64, work: &FsPath) -> Res<Outcome> {
    let archive = Archive::generate(seed, CONTAINERS);
    let (dir, setups) = setup(work, &archive)?;
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let (mut restarts, mut page_reads) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut round = 0u64;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        let (dep, session, restart) = reopen(&dir, &archive)?;
        out.op("reopen", true);
        restarts.push(restart.as_secs_f64());
        page_reads.push(dep.shard_sum(|m| m.page_reads()) as f64);
        let mut rng = Rng::new(seed.wrapping_mul(1_000_003).wrapping_add(round));
        mix(&session, &archive, &mut rng, &mut s, &mut out)?;
        drop(session);
        drop(dep);
        round += 1;
    }
    let bytes = crate::stats::dir_bytes(&dir) as f64 / archive.records().len() as f64;
    // The mix's duration at each class's median latency.
    let mix_us = PREFIX_PROBES as f64 * median(&s.prefix)
        + POINT_PROBES as f64 * median(&s.point)
        + SRC_QUERIES as f64 * median(&s.src)
        + HIST_QUERIES as f64 * median(&s.hist)
        + MOD_QUERIES as f64 * median(&s.module)
        + median(&s.drain_us);
    let mix_ops =
        (PREFIX_PROBES + POINT_PROBES + SRC_QUERIES + HIST_QUERIES + MOD_QUERIES + 1) as f64;
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    out.metric("op_p50_us", median(&s.prefix), "us");
    out.metric("get_hist_p50_us", median(&s.hist), "us");
    out.metric("store_bytes_per_record", bytes, "bytes");
    out.info("audit_ops_per_s", mix_ops * 1e6 / mix_us, "ops/s");
    out.info("prefix_probe_p50_us", median(&s.prefix), "us");
    out.info("point_probe_p50_us", median(&s.point), "us");
    out.info("get_src_p50_us", median(&s.src), "us");
    out.info("get_hist_p50_us", median(&s.hist), "us");
    out.info("get_mod_p50_us", median(&s.module), "us");
    out.info("audit_rows_per_s", median(&s.drain_rows_per_s), "rows/s");
    out.info("restart_s", median(&restarts), "s");
    out.info("page_reads_per_reopen", median(&page_reads), "count");
    out.info("archive_records", archive.records().len() as f64, "count");
    out.info("rounds", round as f64, "count");
    Ok(out)
}
