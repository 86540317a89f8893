//! The traced run (`--trace 1`): per-layer metrics for every layer, the
//! same on whichever workload is named.
//!
//! * Each workload runs once untraced and once traced on equal work;
//!   the difference is the tracing overhead (`trace.<w>.overhead_pct`),
//!   and the traced spans give each layer's self time (`self.<w>.*`).
//! * A *ladder* on the `audit` deployment issues one prefix, point and
//!   tid probe set at each layer's public entry point, from the
//!   `MemStore` floor and the storage table up to the `Session`; a
//!   layer's added cost is its rung minus the rung below.
//! * Counts are read from outside the program: storage meters through
//!   `ShardedStore::shard_engine(i).meter()`, `read_trips` /
//!   `read_waves`, and deltas of the `cpdb-obs` instruments the program
//!   registers, each taken around its own section.
//!
//! Spans are written to `.perfbench/trace-<workload>-seed<seed>.jsonl`.

use crate::alloc::allocations;
use crate::audit::{self, Archive};
use crate::curate::{self, Inputs, Pass};
use crate::deploy::{err, timed, Deployment, Res};
use crate::oracle::{self, Verdict};
use crate::serve::{self, RoundPlan, Tenants};
use crate::stats::{median, us, Outcome, Rng};
use crate::trace::{self, Span};
use cpdb_core::{MemStore, ProvRecord, ProvStore, ReadHandle, ShardedStore, SqlStore, Tid};
use cpdb_obs::{HistogramStat, StatsSnapshot};
use cpdb_serve::Consistency;
use cpdb_storage::{Datum, Engine, TableHandle};
use cpdb_tree::Path;
use cpdb_update::AtomicUpdate;
use std::ops::Bound;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::{Duration, Instant};

const LADDER_PREFIXES: usize = 64;
const LADDER_POINTS: usize = 64;
const LADDER_TIDS: usize = 32;
/// Passes over the probe set per rung; the first only warms caches.
const LADDER_PASSES: usize = 3;
const SERVE_ROUNDS: u64 = 20;
const ENQUEUE_BATCHES: usize = 64;
const ENQUEUE_LEN: usize = 16;
const INSERT_CONTAINERS: usize = 128;

fn counter_delta(a: &StatsSnapshot, b: &StatsSnapshot, name: &str) -> f64 {
    let read = |s: &StatsSnapshot| s.counter(name).unwrap_or(0);
    read(b).saturating_sub(read(a)) as f64
}

/// The values a histogram recorded between two snapshots.
fn hist_delta(a: &StatsSnapshot, b: &StatsSnapshot, name: &str) -> HistogramStat {
    let after = b.histogram(name).cloned();
    let before = a.histogram(name).cloned();
    let mut d = after.unwrap_or(HistogramStat {
        name: name.to_owned(),
        count: 0,
        sum: 0,
        max: 0,
        buckets: [0; cpdb_obs::BUCKETS],
    });
    if let Some(before) = before {
        d.count -= before.count;
        d.sum -= before.sum;
        for (x, y) in d.buckets.iter_mut().zip(before.buckets.iter()) {
            *x -= y;
        }
    }
    d
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reports per-call self time (µs) of the named spans of one section.
fn self_times(out: &mut Outcome, section: &str, spans: &[Span], names: &[(&str, &str)]) {
    let t = trace::self_times(spans);
    for (span, metric) in names {
        let (n, _, own) = t.get(span).copied().unwrap_or((0, 0, 0));
        out.metric(&format!("self.{section}.{metric}_us"), ratio(own as f64, n as f64) / 1e3, "us");
    }
}

pub fn run(workload: &str, seed: u64, _seconds: f64, work: &FsPath) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut spans = Vec::new();
    curate_layers(seed, work, &mut out, &mut spans)?;
    audit_layers(seed, work, &mut out, &mut spans)?;
    serve_layers(seed, work, &mut out, &mut spans)?;
    insert_layers(seed, work, &mut out)?;
    out.metric("trace.spans", spans.len() as f64, "count");
    let file = work.parent().unwrap_or(work).join(format!("trace-{workload}-seed{seed}.jsonl"));
    trace::write_jsonl(&file, &spans).map_err(err("write spans"))?;
    eprintln!("perfbench: {} spans written to {}", spans.len(), file.display());
    Ok(out)
}

/// Tracker, editor, XML database, WAL and checkpoint costs on `curate`.
fn curate_layers(seed: u64, work: &FsPath, out: &mut Outcome, spans: &mut Vec<Span>) -> Res<()> {
    let inputs = Inputs::new(seed, curate::STEPS)?;
    let script: Vec<AtomicUpdate> = inputs.wl.script.iter().cloned().collect();
    let steps = script.len() as f64;

    let dir = work.join("layers-curate-0");
    let mut pass = Pass::build(&inputs.wl, &dir)?;
    let before = cpdb_obs::snapshot();
    let (a0, wal0) = (allocations(), pass.dep.wal_meter.syncs());
    let (sync0, cp0) =
        (pass.dep.shard_sum(|m| m.syncs()), pass.dep.shard_sum(|m| m.checkpoint_pages()));
    let plain = curate::replay(&mut pass, &script)?;
    let allocs = allocations() - a0;
    let after = cpdb_obs::snapshot();
    let syncs = pass.dep.wal_meter.syncs() - wal0 + pass.dep.shard_sum(|m| m.syncs()) - sync0;
    let pages = pass.dep.shard_sum(|m| m.checkpoint_pages()) - cp0;
    let batches = hist_delta(&before, &after, "pipeline.batch_records");
    let wal_sync = hist_delta(&before, &after, "wal.sync.latency_ns");
    check_target(&pass, &inputs, out)?;
    close(pass, &dir)?;

    let dir = work.join("layers-curate-1");
    let mut pass = Pass::build(&inputs.wl, &dir)?;
    trace::enable(true);
    let traced = curate::replay(&mut pass, &script);
    trace::enable(false);
    let traced = traced?;
    check_target(&pass, &inputs, out)?;
    close(pass, &dir)?;
    let section = trace::take();

    let commit_total: f64 = traced.commit_us.iter().sum();
    out.metric(
        "storage.syncs_per_commit",
        ratio(syncs as f64, plain.commit_us.len() as f64),
        "count",
    );
    out.metric(
        "storage.checkpoint_pages_per_batch",
        ratio(pages as f64, batches.count as f64),
        "count",
    );
    out.metric("wal.sync_p50_us", wal_sync.p50().unwrap_or(0) as f64 / 1e3, "us");
    out.metric(
        "wal.followers_per_leader",
        ratio(
            counter_delta(&before, &after, "wal.sync.followers"),
            counter_delta(&before, &after, "wal.sync.leaders"),
        ),
        "count",
    );
    out.metric("pipeline.batch_records_mean", batches.mean().unwrap_or(0.0), "count");
    out.metric("xmldb.apply_us", us(traced.apply) / steps, "us");
    out.metric("tracker.track_us", us(traced.track) / steps, "us");
    out.metric(
        "tracker.overhead_pct",
        100.0 * (us(traced.track) + commit_total) / us(traced.apply),
        "%",
    );
    out.metric("alloc.per_tracked_op", allocs as f64 / steps, "count");
    out.metric("trace.curate.overhead_pct", overhead(plain.elapsed, traced.elapsed), "%");
    self_times(
        out,
        "curate",
        &section,
        &[
            ("curate.op", "glue"),
            ("xmldb.apply", "xmldb_apply"),
            ("tracker.track", "tracker_track"),
            ("tracker.commit", "tracker_commit"),
            ("pipeline.flush", "final_drain"),
        ],
    );
    spans.extend(section);
    Ok(())
}

fn overhead(plain: Duration, traced: Duration) -> f64 {
    100.0 * (traced.as_secs_f64() / plain.as_secs_f64() - 1.0)
}

fn check_target(pass: &Pass, inputs: &Inputs, out: &mut Outcome) -> Res<()> {
    let got = pass.editor.target().tree_from_db().map_err(err("read target"))?;
    out.check("target_check", oracle::same_tree(&inputs.expected, &got));
    Ok(())
}

fn close(pass: Pass, dir: &FsPath) -> Res<()> {
    let Pass { dep, editor } = pass;
    drop(editor);
    dep.close()?;
    std::fs::remove_dir_all(dir).map_err(err("remove dir"))
}

/// The probe set every ladder rung issues.
struct ProbeSet {
    containers: Vec<usize>,
    points: Vec<usize>,
    tids: Vec<Tid>,
}

/// Times one rung: every pass issues the whole probe set; samples of
/// the passes after the first are kept and every answer is checked.
#[allow(clippy::too_many_arguments)]
fn rung<T>(
    out: &mut Outcome,
    names: [&str; 3],
    archive: &Archive,
    set: &ProbeSet,
    prefix: impl Fn(&Path) -> Res<T>,
    point: impl Fn(&Path) -> Res<T>,
    tid: impl Fn(Tid) -> Res<T>,
    check: impl Fn(&T, &[ProvRecord]) -> Verdict,
) -> Res<()> {
    let recs = archive.records();
    let (mut p, mut q, mut t) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..LADDER_PASSES {
        let keep = pass > 0;
        for &c in &set.containers {
            let (got, d) = timed(|| prefix(&archive.containers[c]));
            if keep {
                p.push(us(d));
                out.check(
                    "ladder_prefix",
                    check(&got?, &recs[archive.container_ranges[c].clone()]),
                );
            }
        }
        for &i in &set.points {
            let (got, d) = timed(|| point(&recs[i].loc));
            if keep {
                q.push(us(d));
                out.check("ladder_point", check(&got?, std::slice::from_ref(&recs[i])));
            }
        }
        for &id in &set.tids {
            let (got, d) = timed(|| tid(id));
            if keep {
                t.push(us(d));
                let want: Vec<ProvRecord> = recs.iter().filter(|r| r.tid == id).cloned().collect();
                out.check("ladder_tid", check(&got?, &want));
            }
        }
    }
    for (name, samples) in names.iter().zip([p, q, t]) {
        out.metric(name, median(&samples), "us");
    }
    Ok(())
}

// A ladder check: `rung` hands it the probe result as `&T`.
#[allow(clippy::ptr_arg)]
fn same(got: &Vec<ProvRecord>, want: &[ProvRecord]) -> Verdict {
    oracle::same_records(want, got)
}

/// The shard a key routes to under `boundaries` (the benchmark routes
/// table-rung probes itself, as a client of the storage layer would).
fn shard_of(boundaries: &[String], key: &str) -> usize {
    boundaries.iter().filter(|b| b.as_str() <= key).count()
}

fn prefix_bounds(p: &Path) -> (Bound<Vec<Datum>>, Bound<Vec<Datum>>) {
    let (lo, hi) = p.prefix_range_bounds();
    let wrap = |b: Bound<String>| match b {
        Bound::Included(k) => Bound::Included(vec![Datum::str(k)]),
        Bound::Excluded(k) => Bound::Excluded(vec![Datum::str(k)]),
        Bound::Unbounded => Bound::Unbounded,
    };
    (wrap(lo), wrap(hi))
}

/// The ladder, the tree codec, and the read path's counts on `audit`.
fn audit_layers(seed: u64, work: &FsPath, out: &mut Outcome, spans: &mut Vec<Span>) -> Res<()> {
    let archive = Archive::generate(seed, audit::CONTAINERS);
    let dir = work.join("layers-audit");
    audit::build_store(&dir, &archive)?;
    let recs = archive.records();
    let mut rng = Rng::new(seed ^ 0x1add3);
    let set = ProbeSet {
        containers: (0..LADDER_PREFIXES).map(|_| rng.below(archive.containers.len())).collect(),
        points: (0..LADDER_POINTS).map(|_| rng.below(recs.len())).collect(),
        tids: (0..LADDER_TIDS).map(|_| Tid(1 + rng.below(archive.entries.len()) as u64)).collect(),
    };

    // Key codec: encode every record's location, then decode it.
    let (keys, d) = timed(|| recs.iter().map(|r| r.loc.key()).collect::<Vec<String>>());
    out.metric("tree.key_ns_per_record", d.as_nanos() as f64 / recs.len() as f64, "ns");
    let (decoded, d) = timed(|| keys.iter().map(|k| Path::from_key(k)).collect::<Vec<_>>());
    out.metric("tree.from_key_ns_per_row", d.as_nanos() as f64 / recs.len() as f64, "ns");
    let bad = decoded.iter().zip(recs).filter(|(p, r)| p.as_ref().ok() != Some(&r.loc)).count();
    out.check(
        "key_roundtrip",
        if bad == 0 { Ok(()) } else { Err(format!("{bad} keys decode wrong")) },
    );
    drop((keys, decoded));

    // Floor: the same records in a MemStore.
    let mem = MemStore::new();
    mem.insert_batch(recs).map_err(err("memstore load"))?;
    rung(
        out,
        ["memstore.prefix_probe_us", "memstore.point_probe_us", "memstore.tid_probe_us"],
        &archive,
        &set,
        |p| mem.by_loc_prefix(p).map_err(err("probe")),
        |p| mem.by_loc(p).map_err(err("probe")),
        |t| mem.by_tid(t).map_err(err("probe")),
        same,
    )?;
    drop(mem);

    // Storage table, SqlStore and the serial ShardedStore, on a store
    // opened without the executor.
    let serial = ShardedStore::open_disk(dir.join("store")).map_err(err("open serial"))?;
    let shards = serial.shard_count();
    let page_reads: u64 = (0..shards).map(|i| serial.shard_engine(i).meter().page_reads()).sum();
    out.metric("storage.page_reads_per_reopen", page_reads as f64, "count");
    let bounds = serial.boundaries();
    let tables: Vec<Arc<TableHandle>> = (0..shards)
        .map(|i| serial.shard_engine(i).table("Prov").map_err(err("table")))
        .collect::<Res<_>>()?;
    let count = |n: &usize, want: &[ProvRecord]| -> Verdict {
        if *n == want.len() {
            Ok(())
        } else {
            Err(format!("{n} rows, expected {}", want.len()))
        }
    };
    rung(
        out,
        ["storage.range_scan_us", "storage.point_lookup_us", "storage.tid_lookup_us"],
        &archive,
        &set,
        |p| {
            let (lo, hi) = prefix_bounds(p);
            let t = &tables[shard_of(&bounds, &p.key())];
            Ok(t.range_scan("prov_by_loc", lo, hi).map_err(err("range_scan"))?.len())
        },
        |p| {
            let key = p.key();
            let t = &tables[shard_of(&bounds, &key)];
            Ok(t.lookup("prov_by_loc", &[Datum::str(key)]).map_err(err("lookup"))?.len())
        },
        |id| {
            let mut n = 0;
            for t in &tables {
                n += t.lookup("prov_by_tid", &[Datum::U64(id.0)]).map_err(err("lookup"))?.len();
            }
            Ok(n)
        },
        count,
    )?;
    let sql: Vec<Arc<SqlStore>> = (0..shards).map(|i| serial.shard(i)).collect();
    rung(
        out,
        ["sqlstore.prefix_probe_us", "sqlstore.point_probe_us", "sqlstore.tid_probe_us"],
        &archive,
        &set,
        |p| sql[shard_of(&bounds, &p.key())].by_loc_prefix(p).map_err(err("probe")),
        |p| sql[shard_of(&bounds, &p.key())].by_loc(p).map_err(err("probe")),
        |id| {
            let mut v = Vec::new();
            for s in &sql {
                v.extend(s.by_tid(id).map_err(err("probe"))?);
            }
            Ok(v)
        },
        same,
    )?;
    rung(
        out,
        [
            "shard_serial.prefix_probe_us",
            "shard_serial.point_probe_us",
            "shard_serial.tid_probe_us",
        ],
        &archive,
        &set,
        |p| serial.by_loc_prefix(p).map_err(err("probe")),
        |p| serial.by_loc(p).map_err(err("probe")),
        |t| serial.by_tid(t).map_err(err("probe")),
        same,
    )?;
    drop((tables, sql, serial));

    // The served deployment: executor, pipeline, snapshot, session.
    let (dep, session, _) = audit::reopen(&dir, &archive)?;
    let sharded = dep.sharded.clone();
    rung(
        out,
        ["shard.prefix_probe_us", "shard.point_probe_us", "shard.tid_probe_us"],
        &archive,
        &set,
        |p| sharded.by_loc_prefix(p).map_err(err("probe")),
        |p| sharded.by_loc(p).map_err(err("probe")),
        |t| sharded.by_tid(t).map_err(err("probe")),
        same,
    )?;
    let pipe = dep.pipe.clone();
    rung(
        out,
        ["pipeline.prefix_probe_us", "pipeline.point_probe_us", "pipeline.tid_probe_us"],
        &archive,
        &set,
        |p| pipe.by_loc_prefix(p).map_err(err("probe")),
        |p| pipe.by_loc(p).map_err(err("probe")),
        |t| pipe.by_tid(t).map_err(err("probe")),
        same,
    )?;
    let snap = dep.pipe.snapshot_reader();
    rung(
        out,
        ["snapshot.prefix_probe_us", "snapshot.point_probe_us", "snapshot.tid_probe_us"],
        &archive,
        &set,
        |p| ReadHandle::by_loc_prefix(&snap, p).map_err(err("probe")),
        |p| ReadHandle::by_loc(&snap, p).map_err(err("probe")),
        |t| ReadHandle::by_tid(&snap, t).map_err(err("probe")),
        same,
    )?;
    let reads = session.reads();
    let a0 = allocations();
    rung(
        out,
        ["session.prefix_probe_us", "session.point_probe_us", "session.tid_probe_us"],
        &archive,
        &set,
        |p| reads.by_loc_prefix(p).map_err(err("probe")),
        |p| reads.by_loc(p).map_err(err("probe")),
        |t| reads.by_tid(t).map_err(err("probe")),
        same,
    )?;
    let probes = LADDER_PASSES * (LADDER_PREFIXES + LADDER_POINTS + LADDER_TIDS);
    out.metric("alloc.per_probe", (allocations() - a0) as f64 / probes as f64, "count");

    // Provenance queries: read statements per query.
    let engine = session.query_engine();
    let trips0 = dep.sharded.read_trips();
    for &i in &set.points {
        let loc = &recs[i].loc;
        let got = engine.get_hist(loc, archive.tnow).map_err(err("get_hist"))?;
        out.check(
            "get_hist",
            oracle::same_tids("Hist", &archive.oracle.hist(loc, archive.tnow), &got),
        );
    }
    let trips = (dep.sharded.read_trips() - trips0) as f64;
    out.metric("query.read_trips_per_query", trips / set.points.len() as f64, "count");
    drop(engine);

    // The audit mix, untraced then traced on the same operations.
    let mut plain = audit::Samples::default();
    let (stmts0, waves0) = (dep.shard_sum(|m| m.count()), dep.sharded.read_waves());
    audit::mix(&session, &archive, &mut Rng::new(seed), &mut plain, out)?;
    let stmts = (dep.shard_sum(|m| m.count()) - stmts0) as f64;
    let waves = (dep.sharded.read_waves() - waves0) as f64;
    out.metric("storage.statements_per_op", stmts / plain.ops as f64, "count");
    out.metric("shard.read_waves_per_op", waves / plain.ops as f64, "count");
    let mut traced = audit::Samples::default();
    trace::enable(true);
    let r = audit::mix(&session, &archive, &mut Rng::new(seed), &mut traced, out);
    trace::enable(false);
    r?;
    let section = trace::take();
    out.metric("trace.audit.overhead_pct", overhead(plain.busy, traced.busy), "%");
    self_times(
        out,
        "audit",
        &section,
        &[
            ("session.prefix_probe", "prefix_probe"),
            ("session.point_probe", "point_probe"),
            ("query.get_src", "get_src"),
            ("query.get_hist", "get_hist"),
            ("query.get_mod", "get_mod"),
            ("session.drain", "drain"),
        ],
    );
    drop(session);
    drop(dep);
    spans.extend(section);
    std::fs::remove_dir_all(&dir).map_err(err("remove dir"))
}

/// Pipeline, snapshot and session costs under contention on `serve`.
fn serve_layers(seed: u64, work: &FsPath, out: &mut Outcome, spans: &mut Vec<Span>) -> Res<()> {
    let tenants = Tenants::generate(seed);
    let dir = work.join("layers-serve");
    let dep = serve::build(&dir, &tenants)?;
    let mut next_tid = vec![tenants.entries_per_tenant as u64 + 1; serve::TENANTS];
    let shards = dep.sharded.shard_count();
    let per_shard = |dep: &Deployment| -> Vec<u64> {
        (0..shards).map(|i| dep.sharded.shard_engine(i).meter().count()).collect()
    };

    let before = cpdb_obs::snapshot();
    let stmts0 = per_shard(&dep);
    let mut plain = serve::Samples::default();
    for n in 0..SERVE_ROUNDS {
        let plan = RoundPlan::new(seed, n, &mut next_tid, &tenants);
        serve::round(&dep, &tenants, &plan, n, seed, &mut plain, out)?;
    }
    let after = cpdb_obs::snapshot();
    let stmts: Vec<f64> =
        per_shard(&dep).iter().zip(&stmts0).map(|(a, b)| (a - b) as f64).collect();
    let mean = stmts.iter().sum::<f64>() / stmts.len() as f64;
    let max = stmts.iter().copied().fold(0.0, f64::max);
    out.metric("shard.statement_skew", ratio(max, mean), "ratio");
    out.metric(
        "pipeline.flushes_per_ryw_read",
        ratio(counter_delta(&before, &after, "pipeline.flush.explicit"), plain.ryw_us.len() as f64),
        "count",
    );

    let mut traced = serve::Samples::default();
    trace::enable(true);
    let mut r = Ok(());
    for n in SERVE_ROUNDS..2 * SERVE_ROUNDS {
        let plan = RoundPlan::new(seed, n, &mut next_tid, &tenants);
        r = serve::round(&dep, &tenants, &plan, n, seed, &mut traced, out);
        if r.is_err() {
            break;
        }
    }
    trace::enable(false);
    r?;
    let section = trace::take();
    let lag = traced.epoch_lag.iter().sum::<f64>() / traced.epoch_lag.len().max(1) as f64;
    out.metric("snapshot.epoch_lag", lag, "records");
    out.metric("trace.serve.overhead_pct", overhead(plain.wall, traced.wall), "%");
    self_times(
        out,
        "serve",
        &section,
        &[
            ("serve.commit", "commit_glue"),
            ("session.insert_batch", "insert_batch"),
            ("serve.read", "read_glue"),
            ("session.prefix_probe", "prefix_probe"),
            ("query.get_hist", "get_hist"),
        ],
    );
    spans.extend(section);

    // Enqueue cost with and without the archive guard: alternate
    // batches through a session and straight into the pipeline.
    let session = dep.db.session("t0", Consistency::ReadYourWrites).map_err(err("session"))?;
    let (mut guarded, mut direct) = (Vec::new(), Vec::new());
    let mut written = Vec::new();
    for b in 0..ENQUEUE_BATCHES {
        let tid = Tid(next_tid[0]);
        next_tid[0] += 1;
        let parent = Path::single("t0").child("G").child(format!("b{b}"));
        let batch: Vec<ProvRecord> = (0..ENQUEUE_LEN)
            .map(|k| ProvRecord::insert(tid, parent.child(format!("r{k}"))))
            .collect();
        if b % 2 == 0 {
            let (r, d) = timed(|| session.insert_batch(&batch));
            r.map_err(err("insert_batch"))?;
            guarded.push(us(d));
        } else {
            let (r, d) = timed(|| dep.pipe.insert_batch(&batch));
            r.map_err(err("insert_batch"))?;
            direct.push(us(d));
        }
        written.extend(batch);
    }
    let got = session.reads().by_loc_prefix(&Path::single("t0").child("G")).map_err(err("read"))?;
    out.check("quiesced_read", oracle::same_records(&written, &got));
    out.metric("pipeline.enqueue_us", median(&direct), "us");
    out.metric(
        "session.guard_us_per_record",
        (median(&guarded) - median(&direct)) / ENQUEUE_LEN as f64,
        "us",
    );
    drop(session);
    dep.close()?;
    std::fs::remove_dir_all(&dir).map_err(err("remove dir"))
}

/// Insert cost per row at the storage table and at `SqlStore`, on
/// scratch on-disk engines loaded with the same records.
fn insert_layers(seed: u64, work: &FsPath, out: &mut Outcome) -> Res<()> {
    let archive = Archive::generate(seed, INSERT_CONTAINERS);
    let recs = archive.records();
    let rows: Vec<Vec<Datum>> = recs
        .iter()
        .map(|r| {
            vec![
                Datum::U64(r.tid.0),
                Datum::str(r.op.code()),
                Datum::str(r.loc.key()),
                r.src.as_ref().map_or(Datum::Null, |s| Datum::str(s.key())),
            ]
        })
        .collect();

    let dir = work.join("layers-table");
    let engine = Engine::on_disk(&dir).map_err(err("engine"))?;
    SqlStore::create(&engine, true).map_err(err("create"))?;
    let table = engine.table("Prov").map_err(err("table"))?;
    let t = Instant::now();
    for row in &rows {
        table.insert(row).map_err(err("insert"))?;
    }
    out.metric("storage.insert_us_per_row", us(t.elapsed()) / rows.len() as f64, "us");
    let n = table.row_count() as usize;
    out.check("insert_count", if n == rows.len() { Ok(()) } else { Err(format!("{n} rows")) });
    drop((table, engine));
    std::fs::remove_dir_all(&dir).map_err(err("remove dir"))?;

    let dir = work.join("layers-sql");
    let engine = Engine::on_disk(&dir).map_err(err("engine"))?;
    let store = SqlStore::create(&engine, true).map_err(err("create"))?;
    let t = Instant::now();
    for chunk in recs.chunks(crate::deploy::BATCH) {
        store.insert_batch(chunk).map_err(err("insert_batch"))?;
    }
    out.metric("sqlstore.insert_batch_us_per_row", us(t.elapsed()) / recs.len() as f64, "us");
    let got = store.by_loc_prefix(&archive.containers[0]).map_err(err("read"))?;
    out.check(
        "insert_readback",
        oracle::same_records(&recs[archive.container_ranges[0].clone()], &got),
    );
    drop((store, engine));
    std::fs::remove_dir_all(&dir).map_err(err("remove dir"))
}
