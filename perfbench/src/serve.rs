//! `serve`: two client threads, closed loop, against [`TENANTS`]
//! preloaded tenant archives on one shared deployment. Every tenant
//! numbers its own transactions from 1.
//!
//! A round is a fixed set of operations. The writer commits
//! [`WRITES`] `insert_batch` transactions of 8–32 records through
//! read-your-writes sessions, rotating over the tenants, into the
//! round's own container of each tenant; half of the records are copies
//! whose `Src` lies in another tenant. The reader runs [`READS`] reads:
//! snapshot prefix probes (of the live container and of a preloaded
//! one), snapshot `get_hist` on preloaded chains, and every 4th read a
//! read-your-writes prefix probe, which must flush the shared pipeline.
//! It also runs one `tenant_tid_audit` per round (see [`TID_AUDIT_NOTE`]).
//! After the round the pipeline is quiesced and every tenant's live
//! container is read back.

use crate::deploy::{err, timed, Deployment, Res};
use crate::oracle::{self, FlatOracle};
use crate::stats::{median, quantile, us, Outcome, Rng};
use crate::trace;
use cpdb_core::{ProvRecord, ProvStore, Tid};
use cpdb_serve::Consistency;
use cpdb_tree::{Label, Path};
use std::collections::BTreeMap;
use std::path::Path as FsPath;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const TENANTS: usize = 8;
const CONTAINERS: usize = 8;
const ENTRIES: usize = 32;
/// Rounds per deployment; a run is whole sessions of this many rounds.
pub const SESSION_ROUNDS: u64 = 100;
pub const WRITES: usize = 32;
pub const READS: usize = 48;

pub const TID_AUDIT_NOTE: &str = "known fault: Database::session hands out an unscoped read \
handle (crates/serve/src/lib.rs), so by_tid returns every tenant's records";

fn tenant(i: usize) -> Path {
    Path::single(format!("t{i}"))
}

/// The preloaded tenants: per tenant, `CONTAINERS × ENTRIES` entries
/// of 8 records, entry `n` written by the tenant's transaction `n + 1`.
pub struct Tenants {
    pub oracles: Vec<FlatOracle>,
    pub entries_per_tenant: usize,
}

impl Tenants {
    pub fn generate(seed: u64) -> Tenants {
        let mut rng = Rng::new(seed ^ 0x5e77e);
        let n = CONTAINERS * ENTRIES;
        let entry = |t: usize, e: usize| {
            tenant(t).child(format!("c{}", e / ENTRIES)).child(format!("e{}", e % ENTRIES))
        };
        let oracles = (0..TENANTS)
            .map(|t| {
                let mut records = Vec::with_capacity(n * 8);
                for e in 0..n {
                    let (path, tid) = (entry(t, e), Tid(e as u64 + 1));
                    records.push(ProvRecord::insert(tid, path.clone()));
                    for f in ["name", "seq", "org", "ev0", "ev1"] {
                        records.push(ProvRecord::insert(tid, path.child(f)));
                    }
                    if e == 0 {
                        records.push(ProvRecord::insert(tid, path.child("x0")));
                    } else {
                        let m = e - 1 - rng.below(e.min(64));
                        let field = if rng.below(2) == 0 { "x0" } else { "name" };
                        records.push(ProvRecord::copy(
                            tid,
                            path.child("x0"),
                            entry(t, m).child(field),
                        ));
                    }
                    let other = (t + 1 + rng.below(TENANTS - 1)) % TENANTS;
                    let src = entry(other, rng.below(n)).child("name");
                    records.push(ProvRecord::copy(tid, path.child("x1"), src));
                }
                FlatOracle::new(Label::new(&format!("t{t}")), records)
            })
            .collect();
        Tenants { oracles, entries_per_tenant: n }
    }

    pub fn all_records(&self) -> Vec<ProvRecord> {
        self.oracles.iter().flat_map(|o| o.records().iter().cloned()).collect()
    }

    /// Tenant `t`'s preloaded container `c`, by a path-segment filter.
    pub fn container(&self, t: usize, c: usize) -> Vec<ProvRecord> {
        let path = tenant(t).child(format!("c{c}"));
        self.oracles[t].records().iter().filter(|r| oracle::under(&r.loc, &path)).cloned().collect()
    }
}

/// Builds a served deployment under `dir` with every tenant preloaded.
pub fn build(dir: &FsPath, tenants: &Tenants) -> Res<Deployment> {
    let roots: Vec<Path> = (0..TENANTS).map(tenant).collect();
    let sharded = Deployment::create_store(dir, &roots)?;
    Deployment::bulk_load(&sharded, &tenants.all_records())?;
    let dep = Deployment::serve(dir, sharded)?;
    for t in 0..TENANTS {
        dep.db.create_archive(format!("t{t}").as_str(), false).map_err(err("archive"))?;
    }
    Ok(dep)
}

/// One round's write transactions, generated before the round starts.
pub struct RoundPlan {
    /// `(tenant, batch)` per transaction, in commit order.
    pub batches: Vec<(usize, Vec<ProvRecord>)>,
    /// Batch key (parent path) → record count.
    pub lens: BTreeMap<String, usize>,
}

impl RoundPlan {
    pub fn new(seed: u64, round: u64, next_tid: &mut [u64], tenants: &Tenants) -> RoundPlan {
        let mut rng = Rng::new(seed.wrapping_mul(7_919).wrapping_add(round));
        let mut batches = Vec::with_capacity(WRITES);
        let mut lens = BTreeMap::new();
        for w in 0..WRITES {
            let t = w % TENANTS;
            let tid = Tid(next_tid[t]);
            next_tid[t] += 1;
            let parent = live(t, round).child(format!("b{w}"));
            let n = rng.range(8, 32);
            let recs = (0..n)
                .map(|k| {
                    let loc = parent.child(format!("r{k}"));
                    if k % 2 == 0 {
                        ProvRecord::insert(tid, loc)
                    } else {
                        let other = (t + 1 + rng.below(TENANTS - 1)) % TENANTS;
                        let e = rng.below(tenants.entries_per_tenant);
                        let src = tenant(other)
                            .child(format!("c{}", e / ENTRIES))
                            .child(format!("e{}", e % ENTRIES))
                            .child("name");
                        ProvRecord::copy(tid, loc, src)
                    }
                })
                .collect();
            lens.insert(parent.to_string(), n);
            batches.push((t, recs));
        }
        RoundPlan { batches, lens }
    }

    pub fn records_of(&self, t: usize) -> Vec<ProvRecord> {
        self.batches
            .iter()
            .filter(|(bt, _)| *bt == t)
            .flat_map(|(_, r)| r.iter().cloned())
            .collect()
    }
}

/// Tenant `t`'s container for round `round`'s writes.
fn live(t: usize, round: u64) -> Path {
    tenant(t).child(format!("L{round}"))
}

/// A read issued by the reader thread, kept for checking after the
/// round so the checks stay out of the measured time.
enum Read {
    Live { got: Vec<ProvRecord>, must_see: Vec<String> },
    Preloaded { t: usize, c: usize, got: Vec<ProvRecord> },
    Hist { t: usize, loc: Path, got: Vec<Tid> },
    TidAudit { t: usize, tid: Tid, got: Vec<ProvRecord> },
}

/// Per-run samples.
#[derive(Default)]
pub struct Samples {
    pub commit_us: Vec<f64>,
    pub snapshot_us: Vec<f64>,
    pub ryw_us: Vec<f64>,
    pub hist_us: Vec<f64>,
    /// `serve.epoch_lag` after each snapshot probe (traced runs only).
    pub epoch_lag: Vec<f64>,
    pub wall: Duration,
    pub ops: u64,
    pub records: u64,
}

/// Runs one round: writer and reader concurrently, then the checks and
/// the quiesced read-back.
pub fn round(
    dep: &Deployment,
    tenants: &Tenants,
    plan: &RoundPlan,
    round: u64,
    seed: u64,
    s: &mut Samples,
    out: &mut Outcome,
) -> Res<()> {
    let acked: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let mut rng = Rng::new(seed.wrapping_mul(104_729).wrapping_add(round));
    let picks: Vec<(usize, usize)> = (0..READS + 1)
        .map(|_| (rng.below(CONTAINERS), rng.below(tenants.entries_per_tenant)))
        .collect();
    let t0 = Instant::now();
    let (writer, reader) = std::thread::scope(|scope| {
        let w = scope.spawn(|| -> Res<Vec<f64>> {
            let mut lat = Vec::with_capacity(WRITES);
            for (w, (t, recs)) in plan.batches.iter().enumerate() {
                let _req = trace::span("serve.commit");
                let session = dep
                    .db
                    .session(format!("t{t}").as_str(), Consistency::ReadYourWrites)
                    .map_err(err("session"))?;
                let (r, d) = timed(|| {
                    let _s = trace::span("session.insert_batch");
                    session.insert_batch(recs)
                });
                r.map_err(err("insert_batch"))?;
                lat.push(us(d));
                acked.lock().map_err(err("acked"))?.push(w);
            }
            Ok(lat)
        });
        let r = scope.spawn(|| -> Res<(Vec<Read>, Samples)> {
            let (mut reads, mut rs) = (Vec::new(), Samples::default());
            for (q, &(c, e)) in picks.iter().enumerate() {
                let t = (q + round as usize) % TENANTS;
                let name = format!("t{t}");
                if q == READS {
                    let _req = trace::span("serve.tid_audit");
                    let session = dep
                        .db
                        .session(name.as_str(), Consistency::Snapshot)
                        .map_err(err("session"))?;
                    let tid = Tid(1 + e as u64);
                    let got = session.reads().by_tid(tid).map_err(err("by_tid"))?;
                    reads.push(Read::TidAudit { t, tid, got });
                    continue;
                }
                let _req = trace::span("serve.read");
                match q % 4 {
                    0 => {
                        let must_see: Vec<String> = acked
                            .lock()
                            .map_err(err("acked"))?
                            .iter()
                            .filter(|&&w| plan.batches[w].0 == t)
                            .map(|&w| live(t, round).child(format!("b{w}")).to_string())
                            .collect();
                        let session = dep
                            .db
                            .session(name.as_str(), Consistency::ReadYourWrites)
                            .map_err(err("session"))?;
                        let (got, d) = timed(|| {
                            let _s = trace::span("session.prefix_probe");
                            session.reads().by_loc_prefix(&live(t, round))
                        });
                        rs.ryw_us.push(us(d));
                        reads.push(Read::Live { got: got.map_err(err("ryw probe"))?, must_see });
                    }
                    1 | 2 => {
                        let session = dep
                            .db
                            .session(name.as_str(), Consistency::Snapshot)
                            .map_err(err("session"))?;
                        let target = if q % 4 == 1 {
                            live(t, round)
                        } else {
                            tenant(t).child(format!("c{c}"))
                        };
                        let (got, d) = timed(|| {
                            let _s = trace::span("session.prefix_probe");
                            session.reads().by_loc_prefix(&target)
                        });
                        rs.snapshot_us.push(us(d));
                        if trace::enabled() {
                            rs.epoch_lag.extend(
                                cpdb_obs::snapshot().gauge("serve.epoch_lag").map(|l| l as f64),
                            );
                        }
                        let got = got.map_err(err("snapshot probe"))?;
                        reads.push(if q % 4 == 1 {
                            Read::Live { got, must_see: Vec::new() }
                        } else {
                            Read::Preloaded { t, c, got }
                        });
                    }
                    _ => {
                        let session = dep
                            .db
                            .session(name.as_str(), Consistency::Snapshot)
                            .map_err(err("session"))?;
                        let loc = tenant(t)
                            .child(format!("c{}", e / ENTRIES))
                            .child(format!("e{}", e % ENTRIES))
                            .child(if e % 4 == 3 { "name" } else { "x0" });
                        let engine = session.query_engine();
                        let (got, d) = timed(|| {
                            let _s = trace::span("query.get_hist");
                            engine.get_hist(&loc, Tid(u64::MAX))
                        });
                        rs.hist_us.push(us(d));
                        reads.push(Read::Hist { t, loc, got: got.map_err(err("get_hist"))? });
                    }
                }
            }
            Ok((reads, rs))
        });
        (w.join(), r.join())
    });
    s.wall += t0.elapsed();
    let lat = writer.map_err(|_| "writer thread panicked".to_owned())??;
    let (reads, rs) = reader.map_err(|_| "reader thread panicked".to_owned())??;
    s.commit_us.extend(lat);
    s.snapshot_us.extend(rs.snapshot_us);
    s.ryw_us.extend(rs.ryw_us);
    s.hist_us.extend(rs.hist_us);
    s.epoch_lag.extend(rs.epoch_lag);
    s.ops += (WRITES + READS + 1) as u64;
    s.records += plan.batches.iter().map(|(_, r)| r.len() as u64).sum::<u64>();
    for _ in 0..WRITES {
        out.op("insert_batch", true);
    }

    for read in reads {
        match read {
            Read::Live { got, must_see, .. } => {
                let class = if must_see.is_empty() { "snapshot_probe" } else { "ryw_probe" };
                out.check(class, oracle::batches_whole(&got, &plan.lens, &must_see));
            }
            Read::Preloaded { t, c, got } => {
                out.check("snapshot_probe", oracle::same_records(&tenants.container(t, c), &got));
            }
            Read::Hist { t, loc, got } => {
                let want = tenants.oracles[t].hist(&loc, Tid(u64::MAX));
                out.check("get_hist", oracle::same_tids("Hist", &want, &got));
            }
            Read::TidAudit { t, tid, got } => {
                let want: Vec<ProvRecord> =
                    tenants.oracles[t].records().iter().filter(|r| r.tid == tid).cloned().collect();
                let ok = oracle::same_records(&want, &got).is_ok();
                out.op("tenant_tid_audit", ok);
                out.class("tenant_tid_audit").note = TID_AUDIT_NOTE;
            }
        }
    }

    dep.pipe.flush().map_err(err("quiesce"))?;
    for t in 0..TENANTS {
        let session = dep
            .db
            .session(format!("t{t}").as_str(), Consistency::Snapshot)
            .map_err(err("session"))?;
        let got = session.reads().by_loc_prefix(&live(t, round)).map_err(err("quiesced read"))?;
        out.check("quiesced_read", oracle::same_records(&plan.records_of(t), &got));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, work: &FsPath) -> Res<Outcome> {
    let tenants = Tenants::generate(seed);
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let (mut setups, mut rates, mut ingest, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut sessions = 0;
    // Whole sessions of SESSION_ROUNDS rounds, each on a freshly
    // preloaded deployment, so the store (and memory) a run reaches
    // does not grow with the machine's speed.
    while sessions == 0 || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("serve-{sessions}"));
        let (dep, d) = timed(|| build(&dir, &tenants));
        let dep = dep?;
        setups.push(d.as_secs_f64());
        let mut next_tid = vec![tenants.entries_per_tenant as u64 + 1; TENANTS];
        let records0 = s.records;
        for n in 0..SESSION_ROUNDS {
            let plan = RoundPlan::new(seed, n, &mut next_tid, &tenants);
            let (wall, ops, records) = (s.wall, s.ops, s.records);
            round(&dep, &tenants, &plan, n, seed, &mut s, &mut out)?;
            let secs = (s.wall - wall).as_secs_f64();
            rates.push((s.ops - ops) as f64 / secs);
            ingest.push((s.records - records) as f64 / secs);
        }
        let expected = (tenants.entries_per_tenant * 8 * TENANTS) as u64 + s.records - records0;
        let held = dep.sharded.len();
        out.verify(if held == expected {
            Ok(())
        } else {
            Err(format!("store holds {held} records, {expected} acknowledged"))
        });
        bytes.push(dep.bytes_per_record());
        dep.close()?;
        std::fs::remove_dir_all(&dir).map_err(err("remove session dir"))?;
        sessions += 1;
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    out.metric("op_p50_us", median(&s.snapshot_us), "us");
    out.metric("get_hist_p50_us", median(&s.hist_us), "us");
    out.metric("store_bytes_per_record", median(&bytes), "bytes");
    out.info("serve_ops_per_s", median(&rates), "ops/s");
    out.info("ingest_records_per_s", median(&ingest), "records/s");
    out.info("snapshot_read_p50_us", median(&s.snapshot_us), "us");
    out.info("ryw_read_p50_us", median(&s.ryw_us), "us");
    out.info("txn_ack_p50_us", median(&s.commit_us), "us");
    out.info("txn_ack_p99_us", quantile(&s.commit_us, 0.99), "us");
    out.info("sessions", sessions as f64, "count");
    Ok(out)
}
