//! `curate`: one curator, closed loop, replaying the paper's seeded
//! `Mix` script (Table 2) with the hierarchical-transactional strategy,
//! committing every 10 operations, through an `Editor` bound to a
//! read-your-writes session's archive-guarded store.
//!
//! A run is whole passes: each pass sets up a fresh deployment (the
//! set-up time), replays the script (the measured part: tracked
//! operations, commits and the final drain), then checks the target
//! against the formal-semantics replay and the provenance store across
//! a restart. After the passes, a small script runs through the same
//! stack and its `Src`/`Hist`/`Mod` answers are checked against the
//! paper's Datalog rules.

use crate::deploy::{err, timed, Deployment, Res};
use crate::oracle;
use crate::stats::{median, quantile, us, Outcome, Rng};
use crate::trace;
use cpdb_core::{rules, Editor, ProvRecord, ProvStore, ReadHandle, Strategy, Tid};
use cpdb_serve::Consistency;
use cpdb_storage::Engine;
use cpdb_tree::{Path, Tree};
use cpdb_update::AtomicUpdate;
use cpdb_workload::{generate, DeletionPattern, GenConfig, UpdatePattern, Workload};
use cpdb_xmldb::XmlDb;
use std::path::Path as FsPath;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const STEPS: usize = 14_000;
pub const TXN: usize = 10;
/// `get_hist` locations per pass, drawn afresh each pass so a run's
/// median spans thousands of distinct nodes, not one small sample.
const HIST_SAMPLES: usize = 256;
const DRAIN_PAGE: usize = 4096;

/// The generated inputs of one run.
pub struct Inputs {
    pub wl: Workload,
    /// The target after a formal-semantics (`Workspace`) replay.
    pub expected: Tree,
    /// Every node of the target after the replay.
    pub paths: Vec<Path>,
}

impl Inputs {
    pub fn new(seed: u64, steps: usize) -> Res<Inputs> {
        let wl = generate(&GenConfig::for_length(UpdatePattern::Mix, steps, seed), steps);
        let mut ws = wl.workspace();
        ws.apply_script(&wl.script).map_err(err("workspace replay"))?;
        let root = ws.target().root_path();
        let paths = ws.target().root().all_paths(&root);
        Ok(Inputs { expected: ws.target().root().clone(), wl, paths })
    }
}

/// A fresh deployment with the curator's editor bound to it.
pub struct Pass {
    pub dep: Deployment,
    pub editor: Editor,
}

impl Pass {
    pub fn build(wl: &Workload, dir: &FsPath) -> Res<Pass> {
        let target = XmlDb::create(wl.target_name, &Engine::in_memory()).map_err(err("target"))?;
        target.load(&wl.target_initial).map_err(err("load target"))?;
        let source = XmlDb::create(wl.source_name, &Engine::in_memory()).map_err(err("source"))?;
        source.load(&wl.source).map_err(err("load source"))?;
        let root = Path::single(wl.target_name);
        let containers: Vec<Path> = wl
            .target_initial
            .children()
            .map(|c| c.keys().map(|l| root.child(*l)).collect())
            .unwrap_or_default();
        let sharded = Deployment::create_store(dir, &containers)?;
        let dep = Deployment::serve(dir, sharded)?;
        dep.db.create_archive(wl.target_name, true).map_err(err("archive"))?;
        let session =
            dep.db.session(wl.target_name, Consistency::ReadYourWrites).map_err(err("session"))?;
        let editor = Editor::new(
            "curator",
            Arc::new(target),
            Strategy::HierarchicalTransactional,
            session.store().clone(),
            Tid(1),
        )
        .with_source(Arc::new(source));
        Ok(Pass { dep, editor })
    }
}

/// Per-pass measurements.
#[derive(Default)]
pub struct Replay {
    pub elapsed: Duration,
    pub commit_us: Vec<f64>,
    /// Per transaction (its operations and its commit), in µs.
    pub txn_us: Vec<f64>,
    /// Per tracked operation (`Editor::apply`), in µs.
    pub op_us: Vec<f64>,
    /// Time in `apply_untracked` and in `track` (traced runs only).
    pub apply: Duration,
    pub track: Duration,
}

/// Replays the script: every operation tracked, a commit every
/// [`TXN`] operations, then the final drain of the pipeline. With
/// tracing on, the database half and the tracking half of each
/// operation are timed separately (Figure 9's split).
pub fn replay(pass: &mut Pass, script: &[AtomicUpdate]) -> Res<Replay> {
    let traced = trace::enabled();
    let mut out = Replay {
        commit_us: Vec::with_capacity(script.len() / TXN + 1),
        op_us: Vec::with_capacity(script.len()),
        ..Replay::default()
    };
    let t = Instant::now();
    let mut txn_start = t;
    for (i, u) in script.iter().enumerate() {
        let _op = trace::span("curate.op");
        if traced {
            let (effect, d) = timed(|| {
                let _s = trace::span("xmldb.apply");
                pass.editor.apply_untracked(u)
            });
            out.apply += d;
            let effect = effect.map_err(err("apply"))?;
            let (r, d) = timed(|| {
                let _s = trace::span("tracker.track");
                pass.editor.track(&effect)
            });
            out.track += d;
            r.map_err(err("track"))?;
        } else {
            let (r, d) = timed(|| pass.editor.apply(u));
            r.map_err(err("apply"))?;
            out.op_us.push(us(d));
        }
        if (i + 1) % TXN == 0 || i + 1 == script.len() {
            let _s = trace::span("tracker.commit");
            let (r, d) = timed(|| pass.editor.commit());
            r.map_err(err("commit"))?;
            out.commit_us.push(us(d));
            out.txn_us.push(us(txn_start.elapsed()));
            txn_start = Instant::now();
        }
    }
    {
        let _s = trace::span("pipeline.flush");
        pass.dep.pipe.flush().map_err(err("final drain"))?;
    }
    out.elapsed = t.elapsed();
    Ok(out)
}

fn drain(reads: &dyn ReadHandle, root: &Path) -> Res<Vec<ProvRecord>> {
    let mut cursor = reads.scan_loc_prefix(root, DRAIN_PAGE).map_err(err("scan"))?;
    let mut out = Vec::new();
    while let Some(page) = cursor.next_batch().map_err(err("scan"))? {
        out.extend(page);
    }
    Ok(out)
}

pub fn run(seed: u64, seconds: f64, work: &FsPath) -> Res<Outcome> {
    let inputs = Inputs::new(seed, STEPS)?;
    let script: Vec<AtomicUpdate> = inputs.wl.script.iter().cloned().collect();
    let root = Path::single(inputs.wl.target_name);
    let mut out = Outcome::default();
    let (mut setups, mut commits, mut hists, mut restarts, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Throughput is the median of per-pass rates: robust to a pass
    // that a burst of outside load slowed.
    let (mut rates, mut txns, mut op_us, mut records) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let start = Instant::now();
    let mut n = 0;
    while n == 0 || start.elapsed().as_secs_f64() < seconds {
        let dir = work.join(format!("curate-{n}"));
        let (pass, d) = timed(|| Pass::build(&inputs.wl, &dir));
        let mut pass = pass?;
        setups.push(d.as_secs_f64());
        let r = replay(&mut pass, &script)?;
        rates.push(script.len() as f64 / r.elapsed.as_secs_f64());
        for _ in 0..script.len() {
            out.op("tracked_op", true);
        }
        for _ in 0..r.commit_us.len() {
            out.op("commit", true);
        }
        out.op("final_drain", true);
        commits.extend(r.commit_us);
        txns.extend(r.txn_us);
        op_us.extend(r.op_us);

        // Checks and auditor reads, outside the measured replay.
        let got = pass.editor.target().tree_from_db().map_err(err("read target"))?;
        out.check("target_check", oracle::same_tree(&inputs.expected, &got));
        let tnow = pass.editor.tnow();
        let session = pass
            .dep
            .db
            .session(inputs.wl.target_name, Consistency::Snapshot)
            .map_err(err("session"))?;
        let engine = session.query_engine();
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(n as u64));
        let hist_locs: Vec<&Path> =
            (0..HIST_SAMPLES).map(|_| &inputs.paths[rng.below(inputs.paths.len())]).collect();
        let mut answers = Vec::with_capacity(HIST_SAMPLES);
        for &loc in &hist_locs {
            let (r, d) = timed(|| engine.get_hist(loc, tnow));
            answers.push(r.map_err(err("get_hist"))?);
            hists.push(us(d));
        }
        let before = drain(session.reads().handle(), &root)?;
        drop((engine, session));
        let Pass { dep, editor } = pass;
        drop(editor);
        dep.close()?;
        let (dep, d) = timed(|| -> Res<Deployment> {
            let dep = Deployment::reopen(&dir)?;
            dep.db.create_archive(inputs.wl.target_name, true).map_err(err("archive"))?;
            let s = dep
                .db
                .session(inputs.wl.target_name, Consistency::Snapshot)
                .map_err(err("session"))?;
            s.reads().by_loc(&root).map_err(err("first read"))?;
            Ok(dep)
        });
        let dep = dep?;
        restarts.push(d.as_secs_f64());
        let session =
            dep.db.session(inputs.wl.target_name, Consistency::Snapshot).map_err(err("session"))?;
        let after = drain(session.reads().handle(), &root)?;
        out.check("restart_check", oracle::same_records(&before, &after));
        // Each `Hist` answer is checked to survive the restart unchanged
        // (query correctness itself is checked against Datalog below).
        let engine = session.query_engine();
        for (&loc, want) in hist_locs.iter().zip(&answers) {
            let got = engine.get_hist(loc, tnow).map_err(err("get_hist"))?;
            out.check("get_hist", oracle::same_tids("Hist after restart", want, &got));
        }
        drop(engine);
        bytes.push(dep.bytes_per_record());
        records = dep.sharded.len();
        drop(session);
        drop(dep);
        std::fs::remove_dir_all(&dir).map_err(err("remove pass dir"))?;
        n += 1;
    }
    datalog_check(seed, work, &mut out)?;

    out.metric("setup_s", median(&setups), "s");
    out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MB");
    out.metric("op_p50_us", median(&op_us), "us");
    out.metric("get_hist_p50_us", median(&hists), "us");
    out.metric("store_bytes_per_record", median(&bytes), "bytes");
    out.info("curate_ops_per_s", median(&rates), "ops/s");
    out.info("txn_ops_per_s", TXN as f64 * 1e6 / median(&txns), "ops/s");
    out.info("commit_p50_us", median(&commits), "us");
    out.info("commit_p99_us", quantile(&commits, 0.99), "us");
    out.info("commit_samples", commits.len() as f64, "count");
    out.info("restart_s", median(&restarts), "s");
    out.info("store_records", records as f64, "count");
    out.info("passes", n as f64, "count");
    Ok(out)
}

/// Replays a small seeded `Mix` script through the same deployment
/// and checks `Src`, `Hist` and `Mod` at every node of the final
/// target against the paper's rules evaluated by `cpdb-datalog`.
pub fn datalog_check(seed: u64, work: &FsPath, out: &mut Outcome) -> Res<()> {
    let cfg = GenConfig {
        pattern: UpdatePattern::Mix,
        deletion: DeletionPattern::Random,
        seed,
        source_records: 6,
        target_records: 4,
    };
    let wl = generate(&cfg, 30);
    let dir = work.join("curate-datalog");
    let mut pass = Pass::build(&wl, &dir)?;
    let mut ws = wl.workspace();
    let root = ws.target().root_path();
    let mut versions = vec![(Tid(0), ws.target().root().all_paths(&root))];
    let steps: Vec<&AtomicUpdate> = wl.script.iter().collect();
    for (i, u) in steps.iter().enumerate() {
        pass.editor.apply(u).map_err(err("apply"))?;
        ws.apply(u).map_err(err("workspace"))?;
        if (i + 1) % TXN == 0 || i + 1 == steps.len() {
            let tid = pass.editor.current_tid();
            pass.editor.commit().map_err(err("commit"))?;
            versions.push((tid, ws.target().root().all_paths(&root)));
        }
    }
    pass.dep.pipe.flush().map_err(err("flush"))?;
    let tnow = pass.editor.tnow();
    let session =
        pass.dep.db.session(wl.target_name, Consistency::Snapshot).map_err(err("session"))?;
    let locs = ws.target().root().all_paths(&root);
    let db = rules::evaluate_from(session.reads().handle(), &root, &versions, tnow, &locs, &locs)
        .map_err(err("datalog"))?;
    let engine = session.query_engine();
    for loc in &locs {
        let src: Vec<Tid> =
            engine.get_src(loc, tnow).map_err(err("get_src"))?.into_iter().collect();
        out.check(
            "datalog_src",
            oracle::same_tids(&format!("Src({loc})"), &rules::src_answers(&db, loc), &src),
        );
        let mut hist = engine.get_hist(loc, tnow).map_err(err("get_hist"))?;
        hist.sort();
        out.check(
            "datalog_hist",
            oracle::same_tids(&format!("Hist({loc})"), &rules::hist_answers(&db, loc), &hist),
        );
        let nodes = ws.target().get(loc).map_err(err("subtree"))?.all_paths(loc);
        let m: Vec<Tid> =
            engine.get_mod(&nodes, tnow).map_err(err("get_mod"))?.into_iter().collect();
        out.check(
            "datalog_mod",
            oracle::same_tids(&format!("Mod({loc})"), &rules::mod_answers(&db, loc), &m),
        );
    }
    drop((engine, session));
    let Pass { dep, editor } = pass;
    drop(editor);
    dep.close()?;
    std::fs::remove_dir_all(&dir).map_err(err("remove datalog dir"))
}
