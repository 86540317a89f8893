//! Correctness oracles that do not reuse the code they check: answers
//! are compared against the generated inputs through path-segment
//! comparisons (never the key codec), and provenance chains are walked
//! over the generator's own record list.

use cpdb_core::{Op, ProvRecord, Tid};
use cpdb_tree::{Label, Path, Tree};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

pub type Verdict = Result<(), String>;

/// Segment-wise path order, by spelling.
pub fn seg_cmp(a: &Path, b: &Path) -> Ordering {
    a.segments().iter().map(|l| l.as_str()).cmp(b.segments().iter().map(|l| l.as_str()))
}

/// `p` lies in the subtree under `root` (segment by segment).
pub fn under(p: &Path, root: &Path) -> bool {
    let (p, r) = (p.segments(), root.segments());
    p.len() >= r.len() && p.iter().zip(r).all(|(a, b)| a.as_str() == b.as_str())
}

fn rec_cmp(a: &ProvRecord, b: &ProvRecord) -> Ordering {
    seg_cmp(&a.loc, &b.loc).then(a.tid.cmp(&b.tid)).then(a.op.code().cmp(b.op.code())).then_with(
        || match (&a.src, &b.src) {
            (Some(x), Some(y)) => seg_cmp(x, y),
            (x, y) => x.is_some().cmp(&y.is_some()),
        },
    )
}

fn first_difference(expected: &[ProvRecord], got: &[ProvRecord]) -> Verdict {
    if let Some(i) = (0..expected.len().min(got.len())).find(|&i| expected[i] != got[i]) {
        return Err(format!("record {i}: expected {}, got {}", expected[i], got[i]));
    }
    if expected.len() != got.len() {
        return Err(format!("expected {} records, got {}", expected.len(), got.len()));
    }
    Ok(())
}

/// `got` holds exactly the records of `expected`, in any order.
pub fn same_records(expected: &[ProvRecord], got: &[ProvRecord]) -> Verdict {
    let mut e = expected.to_vec();
    let mut g = got.to_vec();
    e.sort_by(rec_cmp);
    g.sort_by(rec_cmp);
    first_difference(&e, &g)
}

/// Checks a full drain page by page without keeping it: the records
/// must be `expected` (strictly increasing in path order) one by one,
/// so the drain is in path order with each record exactly once.
pub struct DrainCheck<'a> {
    expected: &'a [ProvRecord],
    seen: usize,
    error: Option<String>,
}

impl<'a> DrainCheck<'a> {
    pub fn new(expected: &'a [ProvRecord]) -> DrainCheck<'a> {
        DrainCheck { expected, seen: 0, error: None }
    }

    pub fn page(&mut self, page: &[ProvRecord]) {
        for r in page {
            if self.error.is_some() {
                return;
            }
            match self.expected.get(self.seen) {
                Some(e) if e == r => self.seen += 1,
                Some(e) => {
                    self.error = Some(format!("record {}: expected {e}, got {r}", self.seen))
                }
                None => self.error = Some(format!("more than {} records", self.expected.len())),
            }
        }
    }

    pub fn finish(self) -> Verdict {
        match self.error {
            Some(e) => Err(e),
            None if self.seen != self.expected.len() => {
                Err(format!("expected {} records, got {}", self.expected.len(), self.seen))
            }
            None => Ok(()),
        }
    }
}

/// Sorts records into the order a full drain must return them.
pub fn sort_records(records: &mut [ProvRecord]) {
    records.sort_by(rec_cmp);
}

/// Equal transaction lists.
pub fn same_tids(what: &str, expected: &[Tid], got: &[Tid]) -> Verdict {
    if expected == got {
        return Ok(());
    }
    Err(format!("{what}: expected {expected:?}, got {got:?}"))
}

/// Equal trees.
pub fn same_tree(expected: &Tree, got: &Tree) -> Verdict {
    if expected == got {
        return Ok(());
    }
    Err(format!(
        "target differs from the formal-semantics replay ({} vs {} nodes)",
        expected.node_count(),
        got.node_count()
    ))
}

/// Batch atomicity of one read: records are grouped by their parent
/// path (one group = one committed batch); every group present must be
/// whole (`lens`), and every batch in `must_see` must be present.
pub fn batches_whole(
    got: &[ProvRecord],
    lens: &BTreeMap<String, usize>,
    must_see: &[String],
) -> Verdict {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    for r in got {
        let Some(parent) = r.loc.parent() else { continue };
        let key = parent.to_string();
        if lens.contains_key(&key) {
            *seen.entry(key).or_default() += 1;
        }
    }
    for (batch, n) in &seen {
        if lens[batch] != *n {
            return Err(format!("batch {batch} torn: {n} of {} records visible", lens[batch]));
        }
    }
    match must_see.iter().find(|b| !seen.contains_key(*b)) {
        Some(b) => Err(format!("acknowledged batch {b} not visible")),
        None => Ok(()),
    }
}

/// Provenance answers over a flat record list (one record per node,
/// no deletes), walked directly from the generator's records: the
/// newest record at or before `t` governs a node; a copy from inside
/// `archive` continues at its source one transaction earlier.
pub struct FlatOracle {
    archive: Label,
    /// The records in path order; a node's record is found by binary
    /// search on segments.
    records: Vec<ProvRecord>,
}

impl FlatOracle {
    pub fn new(archive: Label, mut records: Vec<ProvRecord>) -> FlatOracle {
        sort_records(&mut records);
        FlatOracle { archive, records }
    }

    /// The records in the order a full drain must return them.
    pub fn records(&self) -> &[ProvRecord] {
        &self.records
    }

    fn at(&self, loc: &Path) -> Option<&ProvRecord> {
        let i = self.records.binary_search_by(|r| seg_cmp(&r.loc, loc)).ok()?;
        Some(&self.records[i])
    }

    fn trace(&self, loc: &Path, tnow: Tid) -> Vec<&ProvRecord> {
        let mut steps = Vec::new();
        let (mut cur, mut t) = (loc.clone(), tnow);
        while let Some(r) = self.at(&cur).filter(|r| r.tid <= t) {
            steps.push(r);
            match (&r.op, &r.src) {
                (Op::Copy, Some(src))
                    if src.first().is_some_and(|db| db.as_str() == self.archive.as_str())
                        && r.tid.0 > 0 =>
                {
                    cur = src.clone();
                    t = Tid(r.tid.0 - 1);
                }
                _ => break,
            }
        }
        steps
    }

    pub fn src(&self, loc: &Path, tnow: Tid) -> Option<Tid> {
        self.trace(loc, tnow).last().filter(|r| r.op == Op::Insert).map(|r| r.tid)
    }

    pub fn hist(&self, loc: &Path, tnow: Tid) -> Vec<Tid> {
        self.trace(loc, tnow).iter().filter(|r| r.op == Op::Copy).map(|r| r.tid).collect()
    }

    /// `Mod` over the given subtree nodes.
    pub fn modified(&self, nodes: &[Path], tnow: Tid) -> Vec<Tid> {
        let set: BTreeSet<Tid> =
            nodes.iter().flat_map(|n| self.trace(n, tnow)).map(|r| r.tid).collect();
        set.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        s.parse().unwrap()
    }

    fn records() -> Vec<ProvRecord> {
        vec![
            ProvRecord::insert(Tid(1), p("U/c0/e0/name")),
            ProvRecord::copy(Tid(2), p("U/c0/e1/x0"), p("U/c0/e0/name")),
            ProvRecord::copy(Tid(3), p("U/c1/e2/x0"), p("U/c0/e1/x0")),
            ProvRecord::copy(Tid(3), p("U/c1/e2/x1"), p("S/db/f1")),
        ]
    }

    fn dropped(mut r: Vec<ProvRecord>) -> Vec<ProvRecord> {
        r.remove(1);
        r
    }

    fn retid(mut r: Vec<ProvRecord>) -> Vec<ProvRecord> {
        r[2].tid = Tid(9);
        r
    }

    #[test]
    fn record_oracles_reject_a_dropped_record_and_a_changed_tid() {
        let mut expected = records();
        sort_records(&mut expected);
        let mut shuffled = expected.clone();
        shuffled.reverse();
        assert!(same_records(&expected, &shuffled).is_ok());
        assert!(same_records(&expected, &dropped(shuffled.clone())).is_err());
        assert!(same_records(&expected, &retid(shuffled)).is_err());

        let drain = |got: &[ProvRecord]| {
            let mut check = DrainCheck::new(&expected);
            for page in got.chunks(3) {
                check.page(page);
            }
            check.finish()
        };
        assert!(drain(&expected).is_ok());
        assert!(drain(&dropped(expected.clone())).is_err());
        assert!(drain(&retid(expected.clone())).is_err());
        let mut reversed = expected.clone();
        reversed.reverse();
        assert!(drain(&reversed).is_err(), "order is checked");
        let mut twice = expected.clone();
        twice.push(expected[0].clone());
        assert!(drain(&twice).is_err(), "each record once");
    }

    #[test]
    fn query_oracle_rejects_a_changed_tid() {
        let oracle = FlatOracle::new(Label::new("U"), records());
        let hist = oracle.hist(&p("U/c1/e2/x0"), Tid(3));
        assert_eq!(hist, vec![Tid(3), Tid(2)]);
        assert_eq!(oracle.src(&p("U/c1/e2/x0"), Tid(3)), Some(Tid(1)));
        assert_eq!(oracle.hist(&p("U/c1/e2/x1"), Tid(3)), vec![Tid(3)], "chain exits U");
        assert!(same_tids("hist", &hist, &[Tid(3), Tid(2)]).is_ok());
        assert!(same_tids("hist", &hist, &[Tid(3), Tid(5)]).is_err());
        assert!(same_tids("hist", &hist, &[Tid(3)]).is_err());
        let nodes = [p("U/c1/e2/x0"), p("U/c1/e2/x1")];
        assert_eq!(oracle.modified(&nodes, Tid(3)), vec![Tid(1), Tid(2), Tid(3)]);
    }

    #[test]
    fn batch_oracle_rejects_a_torn_or_missing_batch() {
        let batch = |b: &str, n: usize, tid: u64| -> Vec<ProvRecord> {
            (0..n).map(|k| ProvRecord::insert(Tid(tid), p(&format!("t0/L/{b}/r{k}")))).collect()
        };
        let lens: BTreeMap<String, usize> =
            [("t0/L/b0".to_owned(), 3), ("t0/L/b1".to_owned(), 2)].into();
        let mut got = batch("b0", 3, 5);
        got.extend(batch("b1", 2, 6));
        let all = ["t0/L/b0".to_owned(), "t0/L/b1".to_owned()];
        assert!(batches_whole(&got, &lens, &all).is_ok());
        assert!(batches_whole(&dropped(got.clone()), &lens, &[]).is_err(), "torn batch");
        assert!(batches_whole(&batch("b0", 3, 5), &lens, &all).is_err(), "missing ack");
        assert!(batches_whole(&batch("b0", 3, 5), &lens, &all[..1]).is_ok());
    }

    #[test]
    fn tree_oracle_rejects_a_dropped_node() {
        let t = cpdb_tree::tree! { "a" => { "x" => 1, "y" => 2 } };
        let u = cpdb_tree::tree! { "a" => { "x" => 1 } };
        assert!(same_tree(&t, &t.clone()).is_ok());
        assert!(same_tree(&t, &u).is_err());
    }
}
