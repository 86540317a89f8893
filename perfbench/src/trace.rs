//! Spans recorded in the benchmark's own code around each call into a
//! layer. Spans are kept in memory while the run lasts and written out
//! at its end; a layer's self time is its span's duration minus the
//! part its child spans cover. Recording is off unless [`enable`]d, so
//! untraced runs pay one relaxed load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one (0 for a request's root).
    pub parent: u64,
    /// The root span of the request this span belongs to.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans of this thread: `(id, request)`.
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, u64)>,
}

/// Opens a span named `name` as a child of this thread's innermost
/// open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, request) = s.last().copied().unwrap_or((0, id));
        s.push((id, request));
        (parent, request)
    });
    Guard { open: Some((id, parent, request, name, now_ns())) }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, request, name, start_ns)) = self.open.take() else { return };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span { id, parent, request, name, start_ns, end_ns };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<Span> {
    SPANS.lock().map(|mut s| std::mem::take(&mut *s)).unwrap_or_default()
}

/// Per span name: `(count, total ns, self ns)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let own = dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += own;
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            f,
            r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span { id: 1, parent: 0, request: 1, name: "a", start_ns: 0, end_ns: 100 },
            Span { id: 2, parent: 1, request: 1, name: "b", start_ns: 10, end_ns: 40 },
            Span { id: 3, parent: 1, request: 1, name: "b", start_ns: 50, end_ns: 70 },
        ];
        let t = self_times(&spans);
        assert_eq!(t["a"], (1, 100, 50));
        assert_eq!(t["b"], (2, 50, 50));
    }
}
