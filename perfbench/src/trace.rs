//! The benchmark's own span recorder. Spans are recorded around calls
//! into each layer's public functions, and inside a [`TimingSource`]
//! handed to the server as its shard byte source; they stay in memory
//! until the run ends.

use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Marks "no parent" in [`Span::parent`] and in the recorder's ambient
/// parent slot.
pub const NO_PARENT: u64 = u64::MAX;

/// One timed interval, in nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u64,
    /// The op of the plan this span belongs to.
    pub op: u64,
    /// Bytes moved, where the layer moves bytes (0 otherwise).
    pub bytes: u64,
}

impl Span {
    #[must_use]
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span store. Byte sources running on server threads attach
/// their spans to the ambient parent and op set by the replay loop,
/// which issues one op at a time.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    ambient_parent: AtomicU64,
    ambient_op: AtomicU64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            ambient_parent: AtomicU64::new(NO_PARENT),
            ambient_op: AtomicU64::new(0),
        }
    }
}

impl Recorder {
    #[must_use]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder")
    }

    /// Opens a span and makes it the ambient parent; returns its index.
    pub fn open(&self, name: &'static str, op: u64, parent: u64) -> u64 {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op,
            bytes: 0,
        });
        let idx = spans.len() as u64 - 1;
        self.ambient_parent.store(idx, Ordering::SeqCst);
        self.ambient_op.store(op, Ordering::SeqCst);
        idx
    }

    /// Closes span `idx` and restores its parent as the ambient parent.
    pub fn close(&self, idx: u64) {
        let end = self.now();
        let mut spans = self.lock();
        let span = &mut spans[idx as usize];
        span.end = end;
        self.ambient_parent.store(span.parent, Ordering::SeqCst);
    }

    /// Runs `f` inside a span; returns its result and the span index.
    pub fn time<R>(
        &self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let idx = self.open(name, op, parent);
        let out = f();
        self.close(idx);
        (out, idx)
    }

    /// Records a root span of `dur` that ends now.
    pub fn record_done(&self, name: &'static str, op: u64, dur: std::time::Duration) {
        let end = self.now();
        let start = end.saturating_sub(dur.as_nanos() as u64);
        self.lock().push(Span {
            name,
            start,
            end,
            parent: NO_PARENT,
            op,
            bytes: 0,
        });
    }

    /// Records a finished child of the ambient parent.
    fn record_ambient(&self, name: &'static str, start: u64, bytes: u64) {
        let end = self.now();
        let parent = self.ambient_parent.load(Ordering::SeqCst);
        let op = self.ambient_op.load(Ordering::SeqCst);
        self.lock().push(Span {
            name,
            start,
            end,
            parent,
            op,
            bytes,
        });
    }

    /// Drains every recorded span.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }
}

/// Appends `more` to `all`, rebasing its parent indices.
pub fn append_spans(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u64;
    all.extend(more.into_iter().map(|mut s| {
        if s.parent != NO_PARENT {
            s.parent += base;
        }
        s
    }));
}

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children (clipped to it).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - covered(s.start, s.end, kids))
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Span counts and times per name, for the written trace.
#[must_use]
pub fn span_totals(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(selfs) {
        match out.iter_mut().find(|e| e.0 == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.dur();
                e.3 += own;
            }
            None => out.push((s.name, 1, s.dur(), own)),
        }
    }
    out
}

/// Writes per-name totals plus the first `keep` spans as JSON lines.
pub fn write_trace(path: &Path, spans: &[Span], keep: usize) -> io::Result<()> {
    let mut text = String::new();
    for (name, count, total, own) in span_totals(spans) {
        text.push_str(&format!(
            "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}\n"
        ));
    }
    for (i, s) in spans.iter().take(keep).enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        text.push_str(&format!(
            "{{\"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}, \"bytes\": {}}}\n",
            s.name, s.start, s.end, s.op, s.bytes
        ));
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// A shard byte source that records one `store.source_read` span per
/// `read` call and remembers the offset of each read, so the replay can
/// tell which blocks a server call fetched from the store.
pub struct TimingSource<S> {
    inner: S,
    pos: u64,
    rec: Arc<Recorder>,
    offsets: Arc<Mutex<Vec<u64>>>,
}

impl<S> TimingSource<S> {
    pub fn new(inner: S, rec: Arc<Recorder>, offsets: Arc<Mutex<Vec<u64>>>) -> Self {
        TimingSource {
            inner,
            pos: 0,
            rec,
            offsets,
        }
    }
}

impl<S: Read> Read for TimingSource<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = self.rec.now();
        let n = self.inner.read(buf)?;
        self.rec
            .record_ambient("store.source_read", start, n as u64);
        self.offsets
            .lock()
            .expect("offset log poisoned by a panicking reader")
            .push(self.pos);
        self.pos += n as u64;
        Ok(n)
    }
}

impl<S: Seek> Seek for TimingSource<S> {
    fn seek(&mut self, to: SeekFrom) -> io::Result<u64> {
        self.pos = self.inner.seek(to)?;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: u64) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            op: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            span(0, 100, NO_PARENT),
            // Overlapping children cover [10, 40) once: 30 ns.
            span(10, 30, 0),
            span(20, 40, 0),
            // A child spilling past its parent is clipped at 100.
            span(90, 120, 0),
            // A grandchild counts against its own parent only.
            span(12, 18, 1),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 20 - 6);
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 6);
    }

    #[test]
    fn parallel_children_are_not_double_counted() {
        let spans = [span(0, 50, NO_PARENT), span(0, 50, 0), span(0, 50, 0)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn ambient_parent_follows_open_and_close() {
        let rec = Recorder::default();
        let outer = rec.open("outer", 7, NO_PARENT);
        let start = rec.now();
        rec.record_ambient("child", start, 3);
        rec.close(outer);
        rec.record_ambient("orphan", rec.now(), 0);
        let spans = rec.take();
        assert_eq!(spans[1].parent, outer);
        assert_eq!(spans[1].op, 7);
        assert_eq!(spans[2].parent, NO_PARENT);
    }
}
