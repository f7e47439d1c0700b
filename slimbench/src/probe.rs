//! Instrumentation that stays outside the program: a span recorder the
//! benchmark wraps around its own calls into each layer, and a counting
//! [`Vfs`] every workload stores through.
//!
//! Spans are kept in memory and only while a traced round runs; in an
//! untraced round a span costs one relaxed atomic load. Storage calls are
//! always counted (atomics, so the wrapper is `Send + Sync` and serves the
//! services' writer threads too).

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use superimposed::slimio::{MemVfs, Vfs};

/// Id of the synthetic root that parents storage calls made on a
/// service's writer thread, where no benchmark op span is open.
pub const WRITER_ROOT: u64 = 0;

/// One timed interval. Times are offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The benchmark op the span belongs to (0 for writer-thread work).
    pub op: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder, switched on for one traced round at a time.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Spans open on this thread, innermost last: `(span id, op id)`.
    static OPEN: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(WRITER_ROOT + 1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Start recording (dropping anything recorded before).
    pub fn start(&self) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.on.store(true, Ordering::SeqCst);
    }

    /// Stop recording and hand back the spans, plus a writer root
    /// covering `[from, now]`.
    pub fn stop(&self, from: Instant) -> Vec<Span> {
        self.on.store(false, Ordering::SeqCst);
        let mut spans =
            std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner));
        spans.push(Span {
            id: WRITER_ROOT,
            parent: None,
            op: 0,
            name: "writer",
            start: from.saturating_duration_since(self.epoch),
            end: self.epoch.elapsed(),
        });
        spans
    }

    fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Run `f` as a span of op `op`, nested under whatever span is open
    /// on this thread.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let parent = OPEN.with(|open| open.borrow().last().map(|(id, _)| *id));
        self.timed(name, parent, op, f)
    }

    /// A storage call: a child of the span open on this thread, or of the
    /// writer root when none is (a service's own thread).
    fn io<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let (parent, op) = OPEN
            .with(|open| open.borrow().last().copied())
            .map_or((WRITER_ROOT, 0), |(id, op)| (id, op));
        self.timed(name, Some(parent), op, f)
    }

    fn timed<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OPEN.with(|open| open.borrow_mut().push((id, op)));
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        out
    }
}

/// Storage calls and bytes, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    pub reads: u64,
    pub writes: u64,
    pub appends: u64,
    pub renames: u64,
    pub syncs: u64,
    pub sync_dirs: u64,
    pub removes: u64,
    pub bytes_read: u64,
    pub bytes_written: u64,
}

impl IoTotals {
    fn zip(&self, other: &IoTotals, f: impl Fn(u64, u64) -> u64) -> IoTotals {
        IoTotals {
            reads: f(self.reads, other.reads),
            writes: f(self.writes, other.writes),
            appends: f(self.appends, other.appends),
            renames: f(self.renames, other.renames),
            syncs: f(self.syncs, other.syncs),
            sync_dirs: f(self.sync_dirs, other.sync_dirs),
            removes: f(self.removes, other.removes),
            bytes_read: f(self.bytes_read, other.bytes_read),
            bytes_written: f(self.bytes_written, other.bytes_written),
        }
    }

    pub fn plus(&self, other: &IoTotals) -> IoTotals {
        self.zip(other, u64::saturating_add)
    }

    pub fn minus(&self, other: &IoTotals) -> IoTotals {
        self.zip(other, u64::saturating_sub)
    }
}

#[derive(Default)]
struct IoCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    appends: AtomicU64,
    renames: AtomicU64,
    syncs: AtomicU64,
    sync_dirs: AtomicU64,
    removes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// A [`MemVfs`] that counts every call and, while its tracer records,
/// times each one as a `slimio.*` span. `MemVfs` makes sync a no-op, so
/// latencies exclude device flushes; the flush counts are still exact.
pub struct CountingVfs {
    inner: MemVfs,
    counts: IoCounters,
    tracer: Arc<Tracer>,
}

impl CountingVfs {
    pub fn new(inner: MemVfs, tracer: Arc<Tracer>) -> CountingVfs {
        CountingVfs {
            inner,
            counts: IoCounters::default(),
            tracer,
        }
    }

    pub fn totals(&self) -> IoTotals {
        let c = &self.counts;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        IoTotals {
            reads: get(&c.reads),
            writes: get(&c.writes),
            appends: get(&c.appends),
            renames: get(&c.renames),
            syncs: get(&c.syncs),
            sync_dirs: get(&c.sync_dirs),
            removes: get(&c.removes),
            bytes_read: get(&c.bytes_read),
            bytes_written: get(&c.bytes_written),
        }
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self.tracer.io("slimio.read", || self.inner.read(path))?;
        bump(&self.counts.reads, 1);
        bump(&self.counts.bytes_read, data.len() as u64);
        Ok(data)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        bump(&self.counts.writes, 1);
        bump(&self.counts.bytes_written, data.len() as u64);
        self.tracer
            .io("slimio.write", || self.inner.write(path, data))
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        bump(&self.counts.appends, 1);
        bump(&self.counts.bytes_written, data.len() as u64);
        self.tracer
            .io("slimio.append", || self.inner.append(path, data))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        bump(&self.counts.renames, 1);
        self.tracer
            .io("slimio.rename", || self.inner.rename(from, to))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        bump(&self.counts.syncs, 1);
        self.tracer.io("slimio.sync", || self.inner.sync(path))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        bump(&self.counts.sync_dirs, 1);
        self.tracer
            .io("slimio.sync_dir", || self.inner.sync_dir(dir))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        bump(&self.counts.removes, 1);
        self.tracer.io("slimio.remove", || self.inner.remove(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_calls_nest_under_the_open_span_or_the_writer_root() {
        let tracer = Tracer::new();
        let vfs = CountingVfs::new(MemVfs::new(), Arc::clone(&tracer));
        let from = Instant::now();
        tracer.start();
        tracer
            .span("outer", 7, || vfs.write(Path::new("f"), b"abc"))
            .unwrap();
        std::thread::scope(|s| {
            s.spawn(|| vfs.append(Path::new("f"), b"de").unwrap());
        });
        let spans = tracer.stop(from);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let write = spans.iter().find(|s| s.name == "slimio.write").unwrap();
        let append = spans.iter().find(|s| s.name == "slimio.append").unwrap();
        assert_eq!((write.parent, write.op), (Some(outer.id), 7));
        assert_eq!((append.parent, append.op), (Some(WRITER_ROOT), 0));
        assert!(spans
            .iter()
            .any(|s| s.id == WRITER_ROOT && s.name == "writer"));
        let t = vfs.totals();
        assert_eq!((t.writes, t.appends, t.bytes_written), (1, 1, 5));
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let tracer = Tracer::new();
        let vfs = CountingVfs::new(MemVfs::new(), Arc::clone(&tracer));
        tracer
            .span("outer", 1, || vfs.write(Path::new("f"), b"x"))
            .unwrap();
        assert_eq!(tracer.stop(Instant::now()).len(), 1, "only the writer root");
        assert_eq!(vfs.totals().writes, 1, "counting never stops");
    }
}
