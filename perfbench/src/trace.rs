//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every thread records into its own [`Recorder`]; spans carry a name,
//! start and end (ns since the run's epoch), the id of the span that
//! caused them, and a request id shared by all spans of one request.
//! Nothing is written until the run ends ([`dump`]).

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call name, e.g. `parser.parse_request`.
    pub name: &'static str,
    /// Globally unique id (recorder index in the high bits).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// A per-thread span recorder; a disabled one records nothing.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Parent of this recorder's root spans (0: none).
    root_parent: u64,
    base: u64,
    next: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// Recorder number `thread` for a run started at `epoch`.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            root_parent: 0,
            base: u64::from(thread) << 40,
            next: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread (number `thread`) whose root spans
    /// are children of this recorder's innermost open span.
    pub fn child(&self, thread: u32) -> Self {
        let mut r = Self::new(self.epoch, thread, self.enabled);
        r.root_parent = self
            .open
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id);
        r
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        self.next += 1;
        let parent = self
            .open
            .last()
            .map_or(self.root_parent, |&i| self.spans[i].id);
        let start = self.now();
        self.spans.push(Span {
            name,
            id: self.base | self.next,
            parent,
            req,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Adopt spans recorded elsewhere (e.g. by pool tasks).
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per call of every span name: a span's duration minus the
/// part of its interval that its direct children cover (children on other
/// threads may overlap; their union is subtracted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        out.entry(s.name)
            .or_default()
            .push((s.end - s.start).saturating_sub(covered) as f64);
    }
    out
}

/// Write every span as one JSON line to `path`.
pub fn dump(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.req, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span {
                name: "root",
                id: 1,
                parent: 0,
                req: 1,
                start: 0,
                end: 100,
            },
            Span {
                name: "a",
                id: 2,
                parent: 1,
                req: 1,
                start: 10,
                end: 40,
            },
            Span {
                name: "b",
                id: 3,
                parent: 1,
                req: 1,
                start: 50,
                end: 70,
            },
            Span {
                name: "leaf",
                id: 4,
                parent: 2,
                req: 1,
                start: 15,
                end: 25,
            },
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], vec![50.0]);
        assert_eq!(t["a"], vec![20.0]);
        assert_eq!(t["b"], vec![20.0]);
        assert_eq!(t["leaf"], vec![10.0]);
        // Overlapping children (pool tasks) are subtracted as a union.
        let spans = [
            Span {
                name: "pass",
                id: 1,
                parent: 0,
                req: 1,
                start: 0,
                end: 100,
            },
            Span {
                name: "task",
                id: 2,
                parent: 1,
                req: 1,
                start: 10,
                end: 60,
            },
            Span {
                name: "task",
                id: 3,
                parent: 1,
                req: 1,
                start: 20,
                end: 70,
            },
        ];
        assert_eq!(self_times(&spans)["pass"], vec![40.0]);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 1, true);
        r.enter("root", 7);
        r.time("child", 7, || std::hint::black_box(1 + 1));
        r.exit();
        let spans = r.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].end >= spans[1].end);
        let mut parent = Recorder::new(epoch, 3, true);
        parent.enter("pass", 9);
        let mut child = parent.child(4);
        child.time("task", 9, || ());
        let task = child.into_spans()[0];
        parent.exit();
        assert_eq!(task.parent, parent.into_spans()[0].id);
        let mut off = Recorder::new(epoch, 2, false);
        off.time("x", 1, || ());
        assert!(off.into_spans().is_empty());
    }
}
