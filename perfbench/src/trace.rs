//! In-memory span recorder for the traced run.
//!
//! A span is opened around every call the benchmark makes into a layer of
//! the program (name, start, end, parent). Spans stay in memory and are
//! written out with the run report when the run ends. While tracing is
//! off, opening a span reads no clock and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct SpanStats {
    pub count: u64,
    pub inclusive_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    state: RefCell<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open span.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let id = st.spans.len();
        let parent = st.stack.last().copied();
        st.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        st.stack.push(id);
        SpanGuard {
            tracer: self,
            id: Some(id),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.enter(name);
        f()
    }

    fn close(&self, id: usize) {
        let end_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        st.spans[id].end_ns = end_ns;
        if let Some(pos) = st.stack.iter().rposition(|&s| s == id) {
            st.stack.truncate(pos);
        }
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Descendants of span `root` (excluding it), in opening order.
    pub fn descendants(&self, root: usize) -> Vec<Span> {
        let spans = self.state.borrow();
        let mut inside = vec![false; spans.spans.len()];
        let mut out = Vec::new();
        for s in &spans.spans {
            let under = match s.parent {
                Some(p) => p == root || inside[p],
                None => false,
            };
            if under {
                inside[s.id] = true;
                out.push(s.clone());
            }
        }
        out
    }

    pub fn span_by_id(&self, id: usize) -> Option<Span> {
        self.state.borrow().spans.get(id).cloned()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanGuard<'_> {
    /// Id of the span, `None` when tracing is off.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.close(id);
        }
    }
}

/// Self and inclusive time per span name. A span's self time is its
/// duration minus the durations of its direct children.
pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut child_ns: BTreeMap<usize, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.inclusive_ns += s.duration_ns();
        e.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        {
            let _outer = t.enter("outer");
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        }
        let agg = aggregate(&t.spans());
        let outer = &agg["outer"];
        let inner = &agg["inner"];
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(outer.inclusive_ns >= inner.inclusive_ns);
        assert_eq!(outer.self_ns, outer.inclusive_ns - inner.inclusive_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.span("x", || ());
        assert!(t.spans().is_empty());
    }
}
