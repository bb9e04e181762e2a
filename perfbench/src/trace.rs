//! Spans recorded by the benchmark around calls into the program's
//! public functions. They are kept in memory, summarised per layer
//! (count, total time, self time), and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call. `req` groups the spans of one request; `parent` is
/// the index of the enclosing span, if any.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-layer totals over a run's spans.
#[derive(Default, Clone, Copy)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64)
    }
}

/// A span recorder. When off, [`Tracer::time`] only runs the closure.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that [`Tracer::close`] ends; `None` when off.
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, req, parent);
        let result = f();
        self.close(span);
        result
    }

    /// Appends another recorder's spans (same epoch), keeping parent
    /// links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Count, total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `name req parent start_ns end_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\treq\tparent\tstart_ns\tend_ns")?;
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.name, span.req, parent, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let parent = t.open("outer", 1, None);
        t.time("inner", 1, parent, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(parent);
        let layers = t.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 5_000_000);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.time("x", 0, None, || 3), 3);
        assert!(t.layers().is_empty());
    }
}
