//! Bench-side spans: one record around every call into a layer, kept in
//! memory and written as JSONL when the run ends. Nothing here touches the
//! crates under test; their own `fda_obs` histograms are read separately.
//!
//! A span covering `calls` back-to-back invocations of a sub-microsecond
//! operation keeps the two clock reads out of the measurement; its
//! per-call time is `(end_ns - start_ns) / calls`.

use fda_tensor::stats::median;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// How long one [`Tracer::bench`] span should last: long enough that the
/// two clock reads around it are noise.
const SPAN_TARGET_NS: u64 = 100_000;

pub struct Span {
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records a child of span `parent` from a duration measured elsewhere
    /// (an `fda_obs` histogram delta), laid out from `start_ns`.
    pub fn record_under(&mut self, parent: usize, name: &'static str, start_ns: u64, dur_ns: u64) {
        self.spans.push(Span {
            parent: Some(parent),
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            calls: 1,
        });
    }

    /// Times `f` in `reps` spans, after one warm-up call that also sizes
    /// the spans: each covers enough back-to-back calls to last about
    /// [`SPAN_TARGET_NS`]. Returns the median microseconds per call.
    pub fn bench(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let warm = Instant::now();
        f();
        let one_ns = (warm.elapsed().as_nanos() as u64).max(1);
        let calls = (SPAN_TARGET_NS / one_ns).clamp(1, 4096) as u32;
        let mut per_call_us = Vec::with_capacity(reps);
        for _ in 0..reps {
            let id = self.enter(name);
            for _ in 0..calls {
                f();
            }
            self.exit(id);
            self.spans[id].calls = calls;
            per_call_us.push(self.dur_us(id) / f64::from(calls));
        }
        median(&per_call_us)
    }

    /// Start of span `id` on the tracer's clock.
    pub fn start_ns(&self, id: usize) -> u64 {
        self.spans[id].start_ns
    }

    pub fn dur_us(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 / 1e3
    }

    /// Self time of span `id`: its duration minus what its direct children
    /// cover.
    pub fn self_us(&self, id: usize) -> f64 {
        // Children are recorded after their parent.
        let children: u64 = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns().saturating_sub(children) as f64 / 1e3
    }

    /// Writes one JSON object per span:
    /// `{id, parent, name, workload, start_ns, end_ns, calls}`.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\
                 \"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new();
        let step = tr.enter("step");
        tr.exit(step);
        let t0 = tr.start_ns(step);
        tr.record_under(step, "obs:local", t0, 3_000);
        tr.record_under(step, "obs:monitor", t0 + 3_000, 1_000);
        // Pin the parent's duration so the arithmetic is exact.
        tr.spans[step].end_ns = t0 + 10_000;
        assert_eq!(tr.self_us(step), 6.0);
        assert_eq!(tr.spans[1].parent, Some(step));
        assert_eq!(tr.spans.len(), 3);
    }

    #[test]
    fn bench_records_one_span_per_rep() {
        let mut tr = Tracer::new();
        let mut n = 0u32;
        let us = tr.bench("op", 3, || n += 1);
        assert_eq!(tr.spans.len(), 3);
        let calls = tr.spans[0].calls;
        assert!(tr.spans.iter().all(|s| s.calls == calls && s.name == "op"));
        assert_eq!(n, 1 + 3 * calls, "one warm-up, then reps x calls");
        assert!(us >= 0.0);
    }
}
