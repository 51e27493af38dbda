//! In-memory spans recorded around each call the benchmark makes into the
//! program, and the self-time arithmetic that turns them into per-layer
//! costs. Spans are kept in memory while the workload runs and written
//! out once it ends.

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;

/// One timed call. `id` is unique within a run; `parent` is the id of the
/// span that caused it (`None` for a root); `req` groups the spans of one
/// request (or one closed-loop round).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Children per root: ids are `req · SLOTS + slot`, slot 0 the root.
const SLOTS: u64 = 16;

impl Span {
    pub fn root(name: &'static str, req: u64, start_ns: u64, end_ns: u64) -> Self {
        Span {
            name,
            id: req * SLOTS,
            parent: None,
            req,
            start_ns,
            end_ns,
        }
    }

    /// Child `slot` (1..16) of request `req`'s root span.
    pub fn child(name: &'static str, slot: u64, req: u64, start_ns: u64, end_ns: u64) -> Self {
        debug_assert!((1..SLOTS).contains(&slot));
        Span {
            name,
            id: req * SLOTS + slot,
            parent: Some(req * SLOTS),
            req,
            start_ns,
            end_ns,
        }
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Per-layer self time: span name → (count, total self µs, p50 self µs).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        by_name.entry(s.name).or_default().push(t as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, v)| {
            let total = v.iter().sum();
            let p50 = stats::median(&v);
            (name, (v.len(), total, p50))
        })
        .collect()
}

/// Prints the per-layer self-time table and the residue: the root spans'
/// own self time, i.e. where the layers fail to add up to the root.
pub fn print_layers(spans: &[Span]) {
    let layers = layer_self_times(spans);
    println!(
        "{:<28} {:>9} {:>14} {:>12}",
        "layer (self time)", "spans", "total_ms", "p50_us"
    );
    for (name, (n, total_us, p50)) in &layers {
        println!(
            "{:<28} {:>9} {:>14.3} {:>12.2}",
            name,
            n,
            total_us / 1e3,
            p50
        );
    }
}

/// Writes spans as tab-separated lines: id, parent, req, name, start, end.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_union() {
        let spans = [
            Span::root("request", 1, 0, 100),
            Span::child("submit", 1, 1, 10, 30),
            // Overlaps the first child: the overlap counts once.
            Span::child("wait", 2, 1, 20, 50),
            // Runs past the root's end: clipped.
            Span::child("late", 3, 1, 90, 120),
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 50) + [90, 100) = 50.
        assert_eq!(selfs, vec![50, 20, 30, 30]);
    }

    #[test]
    fn layers_add_up_to_the_root_when_children_tile_it() {
        let spans = [
            Span::root("request", 7, 1_000, 5_000),
            Span::child("lag", 1, 7, 1_000, 2_000),
            Span::child("submit", 2, 7, 2_000, 3_500),
            Span::child("wait", 3, 7, 3_500, 5_000),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 0, "no residue when the children tile the root");
        assert_eq!(selfs[1..].iter().sum::<u64>(), spans[0].dur_ns());
        let layers = layer_self_times(&spans);
        assert_eq!(layers["submit"], (1, 1.5, 1.5));
    }

    #[test]
    fn spans_of_different_requests_do_not_mix() {
        let spans = [
            Span::root("request", 1, 0, 10),
            Span::root("request", 2, 0, 10),
            Span::child("submit", 1, 2, 0, 10),
        ];
        assert_eq!(self_times(&spans), vec![10, 0, 10]);
    }
}
