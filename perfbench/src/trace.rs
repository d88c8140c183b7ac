//! Spans and counters recorded from outside the layers.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span (name, start, end, parent span, item id) and records counters
//! at the same boundaries. Everything stays in memory until the run
//! ends, then goes to an NDJSON file that [`load`] reads back, so the
//! per-layer table can be regenerated from the file alone.
//!
//! A span's name is `<layer>.<what>`; the layer is the crate the call
//! goes into (`lang`, `opt`, `sched`, …). Roots named `item.<kind>`
//! mark one workload item (a design, a sweep, a request).

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: Cow<'static, str>,
    pub item: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One counter sample, attributed to an item.
#[derive(Clone, Debug, PartialEq)]
pub struct Counter {
    pub name: Cow<'static, str>,
    pub item: u64,
    pub value: f64,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The in-memory recorder. A disabled tracer runs the wrapped closures
/// and records nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<Vec<Counter>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        // Allocated and touched up front, so that growing the buffers or
        // faulting in their pages does not show up as unattributed time
        // inside items.
        let reserve = if enabled { 1 << 16 } else { 0 };
        let mut spans = vec![
            Span {
                id: 0,
                parent: 0,
                name: Cow::Borrowed(""),
                item: 0,
                start_ns: 0,
                end_ns: 0,
            };
            reserve
        ];
        spans.clear();
        let mut counters = vec![
            Counter {
                name: Cow::Borrowed(""),
                item: 0,
                value: 0.0,
            };
            reserve
        ];
        counters.clear();
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(spans),
            counters: Mutex::new(counters),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost span
    /// open on this thread.
    pub fn span<T>(&self, name: &'static str, item: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans.lock().expect("span lock").push(Span {
            id,
            parent,
            name: Cow::Borrowed(name),
            item,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a counter sample.
    pub fn count(&self, name: &'static str, item: u64, value: f64) {
        if self.enabled {
            self.counters.lock().expect("counter lock").push(Counter {
                name: Cow::Borrowed(name),
                item,
                value,
            });
        }
    }

    /// Moves every recorded span and counter out of the tracer.
    pub fn take(&self) -> Trace {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span lock"));
        spans.sort_by_key(|s| s.id);
        Trace {
            spans,
            counters: std::mem::take(&mut *self.counters.lock().expect("counter lock")),
        }
    }
}

/// A finished trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: Vec<Counter>,
}

impl Trace {
    /// Writes the trace to `path`, creating its directory.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_ndjson(&mut out)?;
        out.flush()
    }

    /// Writes one JSON object per line: spans, then counters.
    pub fn write_ndjson(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"kind":"span","id":{},"parent":{},"name":{:?},"item":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.name, s.item, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counters {
            writeln!(
                out,
                r#"{{"kind":"counter","name":{:?},"item":{},"value":{}}}"#,
                c.name,
                c.item,
                finite(c.value)
            )?;
        }
        Ok(())
    }

    /// Self time per span id: its duration minus the time its children
    /// cover. Children of one span run on its thread, one after another.
    pub fn self_ns(&self) -> BTreeMap<u64, u64> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .map(|s| {
                let children = child_ns.get(&s.id).copied().unwrap_or(0);
                (s.id, s.dur_ns().saturating_sub(children))
            })
            .collect()
    }

    /// Per span name: summed self time (ns), span count, and the part of
    /// the self time spent inside `item.*` roots.
    pub fn by_name(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let selfs = self.self_ns();
        let roots = self.roots();
        let item_roots: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && s.name.starts_with("item."))
            .map(|s| s.id)
            .collect();
        let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name.to_string()).or_default();
            e.0 += selfs[&s.id];
            e.1 += 1;
            if item_roots.contains(&roots[&s.id]) {
                e.2 += selfs[&s.id];
            }
        }
        out
    }

    /// The root span id of every span. Parents are created before their
    /// children, so ids ascend from root to leaf.
    fn roots(&self) -> BTreeMap<u64, u64> {
        let mut root_of: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            let root = if s.parent == 0 {
                s.id
            } else {
                root_of.get(&s.parent).copied().unwrap_or(s.parent)
            };
            root_of.insert(s.id, root);
        }
        root_of
    }

    /// For every root span named `item.*`: (item id, item wall ns,
    /// summed self time of the layer spans below it).
    pub fn item_coverage(&self) -> Vec<(u64, u64, u64)> {
        let selfs = self.self_ns();
        let roots = self.roots();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.parent != 0) {
            *covered.entry(roots[&s.id]).or_default() += selfs[&s.id];
        }
        self.spans
            .iter()
            .filter(|s| s.parent == 0 && s.name.starts_with("item."))
            .map(|s| {
                let covered = covered.get(&s.id).copied().unwrap_or(0);
                (s.item, s.dur_ns(), covered)
            })
            .collect()
    }

    /// Durations (ns) of every span with this exact name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Reads a trace file written by [`Trace::write_file`].
pub fn load(path: &Path) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(std::io::BufReader::new(file))
}

/// Parses the NDJSON form written by [`Trace::write_ndjson`].
pub fn parse(input: impl BufRead) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (n, line) in input.lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let v = hls_serve::json::parse(&line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("line {}: no {k:?}", n + 1));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("line {}: {k:?} is not a number", n + 1))
        };
        let name = field("name")?
            .as_str()
            .ok_or_else(|| format!("line {}: bad name", n + 1))?
            .to_string()
            .into();
        match field("kind")?.as_str() {
            Some("span") => trace.spans.push(Span {
                id: num("id")? as u64,
                parent: num("parent")? as u64,
                name,
                item: num("item")? as u64,
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
            }),
            Some("counter") => trace.counters.push(Counter {
                name,
                item: num("item")? as u64,
                value: num("value")?,
            }),
            _ => return Err(format!("line {}: unknown kind", n + 1)),
        }
    }
    Ok(trace)
}

/// The per-layer table: one row per layer and per span name, with calls,
/// self time, and the share of traced item wall time spent there inside
/// items (spans outside items, such as explore-sweep's probe, count in
/// `self_ms` only).
pub fn layer_table(trace: &Trace) -> String {
    let by_name = trace.by_name();
    let items = trace.item_coverage();
    let item_wall: u64 = items.iter().map(|(_, w, _)| w).sum();
    let covered: u64 = items.iter().map(|(_, _, c)| c).sum();
    let mut layers: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (name, (ns, calls, in_items)) in &by_name {
        let e = layers.entry(layer_of(name)).or_default();
        e.0 += ns;
        e.1 += calls;
        e.2 += in_items;
    }
    let mut out = format!(
        "{:<28} {:>10} {:>12} {:>9}\n",
        "span (self time)", "calls", "self_ms", "of_items"
    );
    let mut row = |label: String, (ns, calls, in_items): (u64, u64, u64)| {
        out.push_str(&format!(
            "{label:<28} {calls:>10} {:>12.3} {:>8.1}%\n",
            ns as f64 / 1e6,
            pct(in_items, item_wall)
        ));
    };
    for (layer, totals) in &layers {
        row(layer.to_string(), *totals);
        for (name, totals) in &by_name {
            if layer_of(name) == *layer {
                row(format!("  {name}"), *totals);
            }
        }
    }
    out.push_str(&format!(
        "items {}  traced item wall {:.3} ms  layer self time {:.3} ms  coverage {:.2}%\n",
        items.len(),
        item_wall as f64 / 1e6,
        covered as f64 / 1e6,
        pct(covered, item_wall)
    ));
    out
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_round_trips() {
        let tr = Tracer::new(true);
        tr.span("item.x", 7, || {
            tr.span("opt.passes", 7, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("sched.schedule", 7, || tr.span("sched.inner", 7, || ()));
        });
        tr.count("opt.ops_before", 7, 12.0);
        let trace = tr.take();
        assert_eq!(trace.spans.len(), 4);
        let root = trace.spans.iter().find(|s| s.name == "item.x").unwrap();
        assert_eq!(root.parent, 0);
        let cov = trace.item_coverage();
        assert_eq!(cov.len(), 1);
        assert_eq!(cov[0].0, 7);
        assert!(cov[0].2 <= cov[0].1);
        assert!(cov[0].2 >= 2_000_000);

        let mut text = Vec::new();
        trace.write_ndjson(&mut text).unwrap();
        let back = parse(text.as_slice()).unwrap();
        assert_eq!(back, trace);
        assert!(layer_table(&back).contains("opt.passes"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span("item.x", 1, || 5), 5);
        tr.count("c", 1, 1.0);
        assert_eq!(tr.take(), Trace::default());
    }
}
