//! In-memory spans recorded by the benchmark around its calls into each
//! layer (crate), and the self-time accounting over them.
//!
//! A span has a layer, a name, a start, an end and the span that was open
//! when it started. Calls too frequent for a span each (one per RoCC
//! command) are recorded as an *aggregate* under the span that issued them:
//! a count and a summed duration, charged to their own layer and taken out
//! of the parent's self time. Nothing is written until [`Tracer::write`].

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Host time between two reference slices (see [`Tracer::tick`]).
const SLICE_EVERY: Duration = Duration::from_millis(50);
/// Instructions the reference interpreter runs per slice.
const SLICE_OPS: u64 = 400_000;

/// A fixed toy interpreter owned by the benchmark: a fetch-decode-execute
/// loop over a small register file and memory, like the simulators' hot
/// loop but with code no change to the repository's crates can touch.
fn reference_slice() -> u64 {
    const PROGRAM: [(u8, usize, usize); 8] = [
        (0, 1, 2), // r1 += r2
        (1, 2, 1), // r2 ^= r1 << 7
        (2, 3, 1), // r3 = mem[r1]
        (0, 3, 4), // r3 += r4
        (3, 2, 3), // mem[r2] = r3
        (4, 4, 3), // r4 = r4.rotate_left(r3)
        (1, 1, 4), // r1 ^= r4 << 7
        (5, 0, 0), // loop
    ];
    let mut regs = [0x9E37_79B9_7F4A_7C15u64, 1, 2, 3, 5];
    let mut memory = [0u64; 1024];
    let mut pc = 0;
    for _ in 0..SLICE_OPS {
        let (op, a, b) = PROGRAM[std::hint::black_box(pc)];
        match op {
            0 => regs[a] = regs[a].wrapping_add(regs[b]),
            1 => regs[a] ^= regs[b] << 7,
            2 => regs[a] = memory[(regs[b] as usize) & 1023],
            3 => memory[(regs[a] as usize) & 1023] = regs[b],
            4 => regs[a] = regs[a].rotate_left((regs[b] & 63) as u32),
            _ => {}
        }
        pc = (pc + 1) % PROGRAM.len();
    }
    std::hint::black_box(regs[1] ^ memory[(regs[2] as usize) & 1023])
}

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Calls summed under one span instead of recorded one by one.
#[derive(Debug, Clone)]
pub struct Aggregate {
    pub parent: usize,
    pub layer: &'static str,
    pub name: &'static str,
    pub count: u64,
    pub ns: u64,
}

/// Records spans when enabled; when disabled every call is a plain
/// pass-through, so untraced and traced passes run identical code.
///
/// It also keeps the host-speed meter: short reference slices run between
/// cases, whose durations say how fast the host ran the pass.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
    open: Vec<usize>,
    last_slice: Instant,
    slices: Vec<f64>,
    slice_time: Duration,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
            last_slice: Instant::now(),
            slices: Vec::new(),
            slice_time: Duration::ZERO,
        }
    }

    /// Called between cases: runs a reference slice if the last one is
    /// more than [`SLICE_EVERY`] ago.
    pub fn tick(&mut self) {
        if self.last_slice.elapsed() < SLICE_EVERY {
            return;
        }
        let start = Instant::now();
        reference_slice();
        let took = start.elapsed();
        self.slice_time += took;
        self.slices.push(took.as_secs_f64());
        self.last_slice = Instant::now();
    }

    /// Host time spent in reference slices so far.
    pub fn slice_time(&self) -> Duration {
        self.slice_time
    }

    /// Durations (s) of the reference slices from index `from` on.
    pub fn slices_since(&self, from: usize) -> &[f64] {
        &self.slices[from.min(self.slices.len())..]
    }

    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// Runs `f` inside a span named `name` charged to `layer`.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans[id].end_ns = end_ns;
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(id), "spans close in LIFO order");
        }
    }

    /// Records `count` calls summing `ns` under span `parent`.
    pub fn aggregate(
        &mut self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        count: u64,
        ns: u64,
    ) {
        if let Some(parent) = parent {
            self.aggregates.push(Aggregate {
                parent,
                layer,
                name,
                count,
                ns,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (s) of the spans named `name` among the first `end`.
    pub fn total(&self, name: &str, end: usize) -> f64 {
        self.spans[..end.min(self.spans.len())]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Self time (s) per layer: each span's duration minus the part its
    /// direct child spans and aggregates cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
        for aggregate in &self.aggregates {
            covered[aggregate.parent] += aggregate.ns;
            *layers.entry(aggregate.layer).or_default() += aggregate.ns as f64 * 1e-9;
        }
        for (span, covered) in self.spans.iter().zip(covered) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *layers.entry(span.layer).or_default() += own as f64 * 1e-9;
        }
        layers
    }

    /// Seconds covered by root spans (those with no parent).
    pub fn root_seconds(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span and aggregate as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("kind\tid\tparent\tlayer\tname\tstart_ns\tend_ns\tcount\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{id}\t{parent}\t{}\t{}\t{}\t{}\t1",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        for a in &self.aggregates {
            let start = self.spans[a.parent].start_ns;
            let _ = writeln!(
                out,
                "aggregate\t-\t{}\t{}\t{}\t{start}\t{}\t{}",
                a.parent,
                a.layer,
                a.name,
                start + a.ns,
                a.count
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
