//! Shared plumbing: order statistics, the in-memory span recorder, the
//! timer-cost probe, peak RSS, provenance, and the FNV digest.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for an even count); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`; 0 for none.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A fixed-size uniform sample of a stream (reservoir sampling with a
/// seeded generator): quantiles are exact until `CAP` samples and
/// unbiased estimates after, and the memory is allocated and touched up
/// front, so the run's peak RSS does not grow with its round count.
pub struct Reservoir {
    buf: Vec<f64>,
    len: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    pub const CAP: usize = 200_000;

    pub fn new() -> Reservoir {
        Reservoir {
            buf: vec![0.0; Self::CAP],
            len: 0,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.len < Self::CAP {
            self.buf[self.len] = x;
            self.len += 1;
            return;
        }
        // xorshift64*: deterministic replacement slots.
        self.rng ^= self.rng >> 12;
        self.rng ^= self.rng << 25;
        self.rng ^= self.rng >> 27;
        let r = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % self.seen;
        if let Some(slot) = self.buf.get_mut(r as usize) {
            *slot = x;
        }
    }

    /// Samples offered so far (not only those kept).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    pub fn samples(&self) -> &[f64] {
        &self.buf[..self.len]
    }
}

/// Nanoseconds in `d`, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// One recorded span: a named interval on one thread group, optionally
/// caused by another span, covering `items` units of work.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub group: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same recorder, if any.
    pub parent: Option<u32>,
    pub items: u64,
}

/// Spans kept in memory, written out once the benchmark ends. Recording
/// is off for untraced runs: `begin`/`end` then cost one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans past the cap are tallied here instead of stored.
    dropped: u64,
}

/// At most this many spans are stored per recorder; totals stay exact.
const SPAN_CAP: usize = 400_000;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; returns its start instant (None when tracing is off).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened with [`Tracer::begin`]; returns its index.
    #[inline]
    pub fn end(
        &mut self,
        start: Option<Instant>,
        name: &'static str,
        group: &'static str,
        parent: Option<u32>,
        items: u64,
    ) -> Option<u32> {
        let start = start?;
        let end = Instant::now();
        self.push(Span {
            name,
            group,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            items,
        })
    }

    /// Records an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        group: &'static str,
        start: Instant,
        end: Instant,
        items: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        self.push(Span {
            name,
            group,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent: None,
            items,
        })
    }

    fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some((self.spans.len() - 1) as u32)
    }

    /// Moves another recorder's spans in (re-basing parent indices).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            let _ = self.push(s);
        }
        self.dropped += other.dropped;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time and items of every span named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| {
                (t + (s.end_ns - s.start_ns) as f64, n + s.items)
            })
    }

    /// Count of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"group\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"items\":{}}}",
                s.name,
                s.group,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.items
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "{{\"dropped_spans\":{}}}", self.dropped);
        }
        out
    }
}

/// Mean cost of one `Instant::now()` pair, in nanoseconds: the timer's
/// own cost, subtracted from per-call timings.
pub fn timer_cost_ns() -> f64 {
    let mut samples = Vec::with_capacity(21);
    for _ in 0..21 {
        let n = 20_000u32;
        let mut acc = Duration::ZERO;
        for _ in 0..n {
            let a = Instant::now();
            let b = Instant::now();
            acc += b - a;
        }
        samples.push(ns(acc) / f64::from(n));
    }
    median(&samples)
}

/// Cost of recording one span (begin + end), in nanoseconds.
pub fn span_cost_ns(epoch: Instant) -> f64 {
    let mut t = Tracer::new(true, epoch);
    let n = 100_000u64;
    let started = Instant::now();
    for i in 0..n {
        let s = t.begin();
        std::hint::black_box(i);
        t.end(s, "probe", "probe", None, 1);
    }
    ns(started.elapsed()) / n as f64
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's aggregate CPU steal and total jiffies so far (`/proc/stat`),
/// for tagging a run with how much of the machine a hypervisor took away.
pub fn cpu_steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user).
    let total = v.iter().take(8).sum();
    Some((*v.get(7)?, total))
}

/// 64-bit FNV-1a: a change detector for pinned outputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Escapes a string for a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON with all its digits (non-finite becomes 0).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The machine and build a result was measured on.
pub struct Provenance {
    pub git_rev: String,
    pub source_digest: String,
    pub command: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub net_features: String,
}

impl Provenance {
    pub fn collect() -> Provenance {
        Provenance {
            git_rev: git_rev().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
            source_digest: source_digest(),
            command: std::env::args().collect::<Vec<_>>().join(" "),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split(':').nth(1))
                        .map(|m| m.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("BENCH_RUSTC_VERSION"),
            net_features: net_features(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\":{},\"source_digest\":{},\"command\":{},\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"smbm_net_features\":{}}}",
            json_str(&self.git_rev),
            json_str(&self.source_digest),
            json_str(&self.command),
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.rustc),
            json_str(&self.net_features),
        )
    }
}

/// The checked-out commit, read from `.git` without running git (so a
/// checkout nested in some other repository never reports that one).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            }),
        None => Some(head.to_owned()),
    }
}

/// FNV digest over the sources the benchmark builds (the root manifest and
/// lock file, every file under `crates/`, `vendor/` and this package's
/// `src/`), in sorted path order: identifies the code when no git
/// metadata is present.
fn source_digest() -> String {
    let mut files = vec![
        std::path::PathBuf::from("Cargo.toml"),
        std::path::PathBuf::from("Cargo.lock"),
    ];
    for root in ["crates", "vendor", "e2e_bench/src"] {
        collect_files(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = fnv1a(&[]);
    let mut n = 0usize;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            n += 1;
            h = fnv1a_extend(h, f.to_string_lossy().as_bytes());
            h = fnv1a_extend(h, &bytes);
        }
    }
    format!("fnv1a64:{h:016x} over {n} files")
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => {
                if p.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                collect_files(&p, out);
            }
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}

/// The features this package builds `smbm-net` with, read from its own
/// manifest at compile time (the only dependent of `smbm-net` in this
/// package's workspace, so no other crate can unify features into it).
fn net_features() -> String {
    let manifest = include_str!("../Cargo.toml");
    let line = manifest
        .lines()
        .find(|l| l.trim_start().starts_with("smbm-net"))
        .unwrap_or("");
    if line.contains("features") {
        format!("as declared: {}", line.trim())
    } else {
        "default (portable path; mmsg off)".to_owned()
    }
}
