//! The measurement window: every call the driver makes into the program
//! is timed from outside, attributed to a time slice, and — in a traced
//! run — recorded as a span (name, start, end, parent, request id).
//!
//! Spans stay in memory and are written out once, after the window, to
//! `benchmark/out/trace-<workload>.json`. Untraced and traced windows make
//! the same calls with the same timers; tracing adds only the recording,
//! and `trace.overhead_frac` reports what that costs.

use crate::stats::Slice;
use std::time::Instant;

/// Slices a window is cut into; throughput is the median slice's rate, so
/// one stalled slice (a VM steal, a page-fault storm) cannot move it.
pub const SLICES: u64 = 20;

/// The driver-side call sites, one span name each. `Request` is the root
/// span that groups the calls made for one batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Call {
    Request,
    PcapRead,
    ParseFrame,
    Advance,
    ProcessBatch,
    RequestUpdate,
    CloseConnection,
    RewriteFrame,
    StreamBatch,
    StreamDrain,
}

pub const CALLS: usize = 10;

const CALL_NAMES: [&str; CALLS] = [
    "request",
    "pcap_read",
    "parse_frame",
    "advance",
    "process_batch_into",
    "request_update",
    "close_connection",
    "rewrite_frame",
    "stream_batch",
    "stream_drain",
];

/// One recorded span. `parent` and `request` tie a call to the batch that
/// caused it; roots carry `parent == u32::MAX`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub call: Call,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
    /// Packets, frames or connections the call covered.
    pub items: u32,
}

/// Count, time and items accumulated per call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallTotal {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
}

impl CallTotal {
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns as f64, self.calls as f64)
    }

    pub fn ns_per_item(&self) -> f64 {
        ratio(self.ns as f64, self.items as f64)
    }
}

/// `a ÷ b`, 0 when `b` is 0 (a layer off the workload's path).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One measurement window.
pub struct Meter {
    origin: Instant,
    window_ns: u64,
    slice_ns: u64,
    slices: Vec<Slice>,
    /// In-call ns ÷ packets of every request that carried packets.
    pub pkt_ns: Vec<f32>,
    /// In-call ns of every request that carried packets.
    pub batch_ns: Vec<f32>,
    /// Packets carried by timed calls.
    pub packets: u64,
    /// Nanoseconds inside calls into the program.
    pub busy_ns: u64,
    pub totals: [CallTotal; CALLS],
    tracing: bool,
    spans: Vec<Span>,
    root: u32,
    request: u32,
    req_ns: u64,
    req_packets: u32,
    wall_ns: u64,
}

impl Meter {
    /// A window of `seconds`, starting now.
    pub fn start(seconds: f64, tracing: bool) -> Meter {
        let window_ns = (seconds.max(0.001) * 1e9) as u64;
        Meter {
            origin: Instant::now(),
            window_ns,
            slice_ns: (window_ns / SLICES).max(1),
            slices: Vec::with_capacity(SLICES as usize + 4),
            pkt_ns: Vec::new(),
            batch_ns: Vec::new(),
            packets: 0,
            busy_ns: 0,
            totals: [CallTotal::default(); CALLS],
            tracing,
            spans: Vec::new(),
            root: u32::MAX,
            request: 0,
            req_ns: 0,
            req_packets: 0,
            wall_ns: 0,
        }
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Whether the window's time is up (workloads finish their current
    /// unit first, so a window can run slightly long).
    pub fn expired(&self) -> bool {
        self.elapsed_ns() >= self.window_ns
    }

    /// Stop the window's clock (after its last unit).
    pub fn finish(&mut self) {
        self.wall_ns = self.elapsed_ns();
    }

    /// Wall-clock length of the finished window: calls into the program
    /// plus everything the driver did between them.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// Open the request (one batch and the calls made for it) the next
    /// calls belong to; in a traced window this is their root span.
    pub fn begin_request(&mut self) {
        self.request = self.request.wrapping_add(1);
        self.req_ns = 0;
        self.req_packets = 0;
        if self.tracing {
            self.root = self.spans.len() as u32;
            self.spans.push(Span {
                call: Call::Request,
                start_ns: u64::MAX,
                end_ns: 0,
                parent: u32::MAX,
                request: self.request,
                items: 0,
            });
        }
    }

    /// Close the request: if it carried packets, its in-call time becomes
    /// one sample of the per-batch and per-packet distributions.
    pub fn end_request(&mut self) {
        if self.req_packets > 0 {
            self.batch_ns.push(self.req_ns as f32);
            self.pkt_ns
                .push(self.req_ns as f32 / self.req_packets as f32);
        }
    }

    /// Time one call into the program. `items` is what it covered;
    /// `carries_packets` marks the calls whose items are the packets the
    /// throughput metrics count.
    #[inline]
    pub fn call<R>(
        &mut self,
        call: Call,
        items: u32,
        carries_packets: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = self.origin.elapsed().as_nanos() as u64;
        let r = f();
        let t1 = self.origin.elapsed().as_nanos() as u64;
        let ns = t1 - t0;
        let total = &mut self.totals[call as usize];
        total.calls += 1;
        total.ns += ns;
        total.items += u64::from(items);
        self.busy_ns += ns;
        self.req_ns += ns;
        let k = (t0 / self.slice_ns) as usize;
        if k >= self.slices.len() {
            self.slices.resize(k + 1, Slice::default());
        }
        self.slices[k].busy_ns += ns;
        if carries_packets {
            self.slices[k].packets += u64::from(items);
            self.packets += u64::from(items);
            self.req_packets += items;
        }
        if self.tracing {
            if let Some(root) = self.spans.get_mut(self.root as usize) {
                root.start_ns = root.start_ns.min(t0);
                root.end_ns = t1;
                root.items += u32::from(carries_packets) * items;
            }
            self.spans.push(Span {
                call,
                start_ns: t0,
                end_ns: t1,
                parent: self.root,
                request: self.request,
                items,
            });
        }
        r
    }

    /// Slices that lie wholly inside the window's nominal length (a unit
    /// finishing after the deadline spills into extra, partial slices).
    pub fn full_slices(&self) -> &[Slice] {
        &self.slices[..self.slices.len().min(SLICES as usize)]
    }

    pub fn total(&self, call: Call) -> CallTotal {
        self.totals[call as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean in-call nanoseconds per packet over the whole window.
    pub fn busy_ns_per_pkt(&self) -> f64 {
        ratio(self.busy_ns as f64, self.packets as f64)
    }
}

/// Spans written per trace file; a longer window keeps its first spans
/// and states how many it recorded.
const MAX_SPANS_WRITTEN: usize = 400_000;

/// Write a traced window's spans as compact JSON:
/// `[call, start_ns, end_ns, parent, request, items]` per span.
pub fn write_trace(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        w,
        "{{\"workload\": {}, \"recorded\": {}, \"calls\": [",
        crate::json::quote(workload),
        spans.len()
    )?;
    for (i, n) in CALL_NAMES.iter().enumerate() {
        write!(w, "{}\"{n}\"", if i == 0 { "" } else { ", " })?;
    }
    writeln!(
        w,
        "],\n\"columns\": [\"call\", \"start_ns\", \"end_ns\", \"parent\", \"request\", \"items\"],\n\"spans\": ["
    )?;
    let n = spans.len().min(MAX_SPANS_WRITTEN);
    for (i, s) in spans[..n].iter().enumerate() {
        let parent = if s.parent == u32::MAX {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            w,
            "[{}, {}, {}, {}, {}, {}]{}",
            s.call as u8,
            s.start_ns,
            s.end_ns,
            parent,
            s.request,
            s.items,
            if i + 1 == n { "" } else { "," }
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_feed_totals_slices_and_spans() {
        let mut m = Meter::start(0.05, true);
        for _ in 0..3 {
            m.begin_request();
            m.call(Call::Advance, 0, false, || std::hint::black_box(1 + 1));
            m.call(Call::ProcessBatch, 256, true, || {
                std::hint::black_box((0..1_000).sum::<u64>())
            });
            m.end_request();
        }
        assert_eq!(m.packets, 768);
        assert_eq!(m.total(Call::ProcessBatch).calls, 3);
        assert_eq!(m.total(Call::ProcessBatch).items, 768);
        assert_eq!(m.total(Call::Advance).calls, 3);
        assert_eq!(m.pkt_ns.len(), 3);
        assert_eq!(
            m.busy_ns,
            m.totals.iter().map(|t| t.ns).sum::<u64>(),
            "busy time is exactly the sum of the calls"
        );
        let sliced: u64 = m.full_slices().iter().map(|s| s.packets).sum();
        assert_eq!(sliced, 768);
        // 3 roots + 6 children; children point at their root, roots span them.
        assert_eq!(m.spans().len(), 9);
        for s in m.spans().iter().filter(|s| s.call != Call::Request) {
            let root = m.spans()[s.parent as usize];
            assert_eq!(root.call, Call::Request);
            assert_eq!(root.request, s.request);
            assert!(root.start_ns <= s.start_ns && s.end_ns <= root.end_ns);
        }
        assert!(m
            .spans()
            .iter()
            .filter(|s| s.call == Call::Request)
            .all(|s| s.items == 256));
    }

    #[test]
    fn untraced_windows_record_no_spans() {
        let mut m = Meter::start(0.01, false);
        m.begin_request();
        m.call(Call::ProcessBatch, 10, true, || ());
        assert!(m.spans().is_empty());
        assert_eq!(m.packets, 10);
    }

    #[test]
    fn trace_file_is_valid_json() {
        let mut m = Meter::start(0.01, true);
        m.begin_request();
        m.call(Call::StreamBatch, 4, true, || ());
        // Inside the package's ignored out/ directory: tests, like runs,
        // write nothing outside the checkout.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace-test.json");
        write_trace(&path, "hit-64k", m.spans()).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().len(), 2);
        assert_eq!(doc.get("calls").unwrap().as_arr().len(), CALLS);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
