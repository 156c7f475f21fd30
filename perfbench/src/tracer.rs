//! Host-time spans around the public calls into each layer.
//!
//! Every timed call adds its wall time and allocation count to a per-site
//! accumulator. The first [`SPAN_CAP`] spans of a run are also kept in
//! memory (name, start, end, parent event, request id) and written at exit
//! as Chrome trace-event JSON, one track per layer.

use std::fmt::Write as _;
use std::time::Instant;

use crate::alloc;

/// Spans kept for the span file; later calls are still timed and counted.
pub const SPAN_CAP: usize = 100_000;

/// The layers spans are grouped into (one trace track each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Event routing and stack construction (`barrier-io`).
    Core,
    /// The event queue (`bio-sim`).
    Sim,
    /// Operation generators (`bio-workloads`).
    Workloads,
    /// The filesystem (`bio-fs`).
    Fs,
    /// The block layer (`bio-block`).
    Block,
    /// The devices, reached through the block layer (`bio-flash`).
    Flash,
    /// Crash capture and enumeration (`bio-bench`).
    Bench,
}

impl Layer {
    /// Every layer, in track order.
    pub const ALL: [Layer; 7] = [
        Layer::Core,
        Layer::Sim,
        Layer::Workloads,
        Layer::Fs,
        Layer::Block,
        Layer::Flash,
        Layer::Bench,
    ];

    /// Track name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Sim => "sim",
            Layer::Workloads => "workloads",
            Layer::Fs => "fs",
            Layer::Block => "block",
            Layer::Flash => "flash",
            Layer::Bench => "bench",
        }
    }
}

/// A timed call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One popped event, from pop to the end of its routing (root span).
    Event,
    /// `EventQueue::pop_at_or_before`.
    QueuePop,
    /// `EventQueue::push*`.
    QueuePush,
    /// `Workload::next_op`.
    NextOp,
    /// A filesystem syscall (`create` … `fdatabarrier`).
    Syscall,
    /// `Filesystem::handle(CommitRun)`.
    Commit,
    /// `Filesystem::handle(ReqDone)`.
    ReqDone,
    /// `Filesystem::handle(Step)`.
    FsStep,
    /// `Filesystem::handle(Pdflush)`.
    Pdflush,
    /// `Filesystem::handle` of any other event.
    FsOther,
    /// `BlockLayer::submit`.
    Submit,
    /// `BlockLayer::handle(Retry)`.
    Retry,
    /// `BlockLayer::handle(Dev{..})`: a device event and its completions.
    DevEvent,
    /// Stack construction, population and warm-up of one cell.
    Setup,
    /// `IoStack::step` calls between two crash captures.
    Drive,
    /// `CaptureCursor::capture`.
    Capture,
    /// `crash::enumerate_point`.
    Enumerate,
}

/// Number of [`Site`]s.
pub const SITES: usize = 17;

impl Site {
    /// Every site, in index order.
    pub const ALL: [Site; SITES] = [
        Site::Event,
        Site::QueuePop,
        Site::QueuePush,
        Site::NextOp,
        Site::Syscall,
        Site::Commit,
        Site::ReqDone,
        Site::FsStep,
        Site::Pdflush,
        Site::FsOther,
        Site::Submit,
        Site::Retry,
        Site::DevEvent,
        Site::Setup,
        Site::Drive,
        Site::Capture,
        Site::Enumerate,
    ];

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Site::Event => "event",
            Site::QueuePop => "queue.pop",
            Site::QueuePush => "queue.push",
            Site::NextOp => "next_op",
            Site::Syscall => "syscall",
            Site::Commit => "commit",
            Site::ReqDone => "req_done",
            Site::FsStep => "step",
            Site::Pdflush => "pdflush",
            Site::FsOther => "handle",
            Site::Submit => "submit",
            Site::Retry => "retry",
            Site::DevEvent => "dev_event",
            Site::Setup => "setup",
            Site::Drive => "drive",
            Site::Capture => "capture",
            Site::Enumerate => "enumerate",
        }
    }

    /// The layer whose track the span lands on.
    pub fn layer(self) -> Layer {
        match self {
            Site::Event | Site::Setup => Layer::Core,
            Site::QueuePop | Site::QueuePush => Layer::Sim,
            Site::NextOp => Layer::Workloads,
            Site::Syscall
            | Site::Commit
            | Site::ReqDone
            | Site::FsStep
            | Site::Pdflush
            | Site::FsOther => Layer::Fs,
            Site::Submit | Site::Retry => Layer::Block,
            Site::DevEvent => Layer::Flash,
            Site::Drive | Site::Capture | Site::Enumerate => Layer::Bench,
        }
    }
}

/// Accumulated cost of one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Calls timed.
    pub calls: u64,
    /// Host nanoseconds inside the calls.
    pub ns: u64,
    /// Heap allocations inside the calls.
    pub allocs: u64,
}

impl Acc {
    /// Mean nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        ratio(self.ns, self.calls)
    }

    /// Mean allocations per call (0 when never called).
    pub fn allocs_per_call(&self) -> f64 {
        ratio(self.allocs, self.calls)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per-site accumulators plus the root spans' self time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCosts {
    /// One accumulator per [`Site`], by index.
    pub sites: [Acc; SITES],
    /// Host ns of event spans not covered by a child layer span.
    pub event_self_ns: u64,
}

impl LayerCosts {
    /// The accumulator of one site.
    pub fn site(&self, s: Site) -> &Acc {
        &self.sites[s as usize]
    }

    /// Adds another set of costs into this one.
    pub fn merge(&mut self, o: &LayerCosts) {
        self.merge_where(o, |_| true);
    }

    /// Adds the costs of the sites `keep` selects.
    pub fn merge_where(&mut self, o: &LayerCosts, keep: impl Fn(Site) -> bool) {
        for site in Site::ALL.into_iter().filter(|&s| keep(s)) {
            let (a, b) = (&mut self.sites[site as usize], &o.sites[site as usize]);
            a.calls += b.calls;
            a.ns += b.ns;
            a.allocs += b.allocs;
        }
        if keep(Site::Event) {
            self.event_self_ns += o.event_self_ns;
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    site: Site,
    start_ns: u64,
    dur_ns: u64,
    /// Root event id this span ran under (its own id for a root span).
    event: u64,
    /// Block request id, where the public types expose it.
    req: Option<u64>,
}

/// A started span: host time and allocation count at entry.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    ns: u64,
    allocs: u64,
}

/// Span recorder and cost accumulator.
pub struct Tracer {
    origin: Instant,
    /// Costs accumulated since the last [`Tracer::take_costs`].
    costs: LayerCosts,
    spans: Vec<Span>,
    keep_spans: bool,
    /// Id of the open root event span (0 outside events).
    event: u64,
    next_event: u64,
    /// Child ns inside the open root span.
    child_ns: u64,
}

impl Tracer {
    /// A tracer that keeps up to [`SPAN_CAP`] spans when `keep_spans`.
    pub fn new(keep_spans: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            costs: LayerCosts::default(),
            spans: Vec::new(),
            keep_spans,
            event: 0,
            next_event: 1,
            child_ns: 0,
        }
    }

    /// Stops keeping spans (costs are still accumulated).
    pub fn stop_keeping_spans(&mut self) {
        self.keep_spans = false;
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span.
    #[inline]
    pub fn begin(&self) -> Mark {
        Mark {
            ns: self.now_ns(),
            allocs: alloc::allocs(),
        }
    }

    /// Ends a child span opened with [`Tracer::begin`].
    #[inline]
    pub fn end(&mut self, site: Site, m: Mark, req: Option<u64>) {
        let (ns, allocs) = (self.now_ns(), alloc::allocs());
        let dur = ns - m.ns;
        let acc = &mut self.costs.sites[site as usize];
        acc.calls += 1;
        acc.ns += dur;
        acc.allocs += allocs - m.allocs;
        self.child_ns += dur;
        self.keep(site, m.ns, dur, self.event, req);
    }

    /// Adds one call's cost without recording a span.
    pub fn record(&mut self, site: Site, ns: u64, allocs: u64) {
        let acc = &mut self.costs.sites[site as usize];
        acc.calls += 1;
        acc.ns += ns;
        acc.allocs += allocs;
    }

    /// Opens a root event span; children recorded until
    /// [`Tracer::end_event`] are attributed to it.
    #[inline]
    pub fn begin_event(&mut self) -> Mark {
        self.event = self.next_event;
        self.next_event += 1;
        self.child_ns = 0;
        self.begin()
    }

    /// Closes the root event span; its self time is what no child covered.
    #[inline]
    pub fn end_event(&mut self, m: Mark) {
        let (ns, allocs) = (self.now_ns(), alloc::allocs());
        let dur = ns - m.ns;
        let acc = &mut self.costs.sites[Site::Event as usize];
        acc.calls += 1;
        acc.ns += dur;
        acc.allocs += allocs - m.allocs;
        self.costs.event_self_ns += dur.saturating_sub(self.child_ns);
        let id = self.event;
        self.keep(Site::Event, m.ns, dur, id, None);
        self.event = 0;
        self.child_ns = 0;
    }

    /// Drops the open root event span without recording it (the pop that
    /// opened it found no event).
    pub fn abandon_event(&mut self) {
        self.event = 0;
        self.child_ns = 0;
    }

    #[inline]
    fn keep(&mut self, site: Site, start_ns: u64, dur_ns: u64, event: u64, req: Option<u64>) {
        if self.keep_spans && self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                site,
                start_ns,
                dur_ns,
                event,
                req,
            });
        }
    }

    /// Returns and clears the accumulated costs.
    pub fn take_costs(&mut self) -> LayerCosts {
        std::mem::take(&mut self.costs)
    }

    /// Spans kept so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Renders the kept spans as Chrome trace-event JSON (Perfetto and
    /// `chrome://tracing` open it): one complete (`"ph":"X"`) event per
    /// span, one thread track per layer, times in microseconds.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, layer) in Layer::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":\"{}\"}}}}",
                layer.name()
            );
        }
        for s in &self.spans {
            let layer = s.site.layer();
            let tid = Layer::ALL.iter().position(|l| *l == layer).unwrap_or(0);
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"event\":{}",
                s.site.name(),
                layer.name(),
                s.start_ns as f64 / 1000.0,
                s.dur_ns as f64 / 1000.0,
                s.event,
            );
            if let Some(r) = s.req {
                let _ = write!(out, ",\"req\":{r}");
            }
            out.push_str("}}");
        }
        out.push('\n');
        out.push_str("]}\n");
        out
    }
}
