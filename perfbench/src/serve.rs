//! Shared pieces of the two serving workloads: the server shape, the
//! request builders, pipelined request batches and status counters.

use std::path::Path;
use std::time::{Duration, Instant};

use gals_common::fxmap::FxHashMap;
use gals_core::{McdConfig, SyncConfig};
use gals_explore::{MeasureItem, ResultCache, SweepEngine};
use gals_serve::{
    Client, Priority, Request, RequestKind, Response, ServeConfig, Server, Transport,
};
use gals_workloads::suite;

use crate::report::{median, stolen_ticks, Metrics, Tally};
use crate::spans::Tracer;
use crate::Ctx;

/// The benchmarks both serving workloads draw from: the nine MediaBench
/// programs whose 256-configuration program sweep cost within ±12% of
/// one another on the sizing host. A bulk sweep's job rate then does not
/// depend on which benchmark it sweeps; over all 16 MediaBench programs
/// the cost ranged 2.5×, and a run's bulk rate moved with the part of
/// the ring its window happened to cover.
pub const BENCHES: [&str; 9] = [
    "epic_encode",
    "epic_decode",
    "gsm_encode",
    "gsm_decode",
    "jpeg_compress",
    "jpeg_decompress",
    "mesa_texgen",
    "mpeg2_encode",
    "mpeg2_decode",
];

pub fn benches() -> Vec<String> {
    BENCHES.iter().map(|b| b.to_string()).collect()
}

/// One worker on the epoll reactor with a file-backed store in `dir`.
pub fn start(dir: &Path) -> Server {
    std::fs::create_dir_all(dir).expect("create the store directory");
    let cfg = ServeConfig {
        workers: 1,
        cache_path: Some(dir.join("store.json").display().to_string()),
        transport: Transport::Reactor,
        ..ServeConfig::default()
    };
    Server::start(cfg).expect("start the server")
}

pub fn run_config(
    id: String,
    bench: &str,
    mode: &str,
    cfg: usize,
    window: u64,
    priority: Priority,
) -> Request {
    let mut r = Request::new(
        id,
        RequestKind::RunConfig {
            bench: bench.to_string(),
            mode: mode.to_string(),
            cfg: Some(cfg),
            policy: None,
            window,
        },
    );
    r.priority = priority;
    r
}

/// Sends every request at once and waits for all of them; returns each
/// request's single `partial` value by id. Any other outcome is counted
/// as a failure in `tally`.
pub fn batch(client: &mut Client, reqs: &[Request], tally: &mut Tally) -> FxHashMap<String, f64> {
    for r in reqs {
        client.send(r).expect("send a set-up request");
    }
    let mut values = FxHashMap::default();
    let mut open = reqs.len();
    while open > 0 {
        match client.read_response().expect("read a set-up response") {
            Response::Partial { id, runtime_ns, .. } => {
                values.insert(id, runtime_ns);
            }
            Response::Done { .. } => open -= 1,
            other => {
                tally.fail(format!("set-up request: {other:?}"));
                if other.is_terminal() {
                    open -= 1;
                }
            }
        }
    }
    values
}

/// The server's `status` counters.
pub fn status(client: &mut Client) -> FxHashMap<String, f64> {
    let frames = client
        .request(&Request::new("status", RequestKind::Status))
        .expect("status request");
    match frames.last() {
        Some(Response::Status { counters, .. }) => counters.iter().cloned().collect(),
        other => panic!("status answered {other:?}"),
    }
}

/// Completions and their latencies in fixed-width time buckets over the
/// timed window `[t0, t0 + seconds)`, each bucket tagged with the CPU
/// time the hypervisor stole from this machine while it was open.
///
/// The figures come from the buckets with no stolen time in them or in
/// the bucket before (or, when fewer than a quarter are clean, the
/// least-stolen quarter). Buckets are a tenth of a second: under heavy
/// steal, quarter-second buckets were all stolen in some runs, and
/// their p99 read 2× a quiet run's. On a
/// shared virtual machine steal arrives in bursts of tens of
/// milliseconds, and a stalled vCPU holds every request in flight: on
/// the two-vCPU host used to size this benchmark, runs that overlapped
/// such bursts read up to 40% lower throughput and 5× the p99 with an
/// unchanged program, while its clean buckets read the same as a quiet
/// run's.
#[derive(Debug)]
pub struct Buckets {
    t0: Instant,
    width: f64,
    open: usize,
    steal_at_open: u64,
    steal: Vec<u64>,
    latencies_ns: Vec<Vec<u32>>,
}

impl Buckets {
    /// Buckets of at most `width` seconds, and at least ten of them.
    pub fn new(t0: Instant, seconds: f64, width: f64) -> Buckets {
        let width = (seconds / 10.0).min(width);
        let n = (seconds / width).floor().max(1.0) as usize;
        Buckets {
            t0,
            width,
            open: 0,
            steal_at_open: stolen_ticks(),
            steal: vec![0; n],
            latencies_ns: vec![Vec::new(); n],
        }
    }

    /// Closes every bucket that ended before `at`.
    fn roll(&mut self, at: Instant) {
        let b = (at.saturating_duration_since(self.t0).as_secs_f64() / self.width) as usize;
        while self.open < b.min(self.steal.len()) {
            let now = stolen_ticks();
            self.steal[self.open] = now.saturating_sub(self.steal_at_open);
            self.steal_at_open = now;
            self.open += 1;
        }
    }

    /// One completion at `at` that took `latency`.
    pub fn record(&mut self, at: Instant, latency: Duration) {
        self.roll(at);
        if let Some(v) = self.latencies_ns.get_mut(self.open) {
            v.push(u32::try_from(latency.as_nanos()).unwrap_or(u32::MAX));
        }
    }

    /// Closes the remaining buckets; call once the timed window is over.
    pub fn finish(&mut self) {
        self.roll(self.t0 + Duration::from_secs_f64(self.width * self.steal.len() as f64));
    }

    /// Stolen ticks charged to bucket `i`: its own and its
    /// predecessor's, since a request stalled at the end of one bucket
    /// completes in the next.
    fn exposure(&self, i: usize) -> u64 {
        self.steal[i] + if i > 0 { self.steal[i - 1] } else { 0 }
    }

    /// Indices of the buckets the figures use: every bucket with no
    /// stolen time charged, or the least-charged quarter when fewer are
    /// clean.
    fn chosen(&self) -> Vec<usize> {
        let n = self.steal.len();
        let quarter = n.div_ceil(4);
        let clean: Vec<usize> = (0..n).filter(|&i| self.exposure(i) == 0).collect();
        if clean.len() >= quarter {
            return clean;
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (self.exposure(i), i));
        idx.truncate(quarter);
        idx
    }

    /// Completions per second: the interquartile mean of the chosen
    /// buckets' counts. A median moved in whole steps when completions
    /// arrive in bursts (a cohort's eight jobs finish together, ~90 per
    /// bucket), which alone spread `serve_cold`'s bulk rate by ~9%.
    pub fn per_s(&self) -> f64 {
        let mut counts: Vec<f64> = self
            .chosen()
            .iter()
            .map(|&i| self.latencies_ns[i].len() as f64)
            .collect();
        counts.sort_by(f64::total_cmp);
        let q = counts.len() / 4;
        let middle = &counts[q..counts.len() - q];
        middle.iter().sum::<f64>() / middle.len() as f64 / self.width
    }

    /// Nearest-rank latency percentile (ms) over the chosen buckets.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut all: Vec<u32> = self
            .chosen()
            .iter()
            .flat_map(|&i| self.latencies_ns[i].iter().copied())
            .collect();
        all.sort_unstable();
        assert!(!all.is_empty(), "no completions in the chosen buckets");
        let rank = ((p / 100.0) * all.len() as f64).ceil() as usize;
        all[rank.clamp(1, all.len()) - 1] as f64 / 1e6
    }

    pub fn count(&self) -> usize {
        self.latencies_ns.iter().map(Vec::len).sum()
    }

    /// Appends another finished window's buckets (same width), so a run
    /// of several server instances reports over all of them.
    pub fn absorb(&mut self, other: Buckets) {
        assert_eq!(self.width, other.width, "bucket widths must match");
        self.steal.extend(other.steal);
        self.latencies_ns.extend(other.latencies_ns);
    }

    /// Share of buckets during which any CPU time was stolen.
    pub fn stolen_share(&self) -> f64 {
        self.steal.iter().filter(|&&s| s > 0).count() as f64 / self.steal.len() as f64
    }
}

/// Median time (ms) to open a connection to `server`.
pub fn connect_ms(server: &Server) -> f64 {
    let costs: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            let c = Client::connect(server.local_addr()).expect("connect");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            drop(c);
            ms
        })
        .collect();
    median(&costs)
}

/// `seconds` as a [`Duration`].
pub fn secs(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds)
}

/// The `serve` layer's per-layer figures. Every workload reports all of
/// them; each takes the ones its own timed phase measures and the rest
/// from [`probe`].
pub struct ServeLayer {
    pub connect_ms: f64,
    /// The server's `status` counters.
    pub counters: FxHashMap<String, f64>,
    /// Median service time of a high-priority job run directly through a
    /// `SweepEngine`, with nothing else queued.
    pub hi_direct_ms: f64,
    /// How much longer such a job takes served: the time it waits.
    pub hi_wait_ms: f64,
    /// Median latency of a cache-hit request.
    pub hot_ms: f64,
}

impl ServeLayer {
    /// Pushes the `serve.*` metrics. `metrics` must already hold the
    /// codec, store-read and scheduler costs, which the cache-hit
    /// latency's unattributed share leaves out.
    pub fn push(&self, metrics: &mut Metrics) {
        metrics.push("serve.connect_ms", self.connect_ms, "ms");
        for (metric, counter) in [
            ("serve.simulated", "simulated"),
            ("serve.cache_hits", "cache_hits"),
            ("serve.expired", "expired"),
            ("serve.cancelled", "cancelled"),
        ] {
            metrics.push(metric, self.counters[counter], "count");
        }
        metrics.push("serve.hi_direct_ms", self.hi_direct_ms, "ms");
        metrics.push("serve.hi_wait_ms", self.hi_wait_ms, "ms");
        // One request line in; a partial and a done frame out.
        let ns = |n: &str| metrics.get(n).expect("layer metric measured before");
        let attributed_ms = (ns("protocol.request_parse_ns")
            + 2.0 * ns("protocol.response_encode_ns")
            + 2.0 * ns("protocol.response_parse_ns")
            + ns("store.get_ns")
            + ns("sched.submit_pop_ns"))
            / 1e6;
        metrics.push(
            "serve.hot_unattributed_ms",
            self.hot_ms - attributed_ms,
            "ms",
        );
    }
}

/// Requests the serving-layer probe sends: enough for a median, few
/// enough to take well under a second.
pub const PROBE_PAIRS: usize = 24;

/// The serving layer probed on an idle server of the benchmark's shape.
/// Each distinct `(benchmark, prog configuration)` pair is requested at
/// high priority while uncached, and the same job is then run directly
/// through a `SweepEngine` (back to back, so both see the same host
/// speed); then every pair is requested again as a cache hit. One request
/// at a time. Served values must equal the direct ones, and the hits the
/// misses.
pub fn probe(dir: &Path, pairs: &[(String, usize)], window: u64, tally: &mut Tally) -> ServeLayer {
    let server = start(dir);
    let connect = connect_ms(&server);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let engine = SweepEngine::new(ResultCache::in_memory()).with_threads(1);
    let mut benches: Vec<&str> = pairs.iter().map(|p| p.0.as_str()).collect();
    benches.sort_unstable();
    benches.dedup();
    // Record every trace first (a sync job, longer than the window), in
    // the server and in the engine, so the timed jobs measure simulation
    // rather than trace capture.
    let warm_window = window + 64;
    let warm: Vec<Request> = benches
        .iter()
        .enumerate()
        .map(|(i, b)| run_config(format!("w{i}"), b, "sync", 0, warm_window, Priority::Normal))
        .collect();
    batch(&mut client, &warm, tally);
    let spec = |b: &str| suite::by_name(b).expect("suite benchmark");
    let warm: Vec<MeasureItem> = benches
        .iter()
        .map(|b| MeasureItem::sync(spec(b), SyncConfig::paper_best()))
        .collect();
    engine.measure_owned(warm, warm_window);

    let mut one = |id: String, (bench, cfg): &(String, usize), tally: &mut Tally| {
        let req = run_config(id.clone(), bench, "prog", *cfg, window, Priority::High);
        let t = Instant::now();
        let frames = client.request(&req).expect("probe request");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match frames.as_slice() {
            [Response::Partial { runtime_ns, .. }, Response::Done { .. }] => (ms, *runtime_ns),
            other => {
                tally.fail(format!("probe {id}: {other:?}"));
                (ms, f64::NAN)
            }
        }
    };
    let (mut direct, mut wait, mut values) = (vec![], vec![], vec![]);
    for (i, pair) in pairs.iter().enumerate() {
        let (served_ms, served) = one(format!("c{i}"), pair, tally);
        let item = MeasureItem::program(spec(&pair.0), McdConfig::enumerate()[pair.1]);
        let t = Instant::now();
        let value = engine.measure_owned(vec![item], window)[0];
        let direct_ms = t.elapsed().as_secs_f64() * 1e3;
        direct.push(direct_ms);
        wait.push(served_ms - direct_ms);
        tally.check_eq(&format!("probe {}/{}", pair.0, pair.1), value, served);
        values.push(served);
    }
    let mut hot = Vec::with_capacity(pairs.len());
    for (i, (pair, served)) in pairs.iter().zip(values).enumerate() {
        let (ms, hit) = one(format!("h{i}"), pair, tally);
        hot.push(ms);
        tally.check_eq(&format!("probe hit {}/{}", pair.0, pair.1), served, hit);
    }
    let counters = status(&mut client);
    drop(client);
    server.shutdown();
    ServeLayer {
        connect_ms: connect,
        counters,
        hi_direct_ms: median(&direct),
        hi_wait_ms: median(&wait),
        hot_ms: median(&hot),
    }
}

/// The `explore::engine` layer on a serving workload's own benchmarks:
/// the staged Figure 6 pipeline over them, at short windows (the serving
/// workloads run no pipeline of their own).
pub fn engine_layer(benches: &[String], ctx: &Ctx, tracer: &Tracer, metrics: &mut Metrics) {
    let specs: Vec<_> = benches
        .iter()
        .map(|b| suite::by_name(b).expect("suite benchmark"))
        .collect();
    let (sweep, fin) = if ctx.tiny { (200, 500) } else { (1_000, 5_000) };
    crate::figure6::engine_layer(&specs, sweep, fin, tracer, metrics);
}
