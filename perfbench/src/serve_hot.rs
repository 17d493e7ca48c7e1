//! `serve_hot`: cache-hit requests through the reactor. Two connections
//! run closed loop with eight requests in flight each, over a hot set
//! prewarmed in set-up, so the simulator does no work and the per-request
//! cost of `serve`, the scheduler's admission and the store's reads is
//! what is measured.

use std::time::Instant;

use gals_common::fxmap::{FxHashMap, FxHashSet};
use gals_common::SplitMix64;
use gals_core::{McdConfig, SyncConfig};
use gals_explore::MeasureItem;
use gals_serve::{Client, Priority, Response, Server};
use gals_workloads::suite;

use crate::layers::{self, LayerInputs};
use crate::report::{median, peak_rss_mb, Metrics, Tally};
use crate::serve::{self, secs, Buckets};
use crate::spans::Tracer;
use crate::{Ctx, Outcome};

const WINDOW: u64 = 2_000;
const CONNS: u64 = 2;
const DEPTH: usize = 8;

struct Hot {
    server: Server,
    /// `(benchmark, prog configuration index)` of each hot entry.
    pairs: Vec<(String, usize)>,
    /// The value each entry's prewarm request returned.
    expected: Vec<f64>,
}

fn hot_set(seed: u64, n: usize) -> Vec<(String, usize)> {
    let benches = serve::benches();
    let mut rng = SplitMix64::new(seed ^ 0x407);
    let mut seen = FxHashSet::default();
    let mut pairs = Vec::with_capacity(n);
    while pairs.len() < n {
        let b = benches[rng.next_below(benches.len() as u64) as usize].clone();
        let c = rng.next_below(256) as usize;
        if seen.insert((b.clone(), c)) {
            pairs.push((b, c));
        }
    }
    pairs
}

/// Starts a server in a fresh store and prewarms the hot set.
fn setup(ctx: &Ctx, k: usize, tally: &mut Tally) -> (Hot, f64) {
    let t = Instant::now();
    let pairs = hot_set(ctx.seed, if ctx.tiny { 8 } else { 64 });
    let server = serve::start(&ctx.scratch.join(format!("hot{k}")));
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let reqs: Vec<_> = pairs
        .iter()
        .enumerate()
        .map(|(i, (b, cfg))| {
            serve::run_config(format!("w{i}"), b, "prog", *cfg, WINDOW, Priority::Normal)
        })
        .collect();
    let values = serve::batch(&mut c, &reqs, tally);
    let expected = (0..pairs.len())
        .map(|i| values.get(&format!("w{i}")).copied().unwrap_or(f64::NAN))
        .collect();
    let elapsed = t.elapsed().as_secs_f64();
    (
        Hot {
            server,
            pairs,
            expected,
        },
        elapsed,
    )
}

struct Phase {
    done: Buckets,
    tally: Tally,
}

struct Pending {
    sent: Instant,
    entry: usize,
    value: Option<(f64, bool)>,
    span: (u32, u64),
}

/// One connection of the closed loop.
struct Conn {
    client: Client,
    index: u64,
    rng: SplitMix64,
    inflight: FxHashMap<String, Pending>,
    next: u64,
}

impl Conn {
    /// Tops the connection up to `DEPTH` requests in flight.
    fn fill(&mut self, hot: &Hot, deadline: Instant, tracer: &Tracer) {
        while self.inflight.len() < DEPTH && Instant::now() < deadline {
            let entry = self.rng.next_below(hot.pairs.len() as u64) as usize;
            let (b, cfg) = &hot.pairs[entry];
            let id = format!("c{}-{}", self.index, self.next);
            let req = serve::run_config(id.clone(), b, "prog", *cfg, WINDOW, Priority::Normal);
            let span = tracer.begin();
            let sent = Instant::now();
            tracer.span("client.send", Some(span.0), self.req_id(self.next), |_| {
                self.client.send(&req).expect("send a request")
            });
            self.inflight.insert(
                id,
                Pending {
                    sent,
                    entry,
                    value: None,
                    span,
                },
            );
            self.next += 1;
        }
    }

    fn req_id(&self, n: u64) -> u64 {
        self.index << 32 | n
    }

    /// Reads and handles one frame; the connection has requests in
    /// flight, so one is coming.
    fn read_one(&mut self, hot: &Hot, tracer: &Tracer, phase: &mut Phase) {
        match self.client.read_response().expect("read a response") {
            Response::Partial {
                id,
                runtime_ns,
                cached,
                ..
            } => {
                if let Some(p) = self.inflight.get_mut(&id) {
                    p.value = Some((runtime_ns, cached));
                }
            }
            Response::Done { id, .. } => {
                let p = self.inflight.remove(&id).expect("known request id");
                let now = Instant::now();
                let n = id
                    .rsplit('-')
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
                tracer.end(p.span, "serve.request", None, self.req_id(n));
                phase.done.record(now, now - p.sent);
                let expected = hot.expected[p.entry];
                let ok = p
                    .value
                    .is_some_and(|(v, cached)| cached && v.to_bits() == expected.to_bits());
                phase.tally.check(&id, ok, || {
                    format!("got {:?}, prewarm returned {expected}", p.value)
                });
            }
            other => {
                phase.tally.fail(format!("{other:?}"));
                if other.is_terminal() {
                    self.inflight.remove(other.id());
                }
            }
        }
    }
}

/// Runs the closed loop for `seconds`, then drains. One thread serves
/// both connections, reading from each in turn: with the reactor and
/// the worker that makes three busy threads on the two-core host, not
/// four, which keeps run-to-run throughput steadier.
fn drive(hot: &Hot, seed: u64, seconds: f64, tracer: &Tracer) -> Phase {
    let mut conns: Vec<Conn> = (0..CONNS)
        .map(|c| Conn {
            client: Client::connect(hot.server.local_addr()).expect("connect"),
            index: c,
            rng: SplitMix64::new(seed ^ (c + 1).wrapping_mul(0x9E37_79B9)),
            inflight: FxHashMap::default(),
            next: 0,
        })
        .collect();
    let t0 = Instant::now();
    let deadline = t0 + secs(seconds);
    let mut phase = Phase {
        done: Buckets::new(t0, seconds, 0.1),
        tally: Tally::default(),
    };
    loop {
        let mut open = false;
        for c in &mut conns {
            c.fill(hot, deadline, tracer);
            if !c.inflight.is_empty() {
                open = true;
                c.read_one(hot, tracer, &mut phase);
            }
        }
        if !open {
            phase.done.finish();
            return phase;
        }
    }
}

/// Server instances per run. Each gets its own set-up and an equal
/// share of the timed window, and the run reports medians across them:
/// how the scheduler places the reactor, worker and load threads on two
/// cores moves a whole instance's throughput by up to 20%, and a median
/// of five instances is steadier than one long instance.
const INSTANCES: usize = 5;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    // The traced run is one untraced and one traced instance.
    let instances = if ctx.trace || ctx.tiny { 2 } else { INSTANCES };
    let seconds = ctx.seconds / instances as f64;
    let tracer = Tracer::new(ctx.trace);
    let off = Tracer::new(false);
    let (mut setups, mut rates, mut p50s, mut p95s) = (vec![], vec![], vec![], vec![]);
    let mut peak_rss = f64::NAN;
    let mut requests = 0;
    let mut stolen = Vec::new();
    let mut last = None;
    for k in 0..instances {
        // The previous instance shut down when it was replaced, outside
        // the set-up timing.
        let (hot, s) = setup(ctx, k, &mut tally);
        setups.push(s);
        let mut status_client = Client::connect(hot.server.local_addr()).expect("connect");
        let simulated_before = serve::status(&mut status_client)["simulated"];
        let traced = ctx.trace && k + 1 == instances;
        let mut phase = drive(
            &hot,
            ctx.seed ^ k as u64,
            seconds,
            if traced { &tracer } else { &off },
        );
        tally.merge(std::mem::take(&mut phase.tally));
        let counters = serve::status(&mut status_client);
        tally.check(
            "no request simulated",
            counters["simulated"] == simulated_before,
            || {
                format!(
                    "status simulated moved from {simulated_before} to {}",
                    counters["simulated"]
                )
            },
        );
        rates.push(phase.done.per_s());
        p50s.push(phase.done.percentile_ms(50.0));
        p95s.push(phase.done.percentile_ms(95.0));
        requests += phase.done.count();
        stolen.push(phase.done.stolen_share());
        if k == 0 {
            // Read before later instances start: thread churn across
            // instances changes which malloc arenas exist, which moves the
            // high-water mark by ~2 MiB without any change in the program.
            peak_rss = peak_rss_mb();
        }
        last = Some((hot, counters));
    }
    let (hot, counters) = last.expect("at least one instance");
    let info = vec![
        ("requests".to_string(), requests.to_string()),
        (
            "stolen_bucket_share".to_string(),
            format!("{:.3}", median(&stolen)),
        ),
        ("instances".to_string(), instances.to_string()),
        ("hot_set".to_string(), hot.pairs.len().to_string()),
        ("connections".to_string(), CONNS.to_string()),
        ("in_flight_per_connection".to_string(), DEPTH.to_string()),
    ];

    if !ctx.trace {
        // Every request resolves one (cached) job.
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("jobs_per_s", median(&rates), "1/s");
        metrics.push("p50_ms", median(&p50s), "ms");
        metrics.push("p95_ms", median(&p95s), "ms");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
        metrics.push("ok_frac", tally.ok_frac(), "fraction");
        return Outcome {
            metrics,
            tally,
            info,
            tracer: None,
        };
    }

    metrics.push("trace.overhead_frac", rates[0] / rates[1] - 1.0, "fraction");
    let items: Vec<_> = hot
        .pairs
        .iter()
        .zip(&hot.expected)
        .map(|((b, cfg), ns)| {
            let spec = suite::by_name(b).expect("suite benchmark");
            (
                MeasureItem::program(spec, McdConfig::enumerate()[*cfg]).cache_key(WINDOW),
                *ns,
            )
        })
        .collect();
    let inputs = LayerInputs {
        seed: ctx.seed,
        benches: layer_benches(&hot.pairs),
        window: WINDOW,
        store_items: items,
        store_dir: ctx.scratch.join("layer-store"),
        recover_from: None,
        sched_window: WINDOW,
        tiny: ctx.tiny,
    };
    layers::measure(&inputs, &mut metrics, &mut tally);
    let benches: Vec<String> = inputs
        .benches
        .iter()
        .map(|b| b.spec.name().to_string())
        .collect();
    serve::engine_layer(&benches, ctx, &tracer, &mut metrics);
    // The workload's own server and load give all but the uncached
    // high-priority figures, which the probe measures on a fresh store.
    let connect_ms = serve::connect_ms(&hot.server);
    let n = hot.pairs.len().min(serve::PROBE_PAIRS);
    let probe = serve::probe(
        &ctx.scratch.join("probe"),
        &hot.pairs[..n],
        WINDOW,
        &mut tally,
    );
    serve::ServeLayer {
        connect_ms,
        counters,
        hot_ms: p50s[0],
        ..probe
    }
    .push(&mut metrics);
    Outcome {
        metrics,
        tally,
        info,
        tracer: Some(tracer),
    }
}

/// The distinct benchmarks of a request set, each with the first
/// configuration it was requested with.
pub fn layer_benches(pairs: &[(String, usize)]) -> Vec<layers::Bench> {
    let mut seen = FxHashSet::default();
    pairs
        .iter()
        .filter(|(b, _)| seen.insert(b.clone()))
        .map(|(b, cfg)| layers::Bench {
            spec: suite::by_name(b).expect("suite benchmark"),
            sync: SyncConfig::paper_best(),
            prog: McdConfig::enumerate()[*cfg],
        })
        .collect()
}
