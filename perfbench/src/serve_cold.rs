//! `serve_cold`: uncached requests under load. One worker serves a
//! low-priority bulk caller that keeps program-adaptive sweeps queued
//! and a high-priority interactive caller whose every request is a
//! configuration never measured before, so each job passes through
//! scheduler priority, cohort, simulation, WAL put and frame flush.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gals_common::fxmap::FxHashMap;
use gals_common::SplitMix64;
use gals_core::McdConfig;
use gals_explore::{CacheKey, MeasureItem, ResultCache, SweepEngine};
use gals_serve::{Client, Priority, Request, RequestKind, Response, Server};
use gals_workloads::suite;

use crate::layers::{self, LayerInputs};
use crate::report::{median, peak_rss_mb, Metrics, Tally};
use crate::serve::{self, secs, Buckets};
use crate::serve_hot::layer_benches;
use crate::spans::Tracer;
use crate::{Ctx, Outcome};

const BULK_WINDOW: u64 = 4_000;
const HI_WINDOW: u64 = 2_000;
/// Sweeps the bulk caller keeps queued.
const BULK_DEPTH: usize = 2;
const SWEEP_JOBS: u64 = 256;
/// Bulk sweep `n` runs at `BULK_WINDOW + n / ring`; set-up records
/// traces long enough for this many laps of the ring.
const WARM_LAPS: u64 = 64;
/// Longest pause of the high-priority caller between requests.
const MAX_THINK: Duration = Duration::from_millis(20);

struct Inputs {
    /// Seed-shuffled benchmarks the bulk caller sweeps in turn.
    ring: Vec<String>,
    /// Seed-shuffled `(benchmark, prog configuration)` pairs for the
    /// high-priority caller, each requested once.
    hi: Vec<(String, usize)>,
    /// Seeds the high-priority caller's think times.
    think_seed: u64,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed ^ 0xC01D);
    let mut ring = serve::benches();
    shuffle(&mut ring, &mut rng);
    let mut hi: Vec<(String, usize)> = ring
        .iter()
        .flat_map(|b| (0..256).map(move |c| (b.clone(), c)))
        .collect();
    shuffle(&mut hi, &mut rng);
    Inputs {
        ring,
        hi,
        think_seed: rng.next_u64(),
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

fn bulk_request(inp: &Inputs, n: u64) -> (Request, String, u64) {
    let ring = inp.ring.len() as u64;
    let bench = inp.ring[(n % ring) as usize].clone();
    let window = BULK_WINDOW + n / ring;
    let mut r = Request::new(
        format!("b{n}"),
        RequestKind::Sweep {
            bench: bench.clone(),
            mode: "prog".to_string(),
            window,
        },
    );
    r.priority = Priority::Low;
    (r, bench, window)
}

fn hi_pair(inp: &Inputs, j: u64) -> ((String, usize), u64) {
    let n = inp.hi.len() as u64;
    // Past one full pass the window grows, so keys stay uncached.
    (inp.hi[(j % n) as usize].clone(), HI_WINDOW + j / n)
}

/// Starts a server over a fresh store and records every ring
/// benchmark's trace at the longest window, through a synchronous
/// configuration the timed phase never requests.
fn setup(ctx: &Ctx, inp: &Inputs, k: usize, tally: &mut Tally) -> (Server, PathBuf, f64) {
    let dir = ctx.scratch.join(format!("cold{k}"));
    let t = Instant::now();
    let server = serve::start(&dir);
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let reqs: Vec<_> = inp
        .ring
        .iter()
        .enumerate()
        .map(|(i, b)| {
            serve::run_config(
                format!("w{i}"),
                b,
                "sync",
                0,
                BULK_WINDOW + WARM_LAPS,
                Priority::Normal,
            )
        })
        .collect();
    serve::batch(&mut c, &reqs, tally);
    let elapsed = t.elapsed().as_secs_f64();
    (server, dir, elapsed)
}

struct Bulk {
    done: Buckets,
    stored: Vec<(CacheKey, f64)>,
    sweeps: u64,
    tally: Tally,
}

/// Keeps `BULK_DEPTH` sweeps queued until the deadline, then drains.
/// With `keep_keys` it records each stored key and value for the store
/// layer's measurements.
fn bulk(
    server: &Server,
    inp: &Inputs,
    first: u64,
    (t0, seconds): (Instant, f64),
    tracer: &Tracer,
    keep_keys: bool,
) -> (Bulk, u64) {
    let deadline = t0 + secs(seconds);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut open: FxHashMap<String, (String, u64, u64, (u32, u64))> = FxHashMap::default();
    let mut out = Bulk {
        done: Buckets::new(t0, seconds, 0.1),
        stored: Vec::new(),
        sweeps: 0,
        tally: Tally::default(),
    };
    let mut n = first;
    loop {
        while open.len() < BULK_DEPTH && Instant::now() < deadline {
            let (req, bench, window) = bulk_request(inp, n);
            let span = tracer.begin();
            client.send(&req).expect("send a sweep");
            open.insert(req.id.clone(), (bench, window, 0, span));
            n += 1;
        }
        if open.is_empty() {
            out.done.finish();
            return (out, n);
        }
        match client.read_response().expect("read a bulk frame") {
            Response::Partial {
                id,
                key,
                runtime_ns,
                ..
            } => {
                out.done.record(Instant::now(), Duration::ZERO);
                let entry = open.get_mut(&id).expect("known sweep id");
                entry.2 += 1;
                if keep_keys {
                    out.stored
                        .push((CacheKey::new(&entry.0, "prog", &key, entry.1), runtime_ns));
                }
            }
            Response::Done {
                id,
                results,
                expired,
            } => {
                let (_, _, partials, span) = open.remove(&id).expect("known sweep id");
                tracer.end(span, "bulk.sweep", None, id[1..].parse().unwrap_or(0));
                out.sweeps += 1;
                out.tally.check(&id, partials == SWEEP_JOBS && results == SWEEP_JOBS && expired == 0, || {
                    format!("{partials} partials, done reports {results} results and {expired} expired")
                });
            }
            other => {
                out.tally.fail(format!("bulk: {other:?}"));
                if other.is_terminal() {
                    open.remove(other.id());
                }
            }
        }
    }
}

struct Hi {
    done: Buckets,
    /// `(pair, window, value)` of every answered request.
    results: Vec<((String, usize), u64, f64)>,
    tally: Tally,
}

/// One high-priority request at a time until the deadline, each after
/// a seeded think time drawn uniformly from `[0, MAX_THINK]`.
///
/// Without the pause the next request would reach the server a few
/// microseconds after the worker, finishing the previous one, had
/// already started a fresh cohort; whether it wins that race decides
/// whether it waits 2 or 20 ms, and the median sat on the boundary
/// between the two (2 to 20 ms for one seed across runs). The pause
/// lands requests at random points of the cohort cycle instead.
fn hi(
    server: &Server,
    inp: &Inputs,
    first: u64,
    (t0, seconds): (Instant, f64),
    tracer: &Tracer,
) -> (Hi, u64) {
    let deadline = t0 + secs(seconds);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut out = Hi {
        done: Buckets::new(t0, seconds, 0.1),
        results: Vec::new(),
        tally: Tally::default(),
    };
    let mut rng = SplitMix64::new(inp.think_seed ^ first);
    let mut j = first;
    while Instant::now() < deadline {
        std::thread::sleep(MAX_THINK.mul_f64(rng.next_f64()));
        let (pair, window) = hi_pair(inp, j);
        let req = serve::run_config(
            format!("h{j}"),
            &pair.0,
            "prog",
            pair.1,
            window,
            Priority::High,
        );
        let t = Instant::now();
        let frames = tracer.span("hi.request", None, j, |root| {
            tracer.span("client.send", Some(root), j, |_| {
                client.send(&req).expect("send")
            });
            tracer.span("client.await_done", Some(root), j, |_| {
                let mut frames = Vec::new();
                loop {
                    let f = client.read_response().expect("read a hi frame");
                    let done = f.is_terminal();
                    frames.push(f);
                    if done {
                        return frames;
                    }
                }
            })
        });
        let now = Instant::now();
        out.done.record(now, now - t);
        match frames.as_slice() {
            [Response::Partial { runtime_ns, .. }, Response::Done { .. }] => {
                out.results.push((pair, window, *runtime_ns))
            }
            other => out.tally.fail(format!("h{j}: {other:?}")),
        }
        j += 1;
    }
    out.done.finish();
    (out, j)
}

struct Phase {
    bulk: Bulk,
    hi: Hi,
}

fn drive(
    server: &Server,
    inp: &Inputs,
    next: &mut (u64, u64),
    seconds: f64,
    tracer: &Tracer,
    keep_keys: bool,
) -> Phase {
    let t0 = Instant::now();
    let (b0, h0) = *next;
    let ((bulk, bn), (hi, hn)) = std::thread::scope(|s| {
        let b = s.spawn(|| bulk(server, inp, b0, (t0, seconds), tracer, keep_keys));
        let h = s.spawn(|| hi(server, inp, h0, (t0, seconds), tracer));
        (
            b.join().expect("bulk thread panicked"),
            h.join().expect("hi thread panicked"),
        )
    });
    *next = (bn, hn);
    Phase { bulk, hi }
}

/// Every high-priority value must equal the reference loop's, measured
/// directly through a `SweepEngine`.
fn hi_oracle(results: &[((String, usize), u64, f64)], tally: &mut Tally) {
    let engine = SweepEngine::new(ResultCache::in_memory())
        .with_reference_simulator()
        .with_threads(2);
    let mut by_window: FxHashMap<u64, Vec<usize>> = FxHashMap::default();
    for (i, r) in results.iter().enumerate() {
        by_window.entry(r.1).or_default().push(i);
    }
    for (window, idx) in by_window {
        let items: Vec<MeasureItem> = idx.iter().map(|&i| program_item(&results[i].0)).collect();
        let expected = engine.measure_owned(items, window);
        for (&i, e) in idx.iter().zip(expected) {
            let ((b, c), _, actual) = &results[i];
            tally.check_eq(&format!("hi {b}/{c}@{window}"), e, *actual);
        }
    }
}

fn program_item((bench, cfg): &(String, usize)) -> MeasureItem {
    MeasureItem::program(
        suite::by_name(bench).expect("suite benchmark"),
        McdConfig::enumerate()[*cfg],
    )
}

/// Server instances per run. Each has its own set-up and an equal share
/// of the timed window, and the figures pool the instances' time
/// buckets, so one instance's thread placement on the two cores does not
/// set the run's figures.
const INSTANCES: usize = 3;

/// Set-ups timed per run. Set-up is ~20 ms of server start, store
/// creation and trace recording, and single samples spread by a quarter;
/// the samples beyond the instances' own are taken after the timed
/// phase.
const SETUP_SAMPLES: usize = 9;

pub fn run(ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let inp = inputs(ctx.seed);
    // The traced run is one untraced and one traced instance.
    let instances = if ctx.trace || ctx.tiny { 2 } else { INSTANCES };
    let seconds = ctx.seconds / instances as f64;
    let tracer = Tracer::new(ctx.trace);
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut next = (0, 0);
    let mut phases = Vec::new();
    let mut peak_rss = f64::NAN;
    let mut last = None;
    for k in 0..instances {
        // The previous instance shut down when it was replaced, outside
        // the set-up timing.
        let (server, dir, s) = setup(ctx, &inp, k, &mut tally);
        setups.push(s);
        let traced = ctx.trace && k + 1 == instances;
        phases.push(drive(
            &server,
            &inp,
            &mut next,
            seconds,
            if traced { &tracer } else { &off },
            ctx.trace,
        ));
        if k == 0 {
            // Read before later instances start: thread churn across
            // instances changes which malloc arenas exist, which moves the
            // high-water mark by megabytes without any change in the
            // program.
            peak_rss = peak_rss_mb();
        }
        last = Some((server, dir));
    }
    let (server, store_dir) = last.expect("at least one instance");
    if !ctx.trace && !ctx.tiny {
        for k in instances..SETUP_SAMPLES {
            let (extra, _, s) = setup(ctx, &inp, k, &mut tally);
            setups.push(s);
            drop(extra);
        }
    }
    let mut status_client = Client::connect(server.local_addr()).expect("connect");
    let counters = serve::status(&mut status_client);
    drop(status_client);

    // The traced run's timed figures come from its untraced instance.
    let timed = if ctx.trace { 1 } else { phases.len() };
    let untraced_rate = phases[0].bulk.done.per_s();
    let instance_rates: Vec<String> = phases
        .iter()
        .map(|p| format!("{:.0}", p.bulk.done.per_s()))
        .collect();
    let mut hi_results = Vec::new();
    let mut stored = Vec::new();
    let mut sweeps = 0;
    let mut pooled: Option<(Buckets, Buckets)> = None;
    for (k, p) in phases.into_iter().enumerate() {
        tally.merge(p.bulk.tally);
        tally.merge(p.hi.tally);
        sweeps += p.bulk.sweeps;
        stored.extend(p.bulk.stored);
        hi_results.extend(p.hi.results);
        if k >= timed {
            let traced_rate = p.bulk.done.per_s();
            metrics.push(
                "trace.overhead_frac",
                untraced_rate / traced_rate - 1.0,
                "fraction",
            );
            continue;
        }
        pooled = Some(match pooled {
            None => (p.bulk.done, p.hi.done),
            Some((mut bulk, mut hi)) => {
                bulk.absorb(p.bulk.done);
                hi.absorb(p.hi.done);
                (bulk, hi)
            }
        });
    }
    let (bulk_done, hi_done) = pooled.expect("at least one timed instance");
    let bulk_rate = bulk_done.per_s();
    let hi_requests = hi_done.count();
    let (hi_p50, hi_p95) = (hi_done.percentile_ms(50.0), hi_done.percentile_ms(95.0));
    hi_oracle(&hi_results, &mut tally);
    let info = vec![
        ("hi_requests".to_string(), hi_requests.to_string()),
        (
            "stolen_bucket_share".to_string(),
            format!("{:.3}", bulk_done.stolen_share()),
        ),
        ("bulk_sweeps".to_string(), sweeps.to_string()),
        (
            "instance_bulk_jobs_per_s".to_string(),
            instance_rates.join(" "),
        ),
        ("instances".to_string(), instances.to_string()),
        ("workers".to_string(), "1".to_string()),
    ];

    if !ctx.trace {
        // Jobs are the bulk caller's; latencies the high-priority caller's.
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("jobs_per_s", bulk_rate, "1/s");
        metrics.push("p50_ms", hi_p50, "ms");
        metrics.push("p95_ms", hi_p95, "ms");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
        metrics.push("ok_frac", tally.ok_frac(), "fraction");
        return Outcome {
            metrics,
            tally,
            info,
            tracer: None,
        };
    }

    let connect_ms = serve::connect_ms(&server);
    server.shutdown();
    for (pair, window, ns) in &hi_results {
        stored.push((program_item(pair).cache_key(*window), *ns));
    }
    let pairs: Vec<(String, usize)> = inp
        .ring
        .iter()
        .map(|b| {
            let cfg = inp.hi.iter().find(|(hb, _)| hb == b).map_or(0, |p| p.1);
            (b.clone(), cfg)
        })
        .collect();
    let inputs = LayerInputs {
        seed: ctx.seed,
        benches: layer_benches(&pairs),
        window: BULK_WINDOW,
        store_items: stored,
        store_dir: ctx.scratch.join("layer-store"),
        recover_from: Some(store_dir.join("store.json")),
        sched_window: BULK_WINDOW,
        tiny: ctx.tiny,
    };
    layers::measure(&inputs, &mut metrics, &mut tally);
    serve::engine_layer(&inp.ring, ctx, &tracer, &mut metrics);
    // The probe's uncached requests are this workload's first
    // high-priority jobs: its direct time is their service time, and the
    // rest of the workload's own high-priority p50 is waiting.
    let probe_pairs: Vec<_> = inp.hi.iter().take(serve::PROBE_PAIRS).cloned().collect();
    let probe = serve::probe(
        &ctx.scratch.join("probe"),
        &probe_pairs,
        HI_WINDOW,
        &mut tally,
    );
    serve::ServeLayer {
        connect_ms,
        counters,
        hi_wait_ms: hi_p50 - probe.hi_direct_ms,
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hi_oracle_rejects_a_wrong_value() {
        let pair = ("adpcm_encode".to_string(), 5);
        let served = SweepEngine::new(ResultCache::in_memory())
            .with_threads(1)
            .measure(&[program_item(&pair)], 300)[0];
        let wrong = f64::from_bits(served.to_bits() + 1);
        let mut tally = Tally::default();
        hi_oracle(
            &[(pair.clone(), 300, served), (pair, 300, wrong)],
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
    }

    #[test]
    fn inputs_repeat_for_a_seed() {
        let (a, b) = (inputs(9), inputs(9));
        assert_eq!(a.ring, b.ring);
        assert_eq!(a.hi, b.hi);
        assert_ne!(inputs(10).hi, a.hi);
        assert_eq!(a.hi.len(), serve::BENCHES.len() * 256);
    }
}
