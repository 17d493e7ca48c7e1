//! Per-layer measurements for the traced run: timed calls into each
//! crate's public functions on the workload's own inputs, plus the
//! modelled-hardware outputs those runs produce.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use gals_cache::{AccessKind, AccountingCache};
use gals_clock::DomainClock;
use gals_common::{DomainId, Hertz, SplitMix64};
use gals_control::IlpTracker;
use gals_core::{ControlPolicy, MachineConfig, McdConfig, SimResult, Simulator, SyncConfig};
use gals_explore::{CacheKey, Job, JobScheduler, MeasureItem, Priority, ResultCache};
use gals_predictor::{HybridPredictor, PredictorGeometry};
use gals_serve::protocol::{Request, RequestKind, Response};
use gals_workloads::{BenchmarkSpec, PreparedTrace, SharedTrace};

use crate::report::{median, percentile, sorted, Metrics, Tally};

/// One benchmark of the workload with the configurations it runs.
pub struct Bench {
    pub spec: BenchmarkSpec,
    pub sync: SyncConfig,
    pub prog: McdConfig,
}

pub struct LayerInputs {
    pub seed: u64,
    pub benches: Vec<Bench>,
    /// Instruction window of the core measurements.
    pub window: u64,
    /// Keys and values the workload stored, for the store layer.
    pub store_items: Vec<(CacheKey, f64)>,
    /// Fresh directory for the store measurements.
    pub store_dir: PathBuf,
    /// A store the workload left behind, timed for recovery instead of
    /// the one the put measurement writes.
    pub recover_from: Option<PathBuf>,
    /// Window of the scheduler batch's jobs.
    pub sched_window: u64,
    pub tiny: bool,
}

/// Median over `batches` of the per-iteration cost in ns of `f`.
fn per_op_ns(batches: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let costs: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&costs)
}

pub fn measure(inp: &LayerInputs, m: &mut Metrics, tally: &mut Tally) {
    core_and_workloads(inp, m, tally);
    components(inp, m);
    sched(inp, m);
    store(inp, m, tally);
    protocol(inp, m);
}

/// `workloads` (capture, prepare) and `core` (fast loop through
/// `run_chunk` and `run`, and the reference loop) on every benchmark of
/// the workload, plus the modelled-hardware outputs of those runs.
fn core_and_workloads(inp: &LayerInputs, m: &mut Metrics, tally: &mut Tally) {
    let mut capture_s = 0.0;
    let mut prepare_s = 0.0;
    let mut captured = 0u64;
    let mut chunk_s = [0.0f64; 3];
    let mut insts = [0u64; 3];
    let (mut fast_s, mut ref_s) = (0.0, 0.0);
    let mut results: Vec<SimResult> = Vec::new();
    for b in &inp.benches {
        let machines = [
            MachineConfig::synchronous(b.sync),
            MachineConfig::program_adaptive(b.prog),
            MachineConfig::phase_adaptive(McdConfig::smallest())
                .with_control(ControlPolicy::default()),
        ];
        let need = inp.window + machines[0].params.max_in_flight() as u64;
        let t = Instant::now();
        let trace = SharedTrace::capture(&mut b.spec.stream(), need);
        capture_s += t.elapsed().as_secs_f64();
        captured += need;
        let t = Instant::now();
        let prep = PreparedTrace::new(&trace, machines[0].params.line_bytes);
        prepare_s += t.elapsed().as_secs_f64();

        for (i, machine) in machines.iter().enumerate() {
            let name = b.spec.name();
            let t = Instant::now();
            let mut sim = Simulator::new(machine.clone());
            assert!(
                sim.run_chunk(&prep, inp.window, u64::MAX),
                "an unbounded chunk runs to the window"
            );
            let chunked = sim.finish(name);
            chunk_s[i] += t.elapsed().as_secs_f64();
            insts[i] += inp.window;

            let t = Instant::now();
            let fast = Simulator::new(machine.clone()).run(&mut trace.replay(), inp.window);
            fast_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let reference = Simulator::new(machine.clone())
                .use_reference_loop()
                .run(&mut trace.replay(), inp.window);
            ref_s += t.elapsed().as_secs_f64();
            tally.check(
                &format!("{name}/core[{i}]"),
                chunked == fast && fast == reference,
                || "run_chunk, run and the reference loop disagree".to_string(),
            );
            results.push(chunked);
        }
    }
    m.push(
        "core.sync_ns_per_inst",
        chunk_s[0] * 1e9 / insts[0] as f64,
        "ns",
    );
    m.push(
        "core.prog_ns_per_inst",
        chunk_s[1] * 1e9 / insts[1] as f64,
        "ns",
    );
    m.push(
        "core.phase_ns_per_inst",
        chunk_s[2] * 1e9 / insts[2] as f64,
        "ns",
    );
    m.push("core.ref_speedup", ref_s / fast_s, "ratio");
    m.push(
        "workloads.capture_ns_per_inst",
        capture_s * 1e9 / captured as f64,
        "ns",
    );
    m.push(
        "workloads.prepare_ns_per_inst",
        prepare_s * 1e9 / captured as f64,
        "ns",
    );

    let rate = |f: &dyn Fn(&SimResult) -> (u64, u64)| {
        let (num, den) = results
            .iter()
            .map(f)
            .fold((0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
        num as f64 / den.max(1) as f64
    };
    m.push(
        "cache.icache_miss_rate",
        rate(&|r| (r.icache.misses, r.icache.accesses)),
        "fraction",
    );
    m.push(
        "cache.l1d_miss_rate",
        rate(&|r| (r.l1d.misses, r.l1d.accesses)),
        "fraction",
    );
    m.push(
        "cache.l2_miss_rate",
        rate(&|r| (r.l2.misses, r.l2.accesses)),
        "fraction",
    );
    m.push(
        "predictor.mispredict_rate",
        rate(&|r| (r.mispredicts, r.branches)),
        "fraction",
    );
    // Reconfigurations happen on the phase-adaptive machine only.
    let phase: Vec<&SimResult> = results.iter().skip(2).step_by(3).collect();
    let reconfigs: usize = phase.iter().map(|r| r.reconfigs.len()).sum();
    let committed: u64 = phase.iter().map(|r| r.committed).sum();
    m.push(
        "control.reconfigs_per_minst",
        reconfigs as f64 * 1e6 / committed as f64,
        "1/Minst",
    );
}

/// The per-event costs inside the simulator's loop.
fn components(inp: &LayerInputs, m: &mut Metrics) {
    let iters = if inp.tiny { 20_000 } else { 400_000 };
    let mut rng = SplitMix64::new(inp.seed ^ 0xC0_4E);

    let mut cache =
        AccountingCache::new(256 * 1024, 8, 64, 1, true).expect("a valid 256 KiB 8-way geometry");
    let addrs: Vec<u64> = (0..4096).map(|_| rng.next_below(1 << 20)).collect();
    let ns = per_op_ns(5, iters, |i| {
        black_box(cache.access(addrs[i as usize & 4095], AccessKind::Read));
    });
    m.push("cache.access_ns", ns, "ns");

    let mut p = HybridPredictor::new(
        PredictorGeometry::for_capacity_kb(64).expect("64 KiB is a valid predictor size"),
    );
    let outcomes: Vec<(u64, bool)> = (0..4096)
        .map(|_| (0x1000 + rng.next_below(512) * 4, rng.chance(0.6)))
        .collect();
    let ns = per_op_ns(5, iters, |i| {
        let (pc, taken) = outcomes[i as usize & 4095];
        black_box(p.update(pc, taken));
    });
    m.push("predictor.update_ns", ns, "ns");

    let mut clk = DomainClock::new(
        DomainId::Integer,
        Hertz::from_ghz(1.52),
        0.01,
        SplitMix64::new(inp.seed),
    );
    let ns = per_op_ns(5, iters, |_| {
        black_box(clk.tick());
    });
    m.push("clock.tick_ns", ns, "ns");

    // The workload's own instructions feed the ILP tracker.
    let spec = &inp.benches[0].spec;
    let trace = SharedTrace::capture(&mut spec.stream(), 4096);
    let mut ilp = IlpTracker::new();
    let ns = per_op_ns(5, iters, |i| {
        ilp.observe(black_box(&trace.insts()[i as usize & 4095]));
        if ilp.complete() {
            black_box(ilp.decide([1.52, 1.05, 1.01, 0.97]));
        }
    });
    m.push("control.ilp_observe_ns", ns, "ns");
}

/// `JobScheduler::submit` + `pop` per job, on a batch shaped like the
/// `serve_cold` backlog: two 256-job low-priority sweeps and a few
/// high-priority jobs.
fn sched(inp: &LayerInputs, m: &mut Metrics) {
    let spec = inp.benches[0].spec.clone();
    let mut jobs: Vec<Job> = Vec::new();
    for window in [inp.sched_window, inp.sched_window + 1] {
        for cfg in McdConfig::enumerate() {
            jobs.push(
                Job::new(MeasureItem::program(spec.clone(), cfg), window)
                    .with_priority(Priority::Low),
            );
        }
    }
    for cfg in McdConfig::enumerate().into_iter().take(8) {
        jobs.push(
            Job::new(
                MeasureItem::program(spec.clone(), cfg),
                inp.sched_window / 2,
            )
            .with_priority(Priority::High),
        );
    }
    let rounds = if inp.tiny { 3 } else { 21 };
    let costs: Vec<f64> = (0..rounds)
        .map(|_| {
            let batch = jobs.clone();
            let sched = JobScheduler::new();
            let t = Instant::now();
            for job in batch {
                sched.submit(job, |_, _| {});
            }
            // Closed, `pop` drains the queue and then returns `None`.
            sched.close();
            while let Some((job, _completion)) = sched.pop() {
                black_box(job);
            }
            t.elapsed().as_nanos() as f64 / jobs.len() as f64
        })
        .collect();
    m.push("sched.submit_pop_ns", median(&costs), "ns");
}

/// The result store: `put` under the default `batch:64` WAL policy,
/// `save` (checkpoint), `get`, and `open` (recovery).
fn store(inp: &LayerInputs, m: &mut Metrics, tally: &mut Tally) {
    let _ = std::fs::remove_dir_all(&inp.store_dir);
    let path = inp.store_dir.join("store.json");
    let cache = ResultCache::open(&path).expect("open a fresh store");
    let mut put_us = Vec::with_capacity(inp.store_items.len());
    for (key, ns) in &inp.store_items {
        let t = Instant::now();
        cache.put(key.clone(), *ns);
        put_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let put_us = sorted(put_us);
    m.push("store.put_us_p50", percentile(&put_us, 50.0), "us");
    m.push("store.put_us_p99", percentile(&put_us, 99.0), "us");
    let t = Instant::now();
    cache.save().expect("checkpoint the store");
    m.push("store.checkpoint_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
    let keys: Vec<&CacheKey> = inp.store_items.iter().map(|(k, _)| k).collect();
    let rounds = if inp.tiny { 2 } else { 50 };
    let ns = per_op_ns(5, rounds, |_| {
        for k in &keys {
            black_box(cache.get(k));
        }
    }) / keys.len() as f64;
    m.push("store.get_ns", ns, "ns");
    drop(cache);

    let t = Instant::now();
    let reopened = ResultCache::open(&path).expect("reopen the store");
    let reopen_ms = t.elapsed().as_secs_f64() * 1e3;
    for (key, ns) in &inp.store_items {
        let got = reopened.get(key);
        tally.check(
            key.as_str(),
            got.map(f64::to_bits) == Some(ns.to_bits()),
            || format!("recovered {got:?}, stored {ns}"),
        );
    }
    drop(reopened);
    let recover_ms = match &inp.recover_from {
        Some(left) => {
            let t = Instant::now();
            drop(ResultCache::open(left).expect("open the store the workload left"));
            t.elapsed().as_secs_f64() * 1e3
        }
        None => reopen_ms,
    };
    m.push("store.recover_ms", recover_ms, "ms");
}

/// The wire codec: request parse, response encode and response parse.
fn protocol(inp: &LayerInputs, m: &mut Metrics) {
    let n = inp.benches.len();
    let lines: Vec<String> = inp
        .benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut r = Request::new(
                format!("q{i}"),
                RequestKind::RunConfig {
                    bench: b.spec.name().to_string(),
                    mode: "prog".to_string(),
                    cfg: Some(i * 7 % 256),
                    policy: None,
                    window: inp.window,
                },
            );
            r.priority = Priority::High;
            r.to_line()
        })
        .collect();
    let responses: Vec<Response> = inp
        .store_items
        .iter()
        .take(n)
        .enumerate()
        .map(|(i, (key, ns))| Response::Partial {
            id: format!("q{i}"),
            key: key.as_str().to_string(),
            runtime_ns: *ns,
            cached: true,
        })
        .collect();
    let encoded: Vec<String> = responses.iter().map(Response::to_line).collect();
    let iters = if inp.tiny { 2_000 } else { 50_000 };
    let ns = per_op_ns(5, iters, |i| {
        black_box(Request::parse(&lines[i as usize % n]).expect("valid request line"));
    });
    m.push("protocol.request_parse_ns", ns, "ns");
    let k = responses.len();
    let ns = per_op_ns(5, iters, |i| {
        black_box(responses[i as usize % k].to_line());
    });
    m.push("protocol.response_encode_ns", ns, "ns");
    let ns = per_op_ns(5, iters, |i| {
        black_box(Response::parse(&encoded[i as usize % k]).expect("valid response line"));
    });
    m.push("protocol.response_parse_ns", ns, "ns");
}
