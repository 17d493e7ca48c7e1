//! `figure6`: the paper's headline pipeline, `Explorer::figure6`, end to
//! end (sync sweep → program sweep → final-window runs).

use std::time::Instant;

use gals_common::SplitMix64;
use gals_core::{ControlPolicy, MachineConfig, Simulator, SyncConfig};
use gals_explore::{in_sync_winner_subset, Explorer, Fig6Row, MeasureItem, ResultCache};
use gals_workloads::{suite, BenchmarkSpec};

use crate::layers::{self, LayerInputs};
use crate::report::{
    median, peak_rss_mb, percentile, sorted, stolen_ticks, Metrics, Tally, TICK_S,
};
use crate::serve;
use crate::spans::Tracer;
use crate::{Ctx, Outcome};

/// Three benchmarks from each suite group, spanning the group's
/// simulation cost (cheap, middle, expensive). The panel is fixed and
/// the seed generates each benchmark's instruction stream: a seeded
/// *choice* of benchmarks would move the work per run by ~14% between
/// seeds (cost ratios up to 8× inside a group), more than any bound.
const PANEL: [&str; 12] = [
    "adpcm_encode",
    "jpeg_compress",
    "ghostscript",
    "power",
    "treeadd",
    "em3d",
    "vpr",
    "gzip",
    "parser",
    "apsi",
    "art",
    "equake",
];
const TINY_PANEL: [&str; 4] = ["adpcm_encode", "power", "vpr", "apsi"];

/// The paper's Figure 6 averages, printed beside the model's.
const PAPER_PROGRAM_GAIN_PCT: f64 = 17.6;
const PAPER_PHASE_GAIN_PCT: f64 = 20.4;

/// Sweep jobs re-measured by the reference loop, per machine style.
const SAMPLE_PER_STYLE: usize = 12;

struct Size {
    names: &'static [&'static str],
    sweep_window: u64,
    final_window: u64,
    setups: usize,
}

fn size(ctx: &Ctx) -> Size {
    if ctx.tiny {
        Size {
            names: &TINY_PANEL,
            sweep_window: 500,
            final_window: 1_000,
            setups: 1,
        }
    } else {
        Size {
            names: &PANEL,
            sweep_window: 4_000,
            final_window: 20_000,
            setups: 3,
        }
    }
}

/// Rebuilds `spec` with a different stream seed; every other model
/// parameter is copied.
pub fn reseed(spec: &BenchmarkSpec, seed: u64) -> BenchmarkSpec {
    let ilp = spec.ilp();
    let code = spec.code();
    let br = spec.branches();
    let mut b = BenchmarkSpec::builder(spec.name(), spec.suite())
        .seed(seed)
        .mix(*spec.mix())
        .ilp(ilp.chains_int, ilp.chains_fp, ilp.serial_frac)
        .flat_frac(ilp.flat_frac)
        .code(code.footprint_bytes, code.region_blocks, code.region_switch)
        .block_len(code.block_len)
        .branches(br.hard_frac, br.hard_bias, br.easy_period)
        .segments(spec.segments().to_vec())
        .paper_window(spec.paper_window());
    for p in spec.phases() {
        b = b.phase(p.len_insts, p.overrides.clone());
    }
    b.build().expect("a copied valid spec stays valid")
}

/// The panel with seed-generated streams.
fn panel(names: &[&str], seed: u64) -> Vec<BenchmarkSpec> {
    let mut rng = SplitMix64::new(seed);
    names
        .iter()
        .map(|&n| {
            let spec = suite::by_name(n).expect("panel names are suite benchmarks");
            // Guards the copy above: a model field it missed would change
            // the spec even with the original seed.
            assert!(
                reseed(&spec, spec.seed()) == spec,
                "reseed must copy every model parameter of {n}"
            );
            reseed(&spec, rng.next_u64())
        })
        .collect()
}

fn explorer(sweep_window: u64, final_window: u64) -> Explorer {
    Explorer::with_cache(sweep_window, final_window, ResultCache::in_memory()).with_threads(2)
}

/// Jobs one pipeline resolves: every (benchmark, config) pair of both
/// sweeps plus three final runs per benchmark.
fn job_count(benches: usize) -> usize {
    let sync = SyncConfig::enumerate()
        .iter()
        .filter(|c| in_sync_winner_subset(c))
        .count();
    benches * (sync + gals_core::McdConfig::enumerate().len() + 3)
}

fn reference_ns(machine: &MachineConfig, spec: &BenchmarkSpec, window: u64) -> f64 {
    Simulator::new(machine.clone())
        .use_reference_loop()
        .run(&mut spec.stream(), window)
        .runtime_ns()
}

/// Runs `(label, item, window, actual)` checks against the reference
/// loop on two threads.
fn check_against_reference(checks: Vec<(String, MeasureItem, u64, f64)>, tally: &mut Tally) {
    let results: Vec<(String, f64, f64)> = std::thread::scope(|s| {
        let (a, b) = checks.split_at(checks.len() / 2);
        let run = |part: &[(String, MeasureItem, u64, f64)]| {
            part.iter()
                .map(|(label, item, window, actual)| {
                    (
                        label.clone(),
                        reference_ns(&item.machine, &item.spec, *window),
                        *actual,
                    )
                })
                .collect::<Vec<_>>()
        };
        let ha = s.spawn(move || run(a));
        let mut out = run(b);
        out.extend(ha.join().expect("reference thread panicked"));
        out
    });
    for (label, expected, actual) in results {
        tally.check_eq(&label, expected, actual);
    }
}

/// The Figure 6 oracle: every final-window value and a seeded sample of
/// sweep values must equal the reference loop bit for bit.
fn oracle(
    ex: &mut Explorer,
    panel: &[BenchmarkSpec],
    rows: &[Fig6Row],
    seed: u64,
    tally: &mut Tally,
) {
    let (sw, fw) = (ex.sweep_window(), ex.final_window());
    // Served from the explorer's cache: the program's own choice.
    let sync_best = ex.sync_sweep(panel).expect("panel is non-empty").best;
    let mut checks = Vec::new();
    for (spec, row) in panel.iter().zip(rows) {
        let n = spec.name();
        checks.push((
            format!("{n}/final/sync"),
            MeasureItem::sync(spec.clone(), sync_best),
            fw,
            row.sync_ns,
        ));
        checks.push((
            format!("{n}/final/prog"),
            MeasureItem::program(spec.clone(), row.program_cfg),
            fw,
            row.program_ns,
        ));
        checks.push((
            format!("{n}/final/phase"),
            MeasureItem::phase(spec.clone(), ControlPolicy::default()),
            fw,
            row.phase_ns,
        ));
    }
    let sync_cfgs: Vec<SyncConfig> = SyncConfig::enumerate()
        .into_iter()
        .filter(in_sync_winner_subset)
        .collect();
    let prog_cfgs = gals_core::McdConfig::enumerate();
    let mut rng = SplitMix64::new(seed ^ 0x5A3F_1E00);
    for i in 0..2 * SAMPLE_PER_STYLE {
        let spec = panel[rng.next_below(panel.len() as u64) as usize].clone();
        let item = if i % 2 == 0 {
            MeasureItem::sync(
                spec,
                sync_cfgs[rng.next_below(sync_cfgs.len() as u64) as usize],
            )
        } else {
            MeasureItem::program(
                spec,
                prog_cfgs[rng.next_below(prog_cfgs.len() as u64) as usize],
            )
        };
        let label = item.cache_key(sw).as_str().to_string();
        match ex.engine().cache().get(&item.cache_key(sw)) {
            Some(actual) => checks.push((label, item, sw, actual)),
            None => tally.fail(format!("{label}: sweep value missing from the cache")),
        }
    }
    check_against_reference(checks, tally);
}

/// Figure 6's "overall improvement": geometric mean of per-benchmark
/// speedups over the best synchronous machine, as a percentage.
fn mean_gain_pct(rows: &[Fig6Row], pick: impl Fn(&Fig6Row) -> f64) -> f64 {
    let speedups: Vec<f64> = rows.iter().map(|r| r.sync_ns / pick(r)).collect();
    (gals_common::stats::geomean(&speedups).unwrap_or(f64::NAN) - 1.0) * 100.0
}

/// The pipeline split into its three stages, each in a span.
fn traced_pipeline(ex: &mut Explorer, panel: &[BenchmarkSpec], tracer: &Tracer) -> Vec<Fig6Row> {
    tracer.span("figure6", None, 0, |root| {
        let sync_best = tracer
            .span("engine.sync_sweep", Some(root), 0, |_| ex.sync_sweep(panel))
            .expect("panel is non-empty")
            .best;
        let program = tracer
            .span("engine.program_sweep", Some(root), 0, |_| {
                ex.program_sweep(panel)
            })
            .expect("panel is non-empty");
        let mut work = Vec::with_capacity(panel.len() * 3);
        for (spec, choice) in panel.iter().zip(&program) {
            work.push(MeasureItem::sync(spec.clone(), sync_best));
            work.push(MeasureItem::program(spec.clone(), choice.best));
            work.push(MeasureItem::phase(spec.clone(), ControlPolicy::default()));
        }
        let fw = ex.final_window();
        let ns = tracer.span("engine.final_runs", Some(root), 0, |_| {
            ex.engine().measure_owned(work, fw)
        });
        panel
            .iter()
            .zip(&program)
            .enumerate()
            .map(|(i, (spec, choice))| Fig6Row {
                benchmark: spec.name().to_string(),
                sync_ns: ns[i * 3],
                program_ns: ns[i * 3 + 1],
                program_cfg: choice.best,
                phase_ns: ns[i * 3 + 2],
            })
            .collect()
    })
}

/// The `explore::engine` layer: the pipeline staged on a fresh explorer,
/// each stage in a span, then the engine's counters and the modelled
/// Figure 6 gains. Returns the explorer, its rows and the pipeline's wall
/// time less stolen CPU time.
pub fn engine_layer(
    specs: &[BenchmarkSpec],
    sweep_window: u64,
    final_window: u64,
    tracer: &Tracer,
    metrics: &mut Metrics,
) -> (Explorer, Vec<Fig6Row>, f64) {
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut ex = explorer(sweep_window, final_window);
    let (t, s0) = (Instant::now(), stolen_ticks());
    let rows = traced_pipeline(&mut ex, specs, tracer);
    let wall = t.elapsed().as_secs_f64() - (stolen_ticks() - s0) as f64 * TICK_S / vcpus;
    let stage = |name: &str| tracer.durations(name).iter().sum::<f64>();
    metrics.push("engine.sync_sweep_s", stage("engine.sync_sweep"), "s");
    metrics.push("engine.program_sweep_s", stage("engine.program_sweep"), "s");
    metrics.push("engine.final_runs_s", stage("engine.final_runs"), "s");
    metrics.push("engine.unattributed_s", tracer.self_time("figure6"), "s");
    let e = ex.engine();
    let (hits, builds) = (e.trace_pool_hits() as f64, e.trace_pool_builds() as f64);
    metrics.push("engine.simulated", e.simulated_count() as f64, "count");
    metrics.push("engine.cache_hits", e.cache_hit_count() as f64, "count");
    metrics.push("engine.pool_hits", hits, "count");
    metrics.push("engine.pool_builds", builds, "count");
    metrics.push("engine.pool_hit_ratio", hits / (hits + builds), "fraction");
    metrics.push("engine.memo_hits", e.interval_memo_hits() as f64, "count");
    metrics.push(
        "engine.memo_stores",
        e.interval_memo_stores() as f64,
        "count",
    );
    metrics.push(
        "fig6.program_gain_pct",
        mean_gain_pct(&rows, |r| r.program_ns),
        "%",
    );
    metrics.push(
        "fig6.phase_gain_pct",
        mean_gain_pct(&rows, |r| r.phase_ns),
        "%",
    );
    (ex, rows, wall)
}

fn rows_equal(a: &[Fig6Row], b: &[Fig6Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.benchmark == y.benchmark
                && x.sync_ns.to_bits() == y.sync_ns.to_bits()
                && x.program_ns.to_bits() == y.program_ns.to_bits()
                && x.phase_ns.to_bits() == y.phase_ns.to_bits()
                && x.program_cfg == y.program_cfg
        })
}

pub fn run(ctx: &Ctx) -> Outcome {
    let sz = size(ctx);
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();

    // Set-up: make the inputs, then warm the process (threads,
    // allocator, code) with the same pipeline at 1/16 of the windows.
    // The repeats that only time set-up run after the timed phase.
    let setup = || {
        let t = Instant::now();
        let specs = panel(sz.names, ctx.seed);
        let mut warm = explorer(sz.sweep_window / 16, sz.final_window / 16);
        warm.figure6(&specs).expect("warm-up pipeline");
        (specs, t.elapsed().as_secs_f64())
    };
    let (panel_specs, first_setup) = setup();
    let mut setups = vec![first_setup];
    let jobs = job_count(panel_specs.len()) as f64;
    let mut peak_rss = f64::NAN;

    let tracer = Tracer::new(ctx.trace);
    let vcpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let mut rates = Vec::new();
    let mut stolen_s = 0.0;
    let mut first_rows: Option<Vec<Fig6Row>> = None;
    let mut last_ex;
    let t_run = Instant::now();
    loop {
        let mut ex = explorer(sz.sweep_window, sz.final_window);
        let (t, s0) = (Instant::now(), stolen_ticks());
        let rows = ex.figure6(&panel_specs).expect("figure6 pipeline");
        // Both workers are busy for the whole pipeline, so CPU time the
        // hypervisor stole from either vCPU delayed the result by that
        // time over the vCPU count: wall time less that is the time the
        // program itself took.
        let stolen = (stolen_ticks() - s0) as f64 * TICK_S;
        stolen_s += stolen;
        rates.push(jobs / (t.elapsed().as_secs_f64() - stolen / vcpus));
        match &first_rows {
            None => first_rows = Some(rows),
            Some(first) => tally.check("repeat pipeline rows", rows_equal(first, &rows), || {
                "a repeated pipeline produced different rows".to_string()
            }),
        }
        last_ex = ex;
        if rates.len() == 1 {
            // Later pipelines' thread churn moves the high-water mark by
            // megabytes without any change in the program.
            peak_rss = peak_rss_mb();
        }
        // The traced run compares its second untraced pipeline (the
        // first still pays for the process's memory growth) with a traced
        // one.
        if (ctx.trace && rates.len() == 2)
            || (!ctx.trace && t_run.elapsed().as_secs_f64() >= ctx.seconds)
        {
            break;
        }
    }
    let rows = first_rows.expect("at least one pipeline ran");
    let mut ex = last_ex;
    if !ctx.trace {
        setups.extend((1..sz.setups).map(|_| setup().1));
    }
    oracle(&mut ex, &panel_specs, &rows, ctx.seed, &mut tally);

    let mut info = vec![
        ("pipelines".to_string(), rates.len().to_string()),
        ("stolen_cpu_s".to_string(), format!("{stolen_s:.2}")),
        (
            "pipeline_jobs_per_s".to_string(),
            rates
                .iter()
                .map(|r| format!("{r:.1}"))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("jobs_per_pipeline".to_string(), jobs.to_string()),
        ("panel".to_string(), sz.names.join(",")),
        (
            "fig6_program_gain_pct".to_string(),
            format!(
                "{:.2} (paper {PAPER_PROGRAM_GAIN_PCT})",
                mean_gain_pct(&rows, |r| r.program_ns)
            ),
        ),
        (
            "fig6_phase_gain_pct".to_string(),
            format!(
                "{:.2} (paper {PAPER_PHASE_GAIN_PCT})",
                mean_gain_pct(&rows, |r| r.phase_ns)
            ),
        ),
    ];

    if !ctx.trace {
        // A pipeline is the operation a researcher waits for.
        let pipeline_ms = sorted(rates.iter().map(|r| jobs / r * 1e3).collect());
        metrics.push("setup_s", median(&setups), "s");
        metrics.push("jobs_per_s", median(&rates), "1/s");
        metrics.push("p50_ms", percentile(&pipeline_ms, 50.0), "ms");
        metrics.push("p95_ms", percentile(&pipeline_ms, 95.0), "ms");
        metrics.push("peak_rss_mb", peak_rss, "MiB");
        metrics.push("ok_frac", tally.ok_frac(), "fraction");
        return Outcome {
            metrics,
            tally,
            info,
            tracer: None,
        };
    }

    let (mut tex, traced_rows, traced_wall) = engine_layer(
        &panel_specs,
        sz.sweep_window,
        sz.final_window,
        &tracer,
        &mut metrics,
    );
    tally.check(
        "traced pipeline rows",
        rows_equal(&rows, &traced_rows),
        || "the staged, traced pipeline disagrees with Explorer::figure6".to_string(),
    );
    let untraced_rate = rates[rates.len() - 1];
    metrics.push(
        "trace.overhead_frac",
        untraced_rate / (jobs / traced_wall) - 1.0,
        "fraction",
    );

    // Keys and values the pipeline stored, for the store layer.
    let sync_best = tex.sync_sweep(&panel_specs).expect("cached").best;
    let mut store_items = Vec::new();
    for (spec, row) in panel_specs.iter().zip(&traced_rows) {
        store_items.push((
            MeasureItem::sync(spec.clone(), sync_best).cache_key(sz.final_window),
            row.sync_ns,
        ));
        for cfg in gals_core::McdConfig::enumerate() {
            let key = MeasureItem::program(spec.clone(), cfg).cache_key(sz.sweep_window);
            if let Some(ns) = tex.engine().cache().get(&key) {
                store_items.push((key, ns));
            }
        }
    }
    let inputs = LayerInputs {
        seed: ctx.seed,
        benches: panel_specs
            .iter()
            .zip(&traced_rows)
            .map(|(s, r)| layers::Bench {
                spec: s.clone(),
                sync: sync_best,
                prog: r.program_cfg,
            })
            .collect(),
        window: sz.final_window,
        store_items,
        store_dir: ctx.scratch.join("store"),
        recover_from: None,
        sched_window: sz.sweep_window,
        tiny: ctx.tiny,
    };
    layers::measure(&inputs, &mut metrics, &mut tally);
    // No server runs in this workload: the serving layer is probed on
    // two seeded configurations of each panel benchmark (24 requests, as
    // the serving workloads' probes send).
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5E4E);
    let pairs: Vec<(String, usize)> = sz
        .names
        .iter()
        .flat_map(|n| {
            let a = rng.next_below(256) as usize;
            let b = (a + 1 + rng.next_below(255) as usize) % 256;
            [(n.to_string(), a), (n.to_string(), b)]
        })
        .collect();
    serve::probe(
        &ctx.scratch.join("probe"),
        &pairs,
        sz.sweep_window,
        &mut tally,
    )
    .push(&mut metrics);
    info.push(("traced_pipeline_s".to_string(), traced_wall.to_string()));
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
    fn reseed_copies_every_model_parameter() {
        for spec in suite::all() {
            assert!(reseed(&spec, spec.seed()) == spec, "{}", spec.name());
            assert!(reseed(&spec, 7).seed() == 7);
        }
    }

    #[test]
    fn reference_oracle_rejects_a_wrong_value() {
        let spec = suite::by_name("adpcm_encode").unwrap();
        let item = MeasureItem::program(spec, gals_core::McdConfig::smallest());
        let right = reference_ns(&item.machine, &item.spec, 300);
        let wrong = f64::from_bits(right.to_bits() + 1);
        let mut tally = Tally::default();
        check_against_reference(
            vec![
                ("right".to_string(), item.clone(), 300, right),
                ("wrong".to_string(), item, 300, wrong),
            ],
            &mut tally,
        );
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.ok_frac() < 1.0);
    }
}
