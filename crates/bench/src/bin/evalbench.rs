//! Headline measurements for the parallel evaluation pipeline.
//!
//! Usage:
//!
//! ```text
//! evalbench [OUTPUT.json] [--floors] [--mock-synth PATH]
//! ```
//!
//! Times four surfaces and writes a JSON summary (default
//! `BENCH_evalpipeline.json`):
//!
//! * **eval_batch** — one identical GA search at every worker count in
//!   the 1/2/4/8 matrix, verifying bit-for-bit equal outcomes along the
//!   way and recording per-count wall clock against the serial baseline.
//! * **dataset_query** — `top_fraction_threshold` on the 27,648-point
//!   router dataset: the old sort-per-call algorithm vs the memoized
//!   sorted-column index (the PR 5's >= 5x acceptance headline).
//! * **service_latency** — submit -> result round-trip for a trivial
//!   search through an in-process `nautilus-serve` daemon over real
//!   localhost TCP: the fixed tax of going through the service.
//! * **subprocess_dispatch** (with `--mock-synth PATH`) — the same short
//!   router search in-process and through one `mock-synth` child,
//!   reporting the per-job cost of crossing the `NAUTPROC` process
//!   boundary. Skipped (with a marker in the JSON) when the flag is
//!   absent, because the mock tool binary only exists after a test
//!   build.
//!
//! `--floors` additionally enforces the perf floors from ISSUE 7 and
//! exits non-zero on regression:
//!
//! * every batched configuration must stay >= 0.90x serial even when
//!   parallelism cannot help — a sanity bound on pool/SoA overhead that
//!   tolerates scheduler noise on single-thread shared hosts;
//! * batched eval must be *strictly faster* than serial when the host
//!   has >= 2 hardware threads (skipped, loudly, on smaller hosts).
//!
//! The dataset-query >= 5x floor is always enforced, with or without
//! `--floors`. `scripts/bench.sh` decides whether `--floors` applies by
//! comparing this host's thread count against the committed run's
//! recorded `host_threads`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use nautilus::{Nautilus, Phase, Query, Tracer};
use nautilus_ga::{Direction, GaSettings, Genome};
use nautilus_noc::router::RouterModel;
use nautilus_synth::{CostModel, Dataset, MetricExpr, MetricSet};

const QUERY_CALLS: usize = 200;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A surrogate made artificially expensive (re-evaluated `REPEAT` times per
/// point) so batch evaluation has synthesis-shaped work to parallelize.
struct SlowRouter {
    inner: RouterModel,
}

const REPEAT: usize = 2000;

impl CostModel for SlowRouter {
    fn name(&self) -> &str {
        "router-slow"
    }

    fn space(&self) -> &nautilus_ga::ParamSpace {
        self.inner.space()
    }

    fn catalog(&self) -> &nautilus_synth::MetricCatalog {
        self.inner.catalog()
    }

    fn evaluate(&self, g: &Genome) -> Option<MetricSet> {
        let mut out = None;
        for _ in 0..REPEAT {
            out = std::hint::black_box(self.inner.evaluate(g));
        }
        out
    }
}

/// Worker counts of the eval-batch matrix. At `1` the scoring loop
/// evaluates every miss inline; every other count prefetches each
/// generation's misses on the persistent pool.
const WORKER_MATRIX: [usize; 4] = [1, 2, 4, 8];

fn bench_eval_batch() -> (f64, Vec<(usize, f64)>) {
    let model = SlowRouter { inner: RouterModel::swept() };
    let fmax = MetricExpr::metric(model.catalog().require("fmax").expect("metric"));
    let query = Query::maximize("fmax", fmax);
    let run = |workers: usize| {
        let settings =
            GaSettings { generations: 40, eval_workers: workers, ..GaSettings::default() };
        let engine = Nautilus::new(&model).with_settings(settings);
        let start = Instant::now();
        let outcome = engine.run_baseline(&query, 42).expect("search runs");
        (start.elapsed(), outcome)
    };
    // Warm-up, then the worker matrix. Every run must reproduce the
    // serial outcome bit for bit. Each configuration reports its best of
    // `ROUNDS` samples, taken round-robin (each matrix entry once per
    // round) so every configuration sees the same background-load
    // regimes rather than its own contiguous window. The workers=1 entry
    // runs the serial scoring loop, so it *is* the serial baseline.
    const ROUNDS: usize = 5;
    let (_, serial_outcome) = run(1);
    let mut best = vec![f64::INFINITY; WORKER_MATRIX.len()];
    for _ in 0..ROUNDS {
        for (slot, workers) in WORKER_MATRIX.into_iter().enumerate() {
            let (t, outcome) = run(workers);
            assert_eq!(outcome, serial_outcome, "worker pools must not change outcomes");
            best[slot] = best[slot].min(ms(t));
        }
    }
    let serial = best[0];
    let matrix = WORKER_MATRIX.into_iter().zip(best.iter().copied()).collect();
    (serial, matrix)
}

/// Repeats the 4-worker search with a span tracer attached and returns
/// the per-phase attribution as pre-rendered JSON member lines plus the
/// top *overhead* phase — the largest self time that is not useful
/// evaluation work ([`Phase::MissEval`]) — naming where the wall clock
/// beyond the evaluations themselves goes.
fn trace_eval_batch() -> (String, String) {
    let model = SlowRouter { inner: RouterModel::swept() };
    let fmax = MetricExpr::metric(model.catalog().require("fmax").expect("metric"));
    let query = Query::maximize("fmax", fmax);
    let settings = GaSettings { generations: 40, eval_workers: 4, ..GaSettings::default() };
    let tracer = Tracer::new();
    let engine = Nautilus::new(&model).with_settings(settings).with_tracer(&tracer);
    engine.run_baseline(&query, 42).expect("search runs");
    let stats = tracer.phase_stats();
    let top = stats
        .iter()
        .filter(|(p, _)| **p != Phase::MissEval)
        .max_by_key(|(_, s)| s.self_nanos)
        .map(|(p, _)| p.label().to_owned())
        .expect("traced run records phases");
    let members: Vec<String> = stats
        .iter()
        .map(|(p, s)| {
            format!(
                "      \"{}\": {{ \"count\": {}, \"total_ms\": {:.3}, \"self_ms\": {:.3} }}",
                p.label(),
                s.count,
                s.total_nanos as f64 / 1e6,
                s.self_nanos as f64 / 1e6
            )
        })
        .collect();
    (members.join(",\n"), top)
}

/// Submit -> result round-trip latency through a real `nautilus-serve`
/// daemon (in-process instance, real TCP, real state directory): the
/// fixed service tax a client pays over calling the engine directly.
/// Returns `(best ms, mean ms, jobs)`.
fn bench_service_latency() -> (f64, f64, usize) {
    use nautilus_serve::job::JobSpec;
    use nautilus_serve::{Daemon, DaemonConfig, ServeClient};

    let dir = std::env::temp_dir().join(format!("nautilus-evalbench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create daemon state dir");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).expect("start daemon");
    let client = ServeClient::from_state_dir(&dir).expect("read endpoint");

    const JOBS: usize = 8;
    let mut samples = Vec::with_capacity(JOBS);
    for seed in 0..JOBS {
        let spec = JobSpec {
            tenant: "bench".into(),
            model: "bowl".into(),
            strategy: "baseline".into(),
            seed: seed as u64,
            generations: 4,
            eval_workers: 1,
            max_evals: 0,
            deadline_ms: 0,
            eval_delay_us: 0,
            dedupe_key: String::new(),
        };
        let start = Instant::now();
        let job = client.submit(&spec).expect("submit").expect("admitted");
        client.wait_result(job, Duration::from_secs(60)).expect("result");
        samples.push(ms(start.elapsed()));
    }
    daemon.drain_and_join();
    let _ = std::fs::remove_dir_all(&dir);

    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    (best, mean, JOBS)
}

fn bench_dataset_query() -> (f64, f64, usize) {
    let router = RouterModel::swept();
    let d = Dataset::characterize(&router, 0).expect("characterizes");
    let fmax = MetricExpr::metric(d.catalog().require("fmax").expect("metric"));
    let fracs: Vec<f64> = (0..QUERY_CALLS).map(|i| 0.01 + 0.9 * i as f64 / 250.0).collect();

    let sort_per_call = |frac: f64| {
        let mut values: Vec<f64> =
            d.eval_all(&fmax).into_iter().filter(|v| v.is_finite()).collect();
        values.sort_by(|a, b| {
            if Direction::Maximize.is_better(*a, *b) {
                std::cmp::Ordering::Less
            } else if Direction::Maximize.is_better(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        });
        let k = ((values.len() as f64 * frac).ceil() as usize).clamp(1, values.len());
        values[k - 1]
    };

    let start = Instant::now();
    let mut reference = Vec::with_capacity(fracs.len());
    for &f in &fracs {
        reference.push(std::hint::black_box(sort_per_call(f)));
    }
    let linear_time = start.elapsed();

    // Measured cold: the first call pays the one-time index build.
    let start = Instant::now();
    let mut indexed = Vec::with_capacity(fracs.len());
    for &f in &fracs {
        indexed.push(std::hint::black_box(d.top_fraction_threshold(&fmax, Direction::Maximize, f)));
    }
    let indexed_time = start.elapsed();
    assert_eq!(indexed, reference, "indexed thresholds must match sort-per-call");

    (ms(linear_time), ms(indexed_time), d.len())
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_evalpipeline.json".to_owned();
    let mut floors = false;
    let mut mock_synth: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--floors" => floors = true,
            "--mock-synth" => match args.next() {
                Some(path) => mock_synth = Some(path),
                None => {
                    eprintln!("--mock-synth expects a path to the mock tool binary");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag {flag}; usage: evalbench [OUTPUT.json] [--floors] \
                     [--mock-synth PATH]"
                );
                return ExitCode::FAILURE;
            }
            path => out_path = path.to_owned(),
        }
    }
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    eprintln!("eval_batch: identical search across the {WORKER_MATRIX:?} worker matrix ...");
    let (serial_ms, matrix) = bench_eval_batch();
    let entry = |workers: usize| {
        matrix.iter().find(|(w, _)| *w == workers).map(|(_, t)| *t).expect("matrix entry")
    };
    let parallel_ms = entry(4);
    for (workers, t) in &matrix {
        eprintln!("  workers {workers}: {t:.1} ms ({:.2}x serial)", serial_ms / t);
    }

    eprintln!("dataset_query: {QUERY_CALLS} thresholds on the router dataset ...");
    let (linear_ms, indexed_ms, points) = bench_dataset_query();
    eprintln!("  sort-per-call {linear_ms:.1} ms, indexed {indexed_ms:.1} ms");

    eprintln!("service_latency: submit -> result through a nautilus-serve daemon ...");
    let (service_best_ms, service_mean_ms, service_jobs) = bench_service_latency();
    eprintln!("  {service_jobs} jobs, best {service_best_ms:.1} ms, mean {service_mean_ms:.1} ms");

    // Optional: per-job cost of the NAUTPROC process boundary, measured
    // against a real mock-synth child with bit-identical outcomes
    // verified inside the measurement itself.
    let subprocess_block = match &mock_synth {
        Some(tool) => {
            eprintln!("subprocess_dispatch: short router search across the process boundary ...");
            let r = nautilus_bench::measure_subprocess_dispatch(std::path::Path::new(tool));
            eprintln!(
                "  in-process {:.1} ms, subprocess {:.1} ms, {:.1} us/job over {} jobs",
                r.inprocess_ms, r.subprocess_ms, r.overhead_us_per_job, r.jobs
            );
            format!(
                concat!(
                    "  \"subprocess_dispatch\": {{\n",
                    "    \"search\": \"router baseline, 20 generations, seed 42\",\n",
                    "    \"inprocess_ms\": {:.2},\n",
                    "    \"subprocess_ms\": {:.2},\n",
                    "    \"jobs\": {},\n",
                    "    \"overhead_us_per_job\": {:.1},\n",
                    "    \"outcomes_identical\": true\n",
                    "  }},"
                ),
                r.inprocess_ms, r.subprocess_ms, r.jobs, r.overhead_us_per_job
            )
        }
        None => {
            "  \"subprocess_dispatch\": { \"skipped\": \"pass --mock-synth PATH\" },".to_owned()
        }
    };

    eprintln!("phase_attribution: traced re-run of the batch surface ...");
    let (batch_phases, batch_top) = trace_eval_batch();
    eprintln!("  eval_batch top overhead phase: {batch_top}");

    let query_speedup = linear_ms / indexed_ms;
    let matrix_rows: Vec<String> = matrix
        .iter()
        .map(|(workers, t)| {
            format!(
                "      {{ \"workers\": {workers}, \"ms\": {t:.2}, \"speedup_vs_serial\": {:.3} }}",
                serial_ms / t
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"evalpipeline\",\n",
            "  \"host_threads\": {host_threads},\n",
            "  \"eval_batch\": {{\n",
            "    \"search\": \"router-slow baseline, 40 generations, seed 42\",\n",
            "    \"serial_ms\": {serial:.2},\n",
            "    \"parallel_ms\": {parallel:.2},\n",
            "    \"speedup\": {batch_speedup:.2},\n",
            "    \"outcomes_identical\": true,\n",
            "    \"matrix\": [\n",
            "{matrix_rows}\n",
            "    ]\n",
            "  }},\n",
            "  \"dataset_query\": {{\n",
            "    \"points\": {points},\n",
            "    \"calls\": {calls},\n",
            "    \"sort_per_call_ms\": {linear:.2},\n",
            "    \"indexed_ms\": {indexed:.2},\n",
            "    \"speedup\": {query_speedup:.2}\n",
            "  }},\n",
            "  \"service_latency\": {{\n",
            "    \"search\": \"bowl baseline, 4 generations, via nautilus-serve\",\n",
            "    \"jobs\": {service_jobs},\n",
            "    \"submit_to_result_best_ms\": {service_best:.2},\n",
            "    \"submit_to_result_mean_ms\": {service_mean:.2}\n",
            "  }},\n",
            "{subprocess_block}\n",
            "  \"phase_attribution\": {{\n",
            "    \"eval_batch\": {{\n",
            "      \"workers\": 4,\n",
            "      \"top_overhead_phase\": \"{batch_top}\",\n",
            "      \"phases\": {{\n",
            "{batch_phases}\n",
            "      }}\n",
            "    }}\n",
            "  }}\n",
            "}}\n",
        ),
        host_threads = host_threads,
        matrix_rows = matrix_rows.join(",\n"),
        serial = serial_ms,
        parallel = parallel_ms,
        batch_speedup = serial_ms / parallel_ms,
        points = points,
        calls = QUERY_CALLS,
        linear = linear_ms,
        indexed = indexed_ms,
        query_speedup = query_speedup,
        service_jobs = service_jobs,
        service_best = service_best_ms,
        service_mean = service_mean_ms,
        subprocess_block = subprocess_block,
        batch_top = batch_top,
        batch_phases = batch_phases,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    print!("{json}");
    if query_speedup < 5.0 {
        eprintln!("FAIL: indexed dataset queries only {query_speedup:.1}x faster (need >= 5x)");
        return ExitCode::FAILURE;
    }
    if floors {
        let mut failed = false;
        // Overhead sanity bound for the batched path. On a single-thread
        // host the pool cannot win, only timeshare; the bound tolerates
        // scheduler noise (a few percent on shared hosts) while still
        // catching any return of per-generation spawn/clone overhead.
        let batched_min_speedup = matrix
            .iter()
            .filter(|(w, _)| *w >= 2)
            .map(|(_, t)| serial_ms / t)
            .fold(f64::INFINITY, f64::min);
        if batched_min_speedup < 0.90 {
            eprintln!("FAIL floor: batched eval {batched_min_speedup:.3}x serial (need >= 0.90x)");
            failed = true;
        }
        let batched_best_speedup =
            matrix.iter().filter(|(w, _)| *w >= 2).map(|(_, t)| serial_ms / t).fold(0.0, f64::max);
        if host_threads >= 2 {
            if batched_best_speedup <= 1.0 {
                eprintln!(
                    "FAIL floor: best batched eval {batched_best_speedup:.3}x serial \
                     (need > 1.0x on a {host_threads}-thread host)"
                );
                failed = true;
            }
        } else {
            eprintln!(
                "floor skipped: strictly-faster-than-serial needs >= 2 host threads \
                 (this host has {host_threads})"
            );
        }
        if failed {
            return ExitCode::FAILURE;
        }
        eprintln!("perf floors hold: batched >= 0.90x");
    }
    eprintln!("wrote {out_path}");
    ExitCode::SUCCESS
}
