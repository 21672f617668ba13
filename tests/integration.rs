//! Cross-crate integration tests: the full Nautilus pipeline from IP
//! generator models through datasets, hints, engines and baselines.

use nautilus::{
    brute_force, compare, estimate_hints, random_search, CompareConfig, Confidence, EstimateConfig,
    Nautilus, Query, Strategy,
};
use nautilus_fft::FftModel;
use nautilus_ga::{Direction, GaSettings};
use nautilus_noc::router::RouterModel;
use nautilus_synth::{CostModel, Dataset, MetricExpr};

fn quick_settings() -> GaSettings {
    GaSettings { generations: 30, ..GaSettings::default() }
}

#[test]
fn guided_router_search_beats_baseline_in_mean_quality_per_job() {
    let model = RouterModel::swept();
    let fmax = MetricExpr::metric(model.catalog().require("fmax").unwrap());
    let query = Query::maximize("fmax", fmax);
    let engine = Nautilus::new(&model).with_settings(quick_settings());
    let hints = nautilus_noc::hints::fmax_hints();

    let mut base_best = 0.0;
    let mut guided_best = 0.0;
    let mut base_jobs = 0.0;
    let mut guided_jobs = 0.0;
    let runs = 8;
    for seed in 0..runs {
        let b = engine.run_baseline(&query, seed).unwrap();
        let g = engine.run_guided(&query, &hints, Some(Confidence::STRONG), seed).unwrap();
        base_best += b.best_value;
        guided_best += g.best_value;
        base_jobs += b.total_evals() as f64;
        guided_jobs += g.total_evals() as f64;
    }
    let n = runs as f64;
    assert!(
        guided_best / n >= base_best / n - 3.0,
        "guided quality regressed: {} vs {}",
        guided_best / n,
        base_best / n
    );
    assert!(
        guided_jobs < base_jobs,
        "guided should synthesize fewer distinct designs: {guided_jobs} vs {base_jobs}"
    );
}

#[test]
fn dataset_replay_equals_direct_model_search() {
    // The paper replays searches against a pre-characterized dataset; that
    // must be indistinguishable from querying the generator directly.
    let model = FftModel::new();
    let dataset = Dataset::characterize(&model, 4).unwrap();
    let replay = dataset.as_model();
    let luts = MetricExpr::metric(model.catalog().require("luts").unwrap());
    let query = Query::minimize("luts", luts);

    let direct = Nautilus::new(&model).with_settings(quick_settings());
    let replayed = Nautilus::new(&replay).with_settings(quick_settings());
    for seed in [1, 7, 42] {
        let a = direct.run_baseline(&query, seed).unwrap();
        let b = replayed.run_baseline(&query, seed).unwrap();
        assert_eq!(a.best_genome, b.best_genome, "seed {seed}");
        assert_eq!(a.best_value, b.best_value, "seed {seed}");
        assert_eq!(a.trace, b.trace, "seed {seed}");
    }
}

#[test]
fn estimation_pipeline_accelerates_fft_search() {
    let model = FftModel::new();
    let luts = MetricExpr::metric(model.catalog().require("luts").unwrap());
    let query = Query::minimize("luts", luts.clone());
    let est = estimate_hints(&model, &query, EstimateConfig::default(), 3).unwrap();
    assert!(est.jobs.jobs > 10, "estimation should probe designs");
    est.hints.validate(model.space()).unwrap();

    // Architecture, transform size and streaming width dominate FFT area
    // (each multiplies the datapath); the estimator must rank one of them
    // as the most important parameter.
    let (top_param, _) = est
        .diagnostics
        .iter()
        .map(|(name, _, imp)| (name.as_str(), *imp))
        .max_by_key(|(_, imp)| *imp)
        .expect("diagnostics not empty");
    assert!(
        ["arch", "transform_size", "streaming_width"].contains(&top_param),
        "unexpected dominant parameter {top_param}"
    );

    let dataset = Dataset::characterize(&model, 4).unwrap();
    let replay = dataset.as_model();
    let cmp = compare(
        &replay,
        &query,
        &[
            Strategy::baseline(),
            Strategy::guided("estimated", est.hints.clone(), Some(Confidence::STRONG)),
        ],
        &CompareConfig { runs: 8, seed: 9, settings: quick_settings(), threads: 4 },
    )
    .unwrap();
    let (_, best) = dataset.best(&luts, Direction::Minimize);
    let base = cmp.result("baseline").unwrap().reach_stats(Direction::Minimize, 1.5 * best);
    let est_r = cmp.result("estimated").unwrap().reach_stats(Direction::Minimize, 1.5 * best);
    assert!(est_r.reached >= base.reached.saturating_sub(1));
    if let (Some(b), Some(e)) = (base.mean_evals, est_r.mean_evals) {
        assert!(e <= b * 1.3, "estimated hints should not slow the search: {e} vs {b}");
    }
}

#[test]
fn brute_force_is_the_quality_ceiling() {
    let model = FftModel::new();
    let dataset = Dataset::characterize(&model, 4).unwrap();
    let luts = MetricExpr::metric(model.catalog().require("luts").unwrap());
    let query = Query::minimize("luts", luts.clone());
    let (genome, value, examined) = brute_force(&dataset, &query).unwrap();
    assert_eq!(examined as usize, dataset.len());
    let (best_g, best_v) = dataset.best(&luts, Direction::Minimize);
    assert_eq!(&genome, best_g);
    assert_eq!(value, best_v);

    // No search strategy may beat the brute-force optimum.
    let outcome = Nautilus::new(&dataset.as_model())
        .with_settings(quick_settings())
        .run_baseline(&query, 5)
        .unwrap();
    assert!(outcome.best_value >= value);
}

#[test]
fn random_search_is_far_costlier_on_rare_goals() {
    let model = FftModel::new();
    let dataset = Dataset::characterize(&model, 4).unwrap();
    let luts = MetricExpr::metric(model.catalog().require("luts").unwrap());
    let (_, best) = dataset.best(&luts, Direction::Minimize);
    // Reaching within 1% of the optimum by uniform sampling costs thousands
    // of draws; the GA (even the baseline) does it in a few hundred.
    let expected = dataset.expected_random_draws(&luts, Direction::Minimize, 1.01 * best).unwrap();
    assert!(expected > 1_000.0, "rare goal not rare: {expected}");

    let query = Query::minimize("luts", luts);
    let outcome = random_search(&dataset.as_model(), &query, 400, 10, 8).unwrap();
    assert_eq!(outcome.jobs.jobs, 400);
    assert!(outcome.best_value >= best);
}

#[test]
fn simulated_eda_time_is_accounted() {
    let model = RouterModel::swept();
    let fmax = MetricExpr::metric(model.catalog().require("fmax").unwrap());
    let query = Query::maximize("fmax", fmax);
    let outcome =
        Nautilus::new(&model).with_settings(quick_settings()).run_baseline(&query, 2).unwrap();
    let hours = outcome.jobs.simulated_tool_time().as_secs_f64() / 3600.0;
    let jobs = outcome.total_evals() as f64;
    // Each synthesis job simulates 5-45 minutes of tool time.
    assert!(hours >= jobs * 5.0 / 60.0);
    assert!(hours <= jobs * 45.0 / 60.0);
}

#[test]
fn all_shipped_hint_books_resolve_and_run() {
    let router = RouterModel::swept();
    let fft = FftModel::new();
    let settings = GaSettings { generations: 5, ..GaSettings::default() };

    let fmax = MetricExpr::metric(router.catalog().require("fmax").unwrap());
    let adp = MetricExpr::area_delay(
        router.catalog().require("fmax").unwrap(),
        router.catalog().require("luts").unwrap(),
    );
    let r_engine = Nautilus::new(&router).with_settings(settings);
    r_engine
        .run_guided(&Query::maximize("fmax", fmax), &nautilus_noc::hints::fmax_hints(), None, 0)
        .unwrap();
    r_engine
        .run_guided(
            &Query::minimize("area_delay", adp),
            &nautilus_noc::hints::area_delay_hints(),
            Some(Confidence::WEAK),
            0,
        )
        .unwrap();

    let luts = MetricExpr::metric(fft.catalog().require("luts").unwrap());
    let tpl = MetricExpr::metric(fft.catalog().require("throughput").unwrap())
        / MetricExpr::metric(fft.catalog().require("luts").unwrap());
    let f_engine = Nautilus::new(&fft).with_settings(settings);
    f_engine
        .run_guided(
            &Query::minimize("luts", luts.clone()),
            &nautilus_fft::hints::min_luts_hints(),
            None,
            0,
        )
        .unwrap();
    f_engine
        .run_guided(
            &Query::maximize("tpl", tpl),
            &nautilus_fft::hints::throughput_per_lut_hints(),
            Some(Confidence::STRONG),
            0,
        )
        .unwrap();
    for count in [1, 2] {
        f_engine
            .run_guided(
                &Query::minimize("luts", luts.clone()),
                &nautilus_fft::hints::bias_only_hints(count),
                None,
                0,
            )
            .unwrap();
    }
}

#[test]
fn telemetry_jsonl_stream_and_report_reconcile_with_job_stats() {
    use nautilus::obs::json::parse_json;
    use nautilus::JsonlSink;

    let model = RouterModel::swept();
    let fmax = MetricExpr::metric(model.catalog().require("fmax").unwrap());
    let query = Query::maximize("fmax", fmax);
    let hints = nautilus_noc::hints::fmax_hints();

    let path = std::env::temp_dir().join("nautilus-telemetry-integration.events.jsonl");
    let sink = JsonlSink::create(&path).unwrap();
    let engine = Nautilus::new(&model).with_settings(quick_settings()).with_observer(&sink);
    let (outcome, report) =
        engine.run_guided_reported(&query, &hints, Some(Confidence::STRONG), 4).unwrap();
    sink.flush().unwrap();
    assert_eq!(sink.write_errors(), 0);

    // Every streamed line is a standalone JSON object, bracketed by
    // run_start/run_end.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "event stream not empty");
    for line in &lines {
        assert!(parse_json(line).is_ok(), "invalid JSONL line: {line}");
    }
    assert!(lines[0].contains("\"type\":\"run_start\""));
    assert!(lines.last().unwrap().contains("\"type\":\"run_end\""));

    // The aggregated report reconciles with the runner's own accounting:
    // feasible + infeasible + cached events == jobs + infeasible +
    // cache_hits == total lookups.
    assert_eq!(report.evals.feasible, outcome.jobs.jobs);
    assert_eq!(report.evals.infeasible, outcome.jobs.infeasible);
    assert_eq!(report.evals.cached, outcome.jobs.cache_hits);
    assert_eq!(report.evals.total_lookups(), outcome.jobs.total_lookups());
    assert_eq!(report.evals.tool_secs, outcome.jobs.simulated_tool_secs);
    let eval_lines =
        lines.iter().filter(|l| l.contains("\"type\":\"eval_completed\"")).count() as u64;
    assert_eq!(eval_lines, outcome.jobs.total_lookups());

    // The summary report itself is valid JSON and matches the outcome.
    assert!(parse_json(&report.to_json()).is_ok());
    assert_eq!(report.strategy, outcome.strategy);
    assert_eq!(report.best_value, outcome.best_value);
    assert_eq!(report.distinct_evals, outcome.jobs.jobs);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn full_42_parameter_space_is_searchable_directly() {
    // The paper's motivation: billions of design points, no dataset
    // possible. Nautilus searches the generator directly.
    let model = RouterModel::full();
    assert!(model.space().cardinality() > 1_000_000_000u128);
    let fmax = MetricExpr::metric(model.catalog().require("fmax").unwrap());
    let query = Query::maximize("fmax", fmax);
    let outcome = Nautilus::new(&model)
        .with_settings(GaSettings { generations: 20, ..GaSettings::default() })
        .run_baseline(&query, 13)
        .unwrap();
    assert!(outcome.best_value > 100.0);
    assert!(model.space().contains(&outcome.best_genome));
}
