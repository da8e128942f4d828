//! The Soteria benchmark: one command, two workloads, end-to-end metrics
//! with tracing off and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload screen-batch|screen-stream --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it records the
//! configuration the run actually used. See `perfbench/README.md`.

mod drive;
mod inputs;
mod layers;
mod stats;
mod trace;

use drive::{DriveResult, SETUPS, SUBMITTERS};
use inputs::{Inputs, Workload};
use soteria::{Soteria, SoteriaConfig, Verdict};
use soteria_serve::request_seed;
use soteria_telemetry::{MetricsReport, Trace};
use stats::{median, PeakRss, Summary};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Trainings per run; `train_s` is their median.
const TRAININGS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds must be 1..=60, not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload screen-batch|screen-stream \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    println!("{}", report.record);
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: verdict check failed: {}",
            report.problems.join("; ")
        );
        ExitCode::FAILURE
    }
}

/// A metric value with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

struct Report {
    correct: bool,
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    record: String,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Verdict-level tallies of one drive against the oracle.
#[derive(Debug, Default)]
struct Tally {
    sent: usize,
    rejected: usize,
    degraded: usize,
    mismatches: usize,
}

impl Tally {
    fn of(drive: &DriveResult, inputs: &Inputs, expected: &BTreeMap<usize, Verdict>) -> Self {
        let mut t = Tally {
            sent: drive.outcomes.len(),
            ..Tally::default()
        };
        for o in &drive.outcomes {
            match &o.verdict {
                None => t.rejected += 1,
                Some(v) => {
                    t.degraded += usize::from(v.is_degraded());
                    let entry = inputs.schedule[o.position];
                    t.mismatches += usize::from(expected.get(&entry) != Some(v));
                }
            }
        }
        t
    }

    fn failed(&self) -> usize {
        self.rejected + self.degraded + self.mismatches
    }
}

fn run(args: &Args) -> Report {
    let origin = Instant::now();
    let w = args.workload;
    let seconds = args.seconds as f64;
    let inputs = inputs::generate(w, args.seed, args.seconds);
    let phase = |name: &str| {
        eprintln!(
            "perfbench: {name} done at {:.2} s",
            origin.elapsed().as_secs_f64()
        )
    };
    phase("input generation");
    eprintln!(
        "perfbench: {} corpus samples, {} distinct binaries ({} GEA), {} requests scheduled",
        inputs.corpus.len(),
        inputs.pool.len(),
        inputs.pool.iter().filter(|r| r.adversarial).count(),
        inputs.schedule.len()
    );
    let config = SoteriaConfig::tiny();
    soteria_pool::warm();
    let mut problems = Vec::new();

    // Timed phase 1: training the model the workload serves, repeated.
    let rss = PeakRss::start();
    let mut train_s = Vec::new();
    let mut artifact: Option<Vec<u8>> = None;
    for _ in 0..TRAININGS {
        let t = Instant::now();
        let (model, _) =
            Soteria::train_with_metrics(&config, &inputs.corpus, &inputs.train, args.seed)
                .expect("training on a generated corpus succeeds");
        train_s.push(t.elapsed().as_secs_f64());
        let bytes = artifact_of(&model);
        match &artifact {
            None => artifact = Some(bytes),
            Some(first) if *first != bytes => {
                problems.push("repeated training produced a different model".into())
            }
            Some(_) => {}
        }
    }
    let artifact = artifact.expect("trained at least once");
    let train_rss = rss.stop();
    phase("training");

    // Set-up, repeated; the last service stays up for the screening phase.
    let serve_config = drive::serve_config(args.seed);
    let (service, setup_s, _) =
        drive::set_up_repeatedly(&artifact, &inputs.warmup, &serve_config, false);

    // Timed phase 2: screening. Peak memory is taken over this phase.
    let rss = PeakRss::start();
    let untraced = screen(w, &service, &inputs, Some(seconds));
    drop(service.shutdown());
    let screen_rss = rss.stop();
    phase("screening");

    let used = first_use_order(&untraced, &inputs);
    let mut attempted = untraced.outcomes.len();
    let (expected, layer_metrics, traced_tally) = if args.trace {
        let (expected, metrics, tally) = traced_run(
            args,
            &inputs,
            &config,
            &artifact,
            &untraced,
            &used,
            &mut problems,
        );
        attempted += tally.sent;
        (expected, Some(metrics), Some(tally))
    } else {
        (oracle(&artifact, &inputs, &used, args.seed), None, None)
    };

    phase("verification");
    let tally = Tally::of(&untraced, &inputs, &expected);
    let mut failed = tally.failed();
    let mut mismatches = tally.mismatches;
    if let Some(t) = &traced_tally {
        failed += t.failed();
        mismatches += t.mismatches;
    }
    if mismatches > 0 {
        problems.push(format!(
            "{mismatches} service verdicts differ from the oracle"
        ));
    }

    // Quality of the served model, over the distinct binaries screened.
    let (mut clean, mut clean_flagged, mut gea, mut gea_flagged) = (0usize, 0usize, 0usize, 0usize);
    for &entry in &used {
        let flagged = expected[&entry].is_adversarial();
        if inputs.pool[entry].adversarial {
            gea += 1;
            gea_flagged += usize::from(flagged);
        } else {
            clean += 1;
            clean_flagged += usize::from(flagged);
        }
    }
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let clean_fpr = ratio(clean_flagged, clean);
    let detect_rate = ratio(gea_flagged, gea);
    if gea > 0 && detect_rate <= clean_fpr {
        problems.push(format!(
            "detector flags GEA examples ({detect_rate:.3}) no more often than clean binaries ({clean_fpr:.3})"
        ));
    }

    let metrics = match layer_metrics {
        Some(m) => m,
        None => {
            let limit = w.latency_limit_ms();
            let answered: Vec<&drive::Outcome> = untraced
                .outcomes
                .iter()
                .filter(|o| o.verdict.is_some())
                .collect();
            let latencies: Vec<f64> = answered.iter().map(|o| o.latency_ms).collect();
            let sent_latencies: Vec<f64> = answered.iter().map(|o| o.sent_latency_ms).collect();
            let within = untraced
                .outcomes
                .iter()
                .filter(|o| {
                    o.latency_ms <= limit && o.verdict.as_ref().is_some_and(|v| !v.is_degraded())
                })
                .count();
            // The open loop's p99 counts from the due time, so a late
            // generator or a backlog shows; its p50 counts from the send,
            // so the sleep timer's slack does not swamp the service's own
            // time. In the closed loop the two are the same.
            let (p50, _) = stats::windowed_percentiles(&sent_latencies);
            let (_, p99) = stats::windowed_percentiles(&latencies);
            let mut m = Metrics::new();
            m.insert("setup_s".into(), (median(&setup_s), "s"));
            m.insert("train_s".into(), (median(&train_s), "s"));
            m.insert(
                "screen_sps".into(),
                (latencies.len() as f64 / untraced.elapsed_s, "verdicts/s"),
            );
            m.insert("latency_p50_ms".into(), (p50, "ms"));
            m.insert("latency_p99_ms".into(), (p99, "ms"));
            m.insert(
                "within_limit_ratio".into(),
                (ratio(within, untraced.outcomes.len()), "ratio"),
            );
            m.insert("peak_rss_mb".into(), (screen_rss.peak_mb, "MiB"));
            m
        }
    };

    let record = format!(
        "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"host_cores\": {}, \"effective_threads\": {}, \"preset\": \"tiny\", \
         \"corpus_samples\": {}, \"train_samples\": {}, \"train_times_s\": {:?}, \"setups\": {SETUPS}, \
         \"submitters\": {}, \"serve_workers\": {}, \"cache_capacity\": {}, \
         \"requests_scheduled\": {}, \"requests_sent\": {}, \"distinct_binaries\": {}, \
         \"gea_binaries\": {gea}, \"clean_binaries\": {clean}, \"pool_clean_share\": {}, \
         \"stream_rate_per_s\": {}, \"stream_first_seen_per_mille\": {}, \"zipf_s\": {}, \
         \"latency_limit_ms\": {}, \"detect_rate\": {detect_rate}, \"clean_fpr\": {clean_fpr}, \
         \"error_rate\": {}, \"mismatches\": {mismatches}, \"degraded\": {}, \"rejected\": {}, \
         \"rss_train_baseline_mb\": {}, \"rss_train_peak_mb\": {}, \
         \"rss_screen_baseline_mb\": {}, \"rss_screen_peak_mb\": {}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from),
        soteria_pool::effective_threads(),
        inputs.corpus.len(),
        inputs.train.len(),
        train_s,
        if w == Workload::ScreenStream { 1 } else { SUBMITTERS },
        serve_config.workers,
        serve_config.cache_capacity,
        inputs.schedule.len(),
        untraced.outcomes.len(),
        used.len(),
        ratio(
            inputs.pool.iter().filter(|r| !r.adversarial).count(),
            inputs.pool.len()
        ),
        inputs::STREAM_RATE,
        inputs::STREAM_FIRST_SEEN_PER_MILLE,
        inputs::STREAM_ZIPF_S,
        w.latency_limit_ms(),
        ratio(failed, attempted),
        tally.degraded + traced_tally.as_ref().map_or(0, |t| t.degraded),
        tally.rejected + traced_tally.as_ref().map_or(0, |t| t.rejected),
        train_rss.baseline_mb,
        train_rss.peak_mb,
        screen_rss.baseline_mb,
        screen_rss.peak_mb,
    );
    Report {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics,
        record,
    }
}

fn artifact_of(model: &Soteria) -> Vec<u8> {
    model
        .save_state()
        .expect("a trained model has a state")
        .to_artifact()
        .expect("a trained model serializes")
}

/// Runs the workload's screening phase on a running service.
fn screen(
    w: Workload,
    service: &soteria_serve::ScreeningService,
    inputs: &Inputs,
    seconds: Option<f64>,
) -> DriveResult {
    let all = inputs.schedule.len();
    match w {
        Workload::ScreenBatch => drive::closed_loop(service, inputs, all, seconds, false),
        Workload::ScreenStream => drive::open_loop(service, inputs, all, false),
    }
}

/// Distinct pool entries a drive sent, in order of first use.
fn first_use_order(drive: &DriveResult, inputs: &Inputs) -> Vec<usize> {
    let mut seen = vec![false; inputs.pool.len()];
    drive
        .outcomes
        .iter()
        .map(|o| inputs.schedule[o.position])
        .filter(|&e| !std::mem::replace(&mut seen[e], true))
        .collect()
}

/// The sequential oracle: `screen_binary(bytes, request_seed(seed, bytes))`
/// on a model loaded from the same artifact, for every distinct binary
/// sent. Runs on two threads, each with its own copy of the model.
fn oracle(artifact: &[u8], inputs: &Inputs, used: &[usize], seed: u64) -> BTreeMap<usize, Verdict> {
    let half = used.len().div_ceil(2).max(1);
    std::thread::scope(|s| {
        let jobs: Vec<_> = used
            .chunks(half)
            .map(|chunk| {
                s.spawn(move || {
                    let mut model = drive::load(artifact);
                    chunk
                        .iter()
                        .map(|&e| {
                            let bytes = &inputs.pool[e].bytes;
                            (e, model.screen_binary(bytes, request_seed(seed, bytes)))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        jobs.into_iter()
            .flat_map(|j| j.join().expect("oracle thread panicked"))
            .collect()
    })
}

/// The traced run's traces of the benchmark's own replays, by kind.
struct Traces {
    /// The stage-by-stage training (one trace, id 0).
    train: Vec<Trace>,
    /// One per set-up, id = set-up index.
    setups: Vec<Trace>,
    /// One per distinct request of the traced drive, id = pool entry.
    replay: Vec<Trace>,
}

/// The traced run: training replayed stage by stage, the start of the
/// untraced drive's requests ([`Workload::traced_requests`]) driven again
/// through a fresh service with submit/wait spans, and each distinct
/// request of that drive replayed layer by layer. Returns the oracle
/// verdicts of every distinct binary either drive sent, the per-layer
/// metrics and the traced drive's tally.
fn traced_run(
    args: &Args,
    inputs: &Inputs,
    config: &SoteriaConfig,
    artifact: &[u8],
    untraced: &DriveResult,
    used: &[usize],
    problems: &mut Vec<String>,
) -> (BTreeMap<usize, Verdict>, Metrics, Tally) {
    let (model, train_trace) =
        layers::traced_train(config, &inputs.corpus, &inputs.train, args.seed);
    if artifact_of(&model) != artifact {
        problems.push("stage-by-stage training differs from train_with_metrics".into());
    }
    drop(model);

    let serve_config = drive::serve_config(args.seed);
    let (service, _, setups) =
        drive::set_up_repeatedly(artifact, &inputs.warmup, &serve_config, true);
    // The service's own stage histograms, from the traced drive alone.
    soteria_telemetry::reset();
    // The first requests the untraced phase sent, so the two compare.
    let prefix = args.workload.traced_requests().min(untraced.outcomes.len());
    let traced = match args.workload {
        Workload::ScreenStream => drive::open_loop(&service, inputs, prefix, true),
        Workload::ScreenBatch => drive::closed_loop(&service, inputs, prefix, None, true),
    };
    drop(service.shutdown());
    let telemetry = soteria_telemetry::snapshot();

    // The traced drive's binaries are a prefix of the untraced drive's.
    let expected = oracle(artifact, inputs, used, args.seed);
    let mut model = drive::load(artifact);
    let replayed = first_use_order(&traced, inputs);
    let mut sizes = Vec::with_capacity(replayed.len());
    let mut replay = Vec::with_capacity(replayed.len());
    let mut disagreements = 0usize;
    for &entry in &replayed {
        let (verdict, size, trace) = layers::replay_request(
            &mut model,
            &inputs.pool[entry].bytes,
            args.seed,
            entry as u64,
        );
        disagreements += usize::from(expected.get(&entry) != Some(&verdict));
        sizes.push(size);
        replay.push(trace);
    }
    if disagreements > 0 {
        problems.push(format!(
            "{disagreements} replayed verdicts differ from the oracle"
        ));
    }
    let tally = Tally::of(&traced, inputs, &expected);
    let ae_input = model.extractor().combined_dim();
    let traces = Traces {
        train: vec![train_trace],
        setups,
        replay,
    };
    let metrics = layer_metrics(
        inputs, config, &traces, &traced, untraced, &telemetry, &sizes, ae_input,
    );
    let path = std::path::PathBuf::from(".bench_out").join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let all = traces
        .train
        .iter()
        .chain(&traces.setups)
        .chain(&traced.traces)
        .chain(&traces.replay);
    if let Err(e) = trace::write_jsonl(&path, all) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    (expected, metrics, tally)
}

/// Inserts `<name>.count`, `.total`, `.p50` and `.p99`.
fn insert_summary(m: &mut Metrics, name: &str, unit: &'static str, s: Summary) {
    m.insert(format!("{name}.count"), (s.count as f64, "count"));
    m.insert(format!("{name}.total"), (s.total, unit));
    m.insert(format!("{name}.p50"), (s.p50, unit));
    m.insert(format!("{name}.p99"), (s.p99, unit));
}

/// Per-layer metrics from the traced run's spans and the service's own
/// stage histograms.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    inputs: &Inputs,
    config: &SoteriaConfig,
    traces: &Traces,
    traced: &DriveResult,
    untraced: &DriveResult,
    telemetry: &MetricsReport,
    sizes: &[layers::GraphSize],
    ae_input: usize,
) -> Metrics {
    let mut m = Metrics::new();
    let mut timing = |name: &str, unit: &'static str, values: &[f64]| {
        insert_summary(&mut m, name, unit, Summary::of(values));
    };
    let replay = |name: &str| trace::durations(&traces.replay, name);
    let train = |name: &str| trace::durations(&traces.train, name);
    // Per-request stage durations keyed by pool entry.
    let by_request = |name: &str| trace::by_id(&traces.replay, name);
    let reachable = by_request("cfg.reachable");
    let centrality = by_request("cfg.centrality");
    let labeling = by_request("features.labeling");
    let extract = by_request("features.extract");
    let screen_binary = by_request("core.screen_binary");
    let labeling_net: Vec<f64> = labeling.iter().map(|(r, ms)| ms - centrality[r]).collect();
    let walk_gram: Vec<f64> = extract
        .iter()
        .map(|(r, ms)| ms - reachable[r] - labeling[r])
        .collect();

    timing("corpus.parse_ms", "ms", &replay("corpus.parse"));
    timing("corpus.lift_ms", "ms", &replay("corpus.lift"));
    timing("cfg.reachable_ms", "ms", &replay("cfg.reachable"));
    timing("cfg.centrality_ms", "ms", &replay("cfg.centrality"));
    let nodes: Vec<f64> = sizes.iter().map(|s| s.nodes as f64).collect();
    let edges: Vec<f64> = sizes.iter().map(|s| s.edges as f64).collect();
    timing("cfg.nodes", "count", &nodes);
    timing("cfg.edges", "count", &edges);
    timing("features.labeling_ms", "ms", &labeling_net);
    timing("features.extract_ms", "ms", &replay("features.extract"));
    timing("features.walk_gram_ms", "ms", &walk_gram);
    timing("features.fit_ms", "ms", &train("features.fit"));
    timing(
        "features.extract_batch_ms",
        "ms",
        &train("features.extract_batch"),
    );
    let detector = replay("core.detector");
    timing("core.detector_ms", "ms", &detector);
    let classifier = replay("core.classifier");
    timing("core.classifier_ms", "ms", &classifier);
    let detector_train = train("core.detector_train");
    timing("core.detector_train_ms", "ms", &detector_train);
    timing(
        "core.classifier_train_ms",
        "ms",
        &train("core.classifier_train"),
    );
    timing(
        "core.artifact_load_ms",
        "ms",
        &trace::durations(&traces.setups, "core.artifact_load"),
    );
    timing(
        "core.screen_binary_ms",
        "ms",
        &screen_binary.values().copied().collect::<Vec<_>>(),
    );
    let submit_us: Vec<f64> = trace::durations(&traced.traces, "serve.submit")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    timing("serve.submit_us", "us", &submit_us);
    timing(
        "serve.wait_ms",
        "ms",
        &trace::durations(&traced.traces, "serve.wait"),
    );
    let overhead: Vec<f64> = traced
        .outcomes
        .iter()
        .filter(|o| !o.cached && o.verdict.is_some())
        .map(|o| o.latency_ms - screen_binary[&(inputs.schedule[o.position] as u64)])
        .collect();
    timing("serve.wait_overhead_ms", "ms", &overhead);
    timing("gen.lag_ms", "ms", &traced.lag_ms);

    // Recorded inside the service on every request of the traced drive;
    // percentiles are the histograms' bucketed estimates.
    for (histogram, name, unit) in [
        ("serve.stage.queue_wait", "serve.queue_wait_ms", "ms"),
        ("serve.stage.batch_wait", "serve.batch_wait_ms", "ms"),
        ("serve.batch.size", "serve.batch_size", "count"),
    ] {
        let summary = telemetry
            .span(histogram)
            .map_or(Summary::of(&[]), |h| Summary {
                count: h.count as usize,
                total: h.total_ms,
                p50: h.p50_ms,
                p99: h.p99_ms,
            });
        insert_summary(&mut m, name, unit, summary);
    }

    let share = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    m.insert(
        "core.classifier_reach".into(),
        (
            share(classifier.len() as f64, traces.replay.len() as f64),
            "ratio",
        ),
    );

    // Computed, not timed: dense-stack FLOPs from the auto-encoder's
    // layer widths.
    let h = config.detector.hidden;
    let widths = [ae_input, h[0], h[1], h[2], ae_input];
    let infer_flops = detector.len() as f64 * stats::dense_forward_flops(&widths);
    m.insert(
        "nn.ae_infer_gflops".into(),
        (stats::gflops(infer_flops, detector.iter().sum()), "GFLOP/s"),
    );
    let labels: Vec<usize> = inputs
        .train
        .iter()
        .map(|&i| inputs.corpus.samples()[i].av_label().index())
        .collect();
    let rows = layers::ae_fit_rows(&labels, config.detector.validation_fraction);
    let train_flops = (config.detector.epochs * rows) as f64 * stats::dense_train_flops(&widths);
    m.insert(
        "nn.ae_train_gflops".into(),
        (
            stats::gflops(train_flops, detector_train.iter().sum()),
            "GFLOP/s",
        ),
    );

    let cache = traced.stats.cache;
    m.insert("serve.cache_hit_ratio".into(), (cache.hit_rate(), "ratio"));
    m.insert(
        "serve.cache_inserts".into(),
        (cache.inserts as f64, "count"),
    );
    m.insert(
        "serve.rejected".into(),
        (traced.stats.rejected as f64, "count"),
    );
    m.insert("gen.sent".into(), (traced.outcomes.len() as f64, "count"));

    // Mean latency over the requests the traced drive sent, in both drives.
    let mean_latency = |d: &DriveResult| {
        let l: Vec<f64> = d
            .outcomes
            .iter()
            .filter(|o| o.position < traced.outcomes.len())
            .map(|o| o.latency_ms)
            .collect();
        share(l.iter().sum(), l.len() as f64)
    };
    let total = |durations: Vec<f64>| durations.iter().sum::<f64>();
    let reference: f64 = screen_binary.values().sum();
    let layers: f64 = [
        "corpus.parse",
        "corpus.lift",
        "features.extract",
        "core.detector",
        "core.classifier",
    ]
    .iter()
    .map(|n| total(replay(n)))
    .sum();
    let base = mean_latency(untraced);
    m.insert(
        "trace.unattributed_share".into(),
        (share(reference - layers, reference), "ratio"),
    );
    m.insert(
        "trace.overhead_share".into(),
        (share(mean_latency(traced) - base, base), "ratio"),
    );
    // Training's stages against their own `train` root: the untraced
    // trainings ran earlier, and the shared host's speed drifts by more
    // than the glue between the stages.
    let stages: f64 = [
        "features.fit",
        "features.extract_batch",
        "core.detector_train",
        "core.classifier_train",
    ]
    .iter()
    .map(|n| total(train(n)))
    .sum();
    let traced_train = total(train("train"));
    m.insert(
        "trace.train_unattributed_share".into(),
        (share(traced_train - stages, traced_train), "ratio"),
    );
    m
}
