//! `perfbench` — the repository's benchmark. See `perfbench/README.md`.
//!
//! Usage: `perfbench --workload <serve-hot|serve-cold|feedback-mix>
//! --seed <n> --seconds <s> --trace <0|1>`. The last line of standard
//! output is the result: `{"correct", "attempted", "failed", "metrics"}`.

mod checks;
mod drive;
mod host;
mod layers;
mod pipeline;
mod queries;
mod stats;
mod trace;
mod vfs;

use drive::{Phase, Traffic, Until};
use pipeline::{Service, Setup};
use queries::{Kind, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use selearn_core::SharedEstimator;
use selearn_serve::{Feedback, Request, ServerConfig};
use stats::{median, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeCold,
    FeedbackMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-cold" => Some(Workload::ServeCold),
            "feedback-mix" => Some(Workload::FeedbackMix),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::FeedbackMix => "feedback-mix",
        }
    }
}

/// Set-ups per run; `setup_s` and the fit times are their medians.
const SETUPS: usize = 3;
/// Distinct requests in the serve-hot pool (fits every tenant's cache).
const HOT_POOL: usize = 5000;
/// Seed of the serve-hot pool's queries.
const HOT_POOL_SEED: u64 = 0x407;
/// Seed of the feedback-mix feedback stream.
const FEEDBACK_SEED: u64 = 0xfeed;
/// Distinct estimate requests in the feedback-mix pool.
const MIX_POOL: usize = 2000;
/// Zipf exponent of pooled traffic.
const ZIPF_S: f64 = 1.0;
/// Largest ball radius drawn (the paper draws radii from `U[0, 1]`).
const MAX_RADIUS: f64 = 1.0;
/// Closed-loop warm-up after the cache fill.
const WARM: Duration = Duration::from_millis(500);
/// Served answers scored against exact labels per run.
const QERROR_SAMPLES: usize = 10_000;
/// Seconds of `--seconds` per feedback-mix checkpoint cycle.
const CYCLE_SECONDS: u64 = 5;
/// Random stream of the timed phase (the warm-up uses 1, the traced
/// phase 3); part `i` of a serve workload's timed phase uses
/// `TIMED_STREAM + i`.
const TIMED_STREAM: u64 = 10;
/// Trace sampling period of the server's own stage events (traced runs).
const TRACE_SAMPLE_EVERY: u64 = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(ok) => std::process::exit(if ok { 0 } else { 1 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// One part of a serve workload's timed phase, run after one set-up.
struct Part {
    /// That set-up's cache fill.
    fill: Vec<drive::Sample>,
    /// Samples of the part, in order in the joined timed phase.
    samples: usize,
    /// That set-up's registered models, which its answers are checked
    /// against.
    models: BTreeMap<String, SharedEstimator>,
}

/// The served inputs of one workload, built during set-up.
struct Prepared {
    traffic: Traffic,
    pool: Option<Arc<Vec<Request>>>,
    /// The cache fill's samples: model answers, checked like the rest.
    fill: Vec<drive::Sample>,
}

fn prepare(
    workload: Workload,
    seed: u64,
    feedback_lines: usize,
    service: &Service,
    data: &Arc<selearn_data::Dataset>,
) -> Result<Prepared, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let addr = service.addr();
    let epoch = Instant::now();
    let (traffic, pool) = match workload {
        Workload::ServeHot => {
            // The pool's queries are fixed, so the q-error over them does
            // not depend on the seed; the seed decides their popularity.
            let mut pool = pipeline::draw_pool(
                data,
                &service.names,
                &Kind::ALL,
                HOT_POOL,
                MAX_RADIUS,
                &mut StdRng::seed_from_u64(HOT_POOL_SEED),
            );
            pool.shuffle(&mut rng);
            let pool = Arc::new(pool);
            let zipf = Arc::new(Zipf::new(HOT_POOL, ZIPF_S));
            (
                Traffic::Pool {
                    pool: Arc::clone(&pool),
                    zipf,
                },
                Some(pool),
            )
        }
        Workload::ServeCold => (
            Traffic::Fresh {
                data: Arc::clone(data),
                model: service.names[0].clone(),
                max_radius: MAX_RADIUS,
            },
            None,
        ),
        Workload::FeedbackMix => {
            let pool = Arc::new(pipeline::draw_pool(
                data,
                &service.names,
                &[Kind::Rect],
                MIX_POOL,
                MAX_RADIUS,
                &mut rng,
            ));
            let zipf = Arc::new(Zipf::new(MIX_POOL, ZIPF_S));
            // The feedback stream is fixed, so the models each checkpoint
            // swaps in repeat across runs; the seed drives the estimates.
            let mut fixed = StdRng::seed_from_u64(FEEDBACK_SEED);
            let feedback = (0..feedback_lines)
                .map(|_| {
                    let shape = queries::draw(data, Kind::Rect, 0.0, &mut fixed);
                    let sel = data.selectivity(&queries::range(&shape));
                    Feedback {
                        est: service.names[0].clone(),
                        shape,
                        sel,
                        id: None,
                    }
                })
                .collect();
            (
                Traffic::Mix {
                    pool: Arc::clone(&pool),
                    zipf,
                    feedback: Arc::new(feedback),
                    next: Arc::new(AtomicUsize::new(0)),
                },
                Some(pool),
            )
        }
    };
    let fill = match &pool {
        Some(p) => drive::fill(&addr, p)?,
        None => Vec::new(),
    };
    // Warm-up: estimates only, so the store sees no feedback before the
    // timed phase.
    let warm_traffic = match &traffic {
        Traffic::Mix { pool, zipf, .. } => Traffic::Pool {
            pool: Arc::clone(pool),
            zipf: Arc::clone(zipf),
        },
        Traffic::Pool { pool, zipf } => Traffic::Pool {
            pool: Arc::clone(pool),
            zipf: Arc::clone(zipf),
        },
        Traffic::Fresh {
            data,
            model,
            max_radius,
        } => Traffic::Fresh {
            data: Arc::clone(data),
            model: model.clone(),
            max_radius: *max_radius,
        },
    };
    let warm = drive::run(
        &addr,
        &warm_traffic,
        seed,
        1,
        Until::Elapsed(WARM),
        false,
        epoch,
    )?;
    let warm_failures = warm
        .samples
        .iter()
        .filter(|s| checks::failure(s).is_some())
        .count();
    if warm_failures > 0 {
        return Err(format!("{warm_failures} warm-up requests failed"));
    }
    Ok(Prepared {
        traffic,
        pool,
        fill,
    })
}

/// How long the untraced and the traced phase run. A traced run splits
/// the time in two halves. feedback-mix runs whole checkpoint cycles (one
/// per [`CYCLE_SECONDS`]), so every run holds the same refits and
/// checkpoints instead of ending at a random point inside one.
fn phase_lengths(workload: Workload, seconds: u64, traced: bool) -> (Until, Option<Until>) {
    let parts = if traced { 2 } else { 1 };
    let until = match workload {
        Workload::FeedbackMix => {
            let cycles = (seconds / CYCLE_SECONDS / parts).max(1);
            Until::Feedback((cycles * pipeline::CHECKPOINT_EVERY) as usize)
        }
        Workload::ServeHot | Workload::ServeCold => {
            Until::Elapsed(Duration::from_secs(seconds) / parts as u32)
        }
    };
    (until, traced.then_some(until))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("cannot create {out_dir:?}: {e}"))?;
    // The admin plane implies stats, as in the server binary.
    selearn_obs::enable_stats(true);

    let mut config = ServerConfig::default();
    if args.workload == Workload::FeedbackMix {
        // A refit or checkpoint holds its worker for up to three seconds,
        // and estimates popped in the same batch wait that long. With the
        // default 100 ms deadline they would be answered with the degraded
        // fallback; here they are answered late, and the wait shows in
        // the latency tail.
        config.deadline = Duration::ZERO;
    }
    if args.trace {
        config.trace_sample_every = TRACE_SAMPLE_EVERY;
    }

    let (plain_until, traced_until) = phase_lengths(args.workload, args.seconds, args.trace);
    let feedback_lines = [Some(plain_until), traced_until]
        .into_iter()
        .flatten()
        .map(|u| match u {
            Until::Feedback(n) => n,
            Until::Elapsed(_) => 0,
        })
        .sum();
    // A serve workload's timed phase runs in equal parts, one after each
    // set-up, so one run samples the shared host's speed over its whole
    // length instead of over a single stretch of it.
    let part_until = match plain_until {
        Until::Elapsed(d) => Some(Until::Elapsed(d / SETUPS as u32)),
        Until::Feedback(_) => None,
    };
    let epoch = Instant::now();
    let mut times = Vec::with_capacity(SETUPS);
    let mut parts: Vec<Part> = Vec::new();
    let mut part_phases: Vec<Phase> = Vec::new();
    let mut peak_rss_mb = None;
    let mut last: Option<(Setup, Prepared)> = None;
    for i in 0..SETUPS {
        if let Some((setup, _)) = last.take() {
            if let Some(side) = setup.service.stop() {
                let _ = std::fs::remove_dir_all(&side.dir);
            }
        }
        let (setup, prepared) =
            pipeline::setup(args.workload, &out_dir, i, &config, |service, data| {
                prepare(args.workload, args.seed, feedback_lines, service, data)
            })?;
        times.push(setup.times);
        if peak_rss_mb.is_none() {
            // Peak RSS through set-up and warm-up: the timed phase's own
            // sample buffers grow with throughput and would make memory
            // track speed.
            peak_rss_mb = Some(host::peak_rss_mb()?);
        }
        if let Some(until) = part_until {
            let phase = drive::run(
                &setup.service.addr(),
                &prepared.traffic,
                args.seed,
                TIMED_STREAM + i as u64,
                until,
                false,
                epoch,
            )?;
            parts.push(Part {
                fill: prepared.fill.clone(),
                samples: phase.samples.len(),
                models: checks::static_models(&setup.service),
            });
            part_phases.push(phase);
        }
        last = Some((setup, prepared));
    }
    let (setup, prepared) = last.ok_or("no set-up ran")?;
    let peak_rss_mb = peak_rss_mb.ok_or("no set-up ran")?;
    println!("{{\"host\": {}}}", host::fingerprint(&out_dir));

    let timed = if parts.is_empty() {
        drive::run(
            &setup.service.addr(),
            &prepared.traffic,
            args.seed,
            TIMED_STREAM,
            plain_until,
            false,
            epoch,
        )?
    } else {
        Phase::concat(part_phases)
    };
    let traced = match traced_until {
        Some(until) => Some(layers::traced_phase(
            &setup,
            &prepared.traffic,
            args.seed,
            until,
            epoch,
        )?),
        None => None,
    };
    let Setup {
        data,
        train,
        trained,
        service,
        ..
    } = setup;
    let models = checks::static_models(&service);
    let side = service.stop();

    // Each part is checked against the models of its own set-up; the
    // traced phase, and feedback-mix's single timed phase, against the
    // last set-up's.
    let pool = prepared.pool.as_deref().map(Vec::as_slice);
    let sink_log = side.as_ref().map(|s| s.probe.log());
    let mut last_samples: Vec<&drive::Sample> = Vec::new();
    let mut groups: Vec<(Vec<&drive::Sample>, &BTreeMap<String, SharedEstimator>)> = Vec::new();
    let mut next = timed.samples.iter();
    for part in &parts {
        let mut samples: Vec<&drive::Sample> = part.fill.iter().collect();
        samples.extend(next.by_ref().take(part.samples));
        groups.push((samples, &part.models));
    }
    if parts.is_empty() {
        last_samples.extend(prepared.fill.iter());
        last_samples.extend(next);
    }
    if let Some(t) = &traced {
        last_samples.extend(t.phase.samples.iter());
    }
    let mut report = checks::check(
        &last_samples,
        pool,
        &models,
        sink_log.as_ref(),
        side.as_ref(),
    )?;
    let mut attempted = last_samples.len();
    for (samples, part_models) in &groups {
        let part = checks::check(samples, pool, part_models, None, None)?;
        report.failed += part.failed;
        report.notes.extend(part.notes);
        attempted += samples.len();
    }
    for line in &report.notes {
        println!("{{\"check\": {}}}", stats::quote(line));
    }

    let mut metrics = Metrics::default();
    if let Some(traced) = &traced {
        layers::per_layer(
            &mut metrics,
            layers::Inputs {
                workload: args.workload,
                timed: &timed,
                traced,
                pool,
                fill: &prepared.fill,
                data: &data,
                train: &train,
                trained: &trained,
                models: &models,
                times: &times,
                sink_log: sink_log.as_ref(),
                side: side.as_ref(),
                recovery_ms: report.recovery_ms,
                out_dir: &out_dir,
            },
        )?;
    } else {
        let e2e = checks::end_to_end(&timed, pool, &data)?;
        println!(
            "{{\"samples\": {{\"estimates\": {}, \"acks\": {}, \"qerror\": {}, \"setups\": {}}}, \"est_p99_us\": {}, \"ops_per_s_mean\": {}}}",
            e2e.est_p50.samples,
            e2e.acks,
            e2e.qerror_samples,
            times.len(),
            stats::num(e2e.est_p99.value),
            stats::num(e2e.ops_per_s_mean)
        );
        metrics.put(
            "setup_s",
            median(&times.iter().map(|t| t.total_s).collect::<Vec<_>>()),
            "s",
        );
        metrics.put("est_p50_us", e2e.est_p50.value, "us");
        metrics.put("ops_per_s", e2e.ops_per_s, "1/s");
        metrics.put("qerror_p50", e2e.qerror_p50, "ratio");
        metrics.put("qerror_p99", e2e.qerror_p99, "ratio");
        metrics.put(
            "quadhist_fit_s",
            median(&times.iter().map(|t| t.quad_fit_s).collect::<Vec<_>>()),
            "s",
        );
        metrics.put(
            "ptshist_fit_s",
            median(&times.iter().map(|t| t.pts_fit_s).collect::<Vec<_>>()),
            "s",
        );
        metrics.put("quadhist_rms", trained.quad_rms, "selectivity");
        metrics.put("ptshist_rms", trained.pts_rms, "selectivity");
        metrics.put("quadhist_qerror_p99", trained.quad_q99, "ratio");
        metrics.put("ptshist_qerror_p99", trained.pts_q99, "ratio");
        metrics.put("peak_rss_mb", peak_rss_mb, "MB");
    }
    if let Some(side) = &side {
        let _ = std::fs::remove_dir_all(&side.dir);
    }

    let failed = report.failed;
    let finite = metrics
        .names()
        .all(|n| metrics.get(n).is_some_and(f64::is_finite));
    let correct = failed == 0 && finite && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    );
    Ok(correct)
}
