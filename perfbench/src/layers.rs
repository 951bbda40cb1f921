//! The traced run: the timed phase again with spans around every client
//! call, the server's own sampled stage events captured in memory, and
//! probes that call each layer's public functions on the run's inputs.
//! Every per-layer metric is reported on every workload; a layer the
//! workload does not load reads 0.

use crate::checks;
use crate::drive::{self, Answer, Phase, Sample, Sent, Traffic, Until};
use crate::pipeline::Service;
use crate::pipeline::{self, FeedbackSide, FitCounts, Setup, SetupTimes, SinkLog, Trained};
use crate::queries::{self, Kind};
use crate::stats::{median, percentile, quote, Metrics};
use crate::trace::{self, SpanBuf};
use crate::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_core::{
    estimate_weights_with_report, quantize_ball_key_into, quantize_halfspace_key_into,
    quantize_rect_key_into, Objective, OnlineQuadHist, QuadHist, QuadHistConfig,
    SelectivityEstimator, SharedEstimator, TrainingQuery, WeightSolver,
};
use selearn_data::{q_error, Dataset};
use selearn_geom::{Range, RangeQuery, Rect, EPS};
use selearn_obs::{Event, MemorySink};
use selearn_serve::{
    parse_line, tenant_namespace, CacheKey, EstimateCache, Request, Response, ServerConfig, Shape,
};
use selearn_solver::DenseMatrix;
use selearn_store::ModelStore;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests and responses the micro-probes replay per run.
const PROBE_SAMPLES: usize = 3000;
/// Queries per shape family for the halfspace and ball volume probes.
const VOLUME_QUERIES: usize = 40;
/// Batch size of the `estimate_into` probe (the server's worker batch).
const BATCH: usize = 64;
/// Seed of the halfspace and ball queries of the volume probes.
const VOLUME_SEED: u64 = 0x6e0;
/// Requests replayed through the benchmark-owned cache: the fill, then
/// the traced phase in order.
const CACHE_REPLAY: usize = 20_000;
/// Calls per obs instrument probe.
const OBS_CALLS: u32 = 200_000;

/// Server-side counters, read before and after the traced phase.
#[derive(Clone, Copy, Debug, Default)]
struct ServerCounts {
    requests: u64,
    model_answers: u64,
    degraded: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl ServerCounts {
    fn read(service: &Service) -> Self {
        let s = service.handle.stats();
        let c = service.handle.cache();
        Self {
            requests: s.requests(),
            model_answers: s.model_answers(),
            degraded: s.degraded(),
            cache_hits: c.hits(),
            cache_misses: c.misses(),
        }
    }

    fn since(&self, before: &ServerCounts) -> ServerCounts {
        ServerCounts {
            requests: self.requests - before.requests,
            model_answers: self.model_answers - before.model_answers,
            degraded: self.degraded - before.degraded,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// What the traced phase measured.
pub struct Traced {
    pub phase: Phase,
    server: ServerCounts,
    queue_depth_max: usize,
    queue_wait_us: Vec<f64>,
    /// File syncs, bytes written and sync times during the phase.
    io: Option<(u64, u64, Vec<f64>)>,
}

/// Runs the timed traffic with spans on, the server's stage sampling
/// captured by an in-memory sink, and the queue depth sampled every
/// millisecond.
pub fn traced_phase(
    setup: &Setup,
    traffic: &Traffic,
    seed: u64,
    until: Until,
    epoch: Instant,
) -> Result<Traced, String> {
    let service = &setup.service;
    let before = ServerCounts::read(service);
    let io_before = service.feedback.as_ref().map(|f| {
        (
            f.counts.syncs(),
            f.counts.bytes(),
            f.counts.sync_times_us().len(),
        )
    });
    let sink = Arc::new(MemorySink::new());
    selearn_obs::set_sink(Arc::clone(&sink) as Arc<dyn selearn_obs::ObsSink>);
    let probe = service.handle.queue_probe();
    let stop = AtomicBool::new(false);
    let addr = service.addr();
    let (phase, queue_depth_max) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(probe().0);
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        });
        let phase = drive::run(&addr, traffic, seed, 3, until, true, epoch);
        stop.store(true, Ordering::Relaxed);
        (phase, sampler.join().unwrap_or(0))
    });
    selearn_obs::clear_sink();
    let phase = phase?;
    let queue_wait_us = sink
        .take()
        .into_iter()
        .filter_map(|e| match e {
            Event::Trace { stage, us, .. } if stage == "dequeue" => Some(us),
            _ => None,
        })
        .collect();
    let io = match (&service.feedback, io_before) {
        (Some(f), Some((syncs, bytes, n))) => Some((
            f.counts.syncs() - syncs,
            f.counts.bytes() - bytes,
            f.counts.sync_times_us()[n..].to_vec(),
        )),
        _ => None,
    };
    Ok(Traced {
        phase,
        server: ServerCounts::read(service).since(&before),
        queue_depth_max,
        queue_wait_us,
        io,
    })
}

/// Everything the per-layer metrics draw on.
pub struct Inputs<'a> {
    pub workload: Workload,
    pub timed: &'a Phase,
    pub traced: &'a Traced,
    pub pool: Option<&'a [Request]>,
    pub fill: &'a [Sample],
    pub data: &'a Dataset,
    pub train: &'a [TrainingQuery],
    pub trained: &'a Trained,
    pub models: &'a BTreeMap<String, SharedEstimator>,
    pub times: &'a [SetupTimes],
    pub sink_log: Option<&'a SinkLog>,
    pub side: Option<&'a FeedbackSide>,
    pub recovery_ms: f64,
    pub out_dir: &'a Path,
}

/// The probes' spans, notes and sample counts, shared by the sections.
struct Probe {
    spans: SpanBuf,
    notes: Vec<String>,
    samples: Vec<(&'static str, usize)>,
}

impl Probe {
    /// A tail percentile when ten samples lie beyond it, else the sample
    /// maximum (noted on standard output), else 0 for no samples.
    fn tail(&mut self, values: &[f64], q: f64, name: &str) -> f64 {
        let mut v = values.to_vec();
        match percentile(&mut v, q, name) {
            Ok(p) => p.value,
            Err(_) if v.is_empty() => 0.0,
            Err(_) => {
                self.notes.push(format!(
                    "{name}: {} samples, reporting the maximum",
                    v.len()
                ));
                v.iter().copied().fold(f64::MIN, f64::max)
            }
        }
    }

    /// Mean self time of the spans named `name`, in µs.
    fn mean_us(&self, name: &str) -> f64 {
        trace::self_times(&[&self.spans])
            .get(name)
            .map_or(0.0, |s| s.mean_ns() / 1e3)
    }
}

/// Median, or 0 for no samples (a layer the workload does not load).
fn median0(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `num / den`, or 0 when nothing was counted.
fn share(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// An even sample of at most `n` items.
fn even<T>(items: &[T], n: usize) -> Vec<&T> {
    let step = items.len().div_ceil(n).max(1);
    items.iter().step_by(step).collect()
}

/// The estimate requests among `samples`.
fn estimates<'a>(
    samples: &'a [Sample],
    pool: Option<&'a [Request]>,
) -> Vec<(&'a Sample, &'a Request)> {
    samples
        .iter()
        .filter_map(|s| drive::request_of(s, pool).map(|r| (s, r)))
        .collect()
}

/// The model serving `name` at the end of the run.
fn serving_model<'a>(inp: &'a Inputs<'_>, name: &str) -> Result<&'a SharedEstimator, String> {
    match inp.sink_log {
        Some(l) => l.models.last().map(|(_, m)| m),
        None => inp.models.get(name),
    }
    .ok_or_else(|| format!("no model named {name}"))
}

/// The server's cache-key quantization for one shape.
fn quantize(root: &Rect, shape: &Shape, grid: u32, out: &mut Vec<u32>) -> bool {
    match shape {
        Shape::Rect { lo, hi } => quantize_rect_key_into(root, lo, hi, grid, out),
        Shape::Halfspace { normal, offset } => {
            quantize_halfspace_key_into(root, normal, *offset, grid, out)
        }
        Shape::Ball { center, radius } => quantize_ball_key_into(root, center, *radius, grid, out),
    }
}

pub fn per_layer(metrics: &mut Metrics, inp: Inputs<'_>) -> Result<(), String> {
    let mut probe = Probe {
        spans: SpanBuf::new(u32::MAX, Instant::now(), true),
        notes: Vec::new(),
        samples: Vec::new(),
    };
    serve_protocol_and_cache(metrics, &inp, &mut probe)?;
    serve_stats_and_feedback(metrics, &inp, &mut probe);
    core_frozen(metrics, &inp, &mut probe)?;
    training(metrics, &inp, &mut probe)?;
    feedback_path(metrics, &inp, &mut probe)?;
    data_obs_trace(metrics, &inp)?;

    let all: Vec<&SpanBuf> = inp
        .traced
        .phase
        .spans
        .iter()
        .chain([&probe.spans])
        .collect();
    let path = inp
        .out_dir
        .join(format!("trace-{}.jsonl", inp.workload.name()));
    trace::write_jsonl(&path, &all).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    let body: Vec<String> = trace::self_times(&all)
        .iter()
        .map(|(name, st)| {
            format!(
                "{}: {{\"count\": {}, \"self_us_mean\": {:.3}}}",
                quote(name),
                st.count,
                st.mean_ns() / 1e3
            )
        })
        .collect();
    println!("{{\"self_times\": {{{}}}}}", body.join(", "));
    let counts: Vec<String> = probe
        .samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", quote(name)))
        .collect();
    println!("{{\"layer_samples\": {{{}}}}}", counts.join(", "));
    for n in &probe.notes {
        println!("{{\"note\": {}}}", quote(n));
    }
    Ok(())
}

/// serve + core: protocol parse and render on the run's own lines; the
/// server's hit share; cache-key quantization and `EstimateCache::get` on
/// a benchmark-owned cache of the server's size replaying the run's key
/// sequence; and the shadow evaluation of cached answers.
fn serve_protocol_and_cache(
    metrics: &mut Metrics,
    inp: &Inputs<'_>,
    probe: &mut Probe,
) -> Result<(), String> {
    let traced = &inp.traced.phase.samples;
    for (i, s) in even(traced, PROBE_SAMPLES).into_iter().enumerate() {
        let line = match &s.sent {
            Sent::Feedback(fb) => fb.to_json(),
            _ => drive::request_of(s, inp.pool).map_or_else(String::new, Request::to_json),
        };
        let ok = probe.spans.time("serve.protocol.parse", i as u64, |_| {
            parse_line(&line).is_ok()
        });
        if !ok {
            return Err(format!("the benchmark's own line does not parse: {line}"));
        }
        // The wire response the server rendered for that line.
        let response = match (&s.answer, drive::request_of(s, inp.pool)) {
            (Answer::Estimate { sel, cached }, Some(req)) => Response::Estimate {
                id: None,
                est: req.est.clone(),
                sel: *sel,
                us: s.us(),
                degraded: None,
                cached: *cached,
            },
            (Answer::Ack { lsn }, _) => Response::Ack {
                id: None,
                lsn: *lsn,
                generation: 0,
            },
            _ => continue,
        };
        probe.spans.time("serve.protocol.render", i as u64, |_| {
            std::hint::black_box(response.to_json())
        });
    }
    metrics.put(
        "serve.protocol.parse_us",
        probe.mean_us("serve.protocol.parse"),
        "us",
    );
    metrics.put(
        "serve.protocol.render_us",
        probe.mean_us("serve.protocol.render"),
        "us",
    );

    let srv = &inp.traced.server;
    metrics.put(
        "serve.cache.hit_share",
        share(
            srv.cache_hits as f64,
            (srv.cache_hits + srv.cache_misses) as f64,
        ),
        "ratio",
    );

    let config = ServerConfig::default();
    let root = Rect::unit(2);
    let cache = EstimateCache::new(config.cache_capacity, config.cache_shards);
    let mut ids: BTreeMap<&str, u32> = BTreeMap::new();
    let mut tenants: BTreeMap<&str, u32> = BTreeMap::new();
    let mut key = CacheKey::default();
    let replay: Vec<(&Sample, &Request)> = estimates(inp.fill, inp.pool)
        .into_iter()
        .chain(estimates(traced, inp.pool))
        .take(CACHE_REPLAY)
        .collect();
    for (i, (_, req)) in replay.iter().enumerate() {
        let next = ids.len() as u32;
        key.model = *ids.entry(req.est.as_str()).or_insert(next);
        let next = tenants.len() as u32;
        let tenant = *tenants.entry(tenant_namespace(&req.est)).or_insert(next);
        key.shape = req.shape.kind().discriminant();
        let ok = probe.spans.time("core.quantize.key", i as u64, |_| {
            quantize(&root, &req.shape, config.cache_grid, &mut key.cells)
        });
        if ok
            && probe
                .spans
                .time("serve.cache.get", i as u64, |_| cache.get(tenant, &key))
                .is_none()
        {
            cache.insert(tenant, &key, 0.5);
        }
    }
    probe.samples.push(("cache_replay", replay.len()));
    metrics.put("serve.cache.get_us", probe.mean_us("serve.cache.get"), "us");
    metrics.put(
        "core.quantize.key_us",
        probe.mean_us("core.quantize.key"),
        "us",
    );

    // Each cached answer against the model's own estimate for that exact
    // request: the error quantized cache keys introduce.
    let cached: Vec<(&Sample, &Request, f64)> = inp
        .timed
        .samples
        .iter()
        .chain(traced.iter())
        .filter_map(|s| match &s.answer {
            Answer::Estimate { sel, cached: true } => {
                drive::request_of(s, inp.pool).map(|r| (s, r, *sel))
            }
            _ => None,
        })
        .collect();
    let shadow: Vec<f64> = even(&cached, PROBE_SAMPLES)
        .into_iter()
        .map(|(s, req, sel)| {
            let range = queries::range(&req.shape);
            checks::candidates(s, req, inp.models, inp.sink_log)
                .iter()
                .map(|m| q_error(*sel, checks::model_answer(m, &range)))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    probe.samples.push(("cached_answers", shadow.len()));
    let p99 = probe.tail(&shadow, 0.99, "serve.cache.answer_qerror_p99");
    metrics.put("serve.cache.answer_qerror_p99", p99, "ratio");
    metrics.put(
        "serve.cache.answer_qerror_max",
        shadow.iter().copied().fold(0.0, f64::max),
        "ratio",
    );
    Ok(())
}

/// serve: server statistics and queue over the traced phase, the feedback
/// sink and client-observed acks over the whole run, and the untraced
/// half's client-observed estimate p99.
fn serve_stats_and_feedback(metrics: &mut Metrics, inp: &Inputs<'_>, probe: &mut Probe) {
    let srv = &inp.traced.server;
    metrics.put(
        "serve.stats.model_answer_share",
        share(srv.model_answers as f64, srv.requests as f64),
        "ratio",
    );
    metrics.put("serve.stats.degraded", srv.degraded as f64, "count");
    metrics.put(
        "serve.queue.depth_max",
        inp.traced.queue_depth_max as f64,
        "count",
    );
    metrics.put(
        "serve.queue.wait_us_p50",
        median0(&inp.traced.queue_wait_us),
        "us",
    );
    probe
        .samples
        .push(("queue_waits", inp.traced.queue_wait_us.len()));

    let observe_us = inp
        .sink_log
        .map(|l| l.observe_us.clone())
        .unwrap_or_default();
    metrics.put("serve.feedback.observe_us_p50", median0(&observe_us), "us");
    let p99 = probe.tail(&observe_us, 0.99, "serve.feedback.observe_us_p99");
    metrics.put("serve.feedback.observe_us_p99", p99, "us");
    metrics.put(
        "serve.feedback.swaps",
        inp.sink_log.map_or(0, |l| l.models.len() - 1) as f64,
        "count",
    );
    let acks: Vec<f64> = inp
        .timed
        .samples
        .iter()
        .chain(inp.traced.phase.samples.iter())
        .filter(|s| s.is_feedback())
        .map(Sample::us)
        .collect();
    probe.samples.push(("acks", acks.len()));
    let est: Vec<f64> = inp
        .timed
        .samples
        .iter()
        .filter(|s| !s.is_feedback())
        .map(Sample::us)
        .collect();
    let p99 = probe.tail(&est, 0.99, "serve.client.est_p99_us");
    metrics.put("serve.client.est_p99_us", p99, "us");
    metrics.put("serve.feedback.ack_p50_us", median0(&acks), "us");
    let p99 = probe.tail(&acks, 0.99, "serve.feedback.ack_p99_us");
    metrics.put("serve.feedback.ack_p99_us", p99, "us");
}

/// core: the served model's estimate on the run's requests, one query
/// and batches of 64.
fn core_frozen(metrics: &mut Metrics, inp: &Inputs<'_>, probe: &mut Probe) -> Result<(), String> {
    let est = estimates(&inp.traced.phase.samples, inp.pool);
    let picked = even(&est, PROBE_SAMPLES);
    probe.samples.push(("estimate_requests", picked.len()));
    let mut by_model: BTreeMap<&str, Vec<Range>> = BTreeMap::new();
    for (i, (_, req)) in picked.iter().enumerate() {
        let model = serving_model(inp, &req.est)?;
        let range = queries::range(&req.shape);
        probe.spans.time("core.frozen.estimate", i as u64, |_| {
            std::hint::black_box(model.estimate(&range))
        });
        by_model.entry(req.est.as_str()).or_default().push(range);
    }
    let mut batched = 0usize;
    let mut out = vec![0.0; BATCH];
    for (name, ranges) in &by_model {
        let model = serving_model(inp, name)?;
        for chunk in ranges.chunks(BATCH) {
            probe.spans.time("core.frozen.batch", batched as u64, |_| {
                model.estimate_into(chunk, &mut out[..chunk.len()])
            });
            batched += chunk.len();
        }
    }
    metrics.put(
        "core.frozen.estimate_us",
        probe.mean_us("core.frozen.estimate"),
        "us",
    );
    let batch_ns = trace::self_times(&[&probe.spans])
        .get("core.frozen.batch")
        .map_or(0.0, |s| s.total_ns);
    metrics.put(
        "core.frozen.batch_us_per_query",
        share(batch_ns / 1e3, batched as f64),
        "us",
    );
    Ok(())
}

/// core + geom + solver: Algorithm 1, the design matrix built from the
/// volume kernel, and the weight solve, on the Fig. 12 training set.
fn training(metrics: &mut Metrics, inp: &Inputs<'_>, probe: &mut Probe) -> Result<(), String> {
    let root = Rect::unit(2);
    let qconfig = QuadHistConfig::with_tau(pipeline::TAU);
    let t = Instant::now();
    let tree = probe
        .spans
        .time("core.quadhist.design", 0, |_| {
            QuadHist::design_buckets(&root, inp.train, &qconfig)
        })
        .map_err(|e| format!("design_buckets failed: {e}"))?;
    metrics.put("core.quadhist.design_s", t.elapsed().as_secs_f64(), "s");
    let leaves: Vec<Rect> = tree
        .leaves()
        .into_iter()
        .map(|l| tree.rect(l).clone())
        .collect();
    metrics.put("core.quadhist.buckets", leaves.len() as f64, "count");
    let counts: FitCounts = inp.times.last().map(|t| t.quad_counts).unwrap_or_default();
    metrics.put(
        "core.quadhist.quadtree_splits",
        counts.quadtree_splits as f64,
        "count",
    );
    metrics.put(
        "core.quadhist.design_matrix_entries",
        counts.design_matrix_entries as f64,
        "count",
    );

    let volume = qconfig.volume.clone();
    let fill_row = |q: &Range, row: &mut [f64]| {
        for (cell, slot) in leaves.iter().zip(row.iter_mut()) {
            let cv = cell.volume();
            *slot = if cv <= EPS {
                0.0
            } else {
                (q.intersection_volume(cell, &volume) / cv).clamp(0.0, 1.0)
            };
        }
    };
    let mut a = DenseMatrix::zeros(inp.train.len(), leaves.len());
    let mut row = vec![0.0; leaves.len()];
    let t = Instant::now();
    probe.spans.time("geom.volume.rect", 0, |_| {
        for (i, q) in inp.train.iter().enumerate() {
            fill_row(&q.range, &mut row);
            for (j, v) in row.iter().enumerate() {
                a[(i, j)] = *v;
            }
        }
    });
    let per_entry = |t: Instant, queries: usize| {
        share(
            t.elapsed().as_secs_f64() * 1e6,
            (queries * leaves.len()) as f64,
        )
    };
    metrics.put("geom.volume.rect_us", per_entry(t, inp.train.len()), "us");
    let mut rng = StdRng::seed_from_u64(VOLUME_SEED);
    for (kind, span, name) in [
        (
            Kind::Halfspace,
            "geom.volume.halfspace",
            "geom.volume.halfspace_us",
        ),
        (Kind::Ball, "geom.volume.ball", "geom.volume.ball_us"),
    ] {
        let qs: Vec<Range> = (0..VOLUME_QUERIES)
            .map(|_| queries::range(&queries::draw(inp.data, kind, crate::MAX_RADIUS, &mut rng)))
            .collect();
        let t = Instant::now();
        probe.spans.time(span, 0, |_| {
            for q in &qs {
                fill_row(q, &mut row);
                std::hint::black_box(&row);
            }
        });
        metrics.put(name, per_entry(t, qs.len()), "us");
    }
    metrics.put(
        "geom.mc_samples_drawn",
        selearn_obs::counter_get("mc_samples_drawn") as f64,
        "count",
    );

    let s: Vec<f64> = inp.train.iter().map(|q| q.selectivity).collect();
    let t = Instant::now();
    probe
        .spans
        .time("solver.weights", 0, |_| {
            estimate_weights_with_report(&a, &s, &Objective::L2, &WeightSolver::Fista)
        })
        .map_err(|e| format!("weight solve failed: {e}"))?;
    metrics.put("solver.weights_s", t.elapsed().as_secs_f64(), "s");
    for (report, prefix) in [
        (inp.trained.quad.solve_report(), "solver.quadhist"),
        (inp.trained.pts.solve_report(), "solver.ptshist"),
    ] {
        metrics.put(
            &format!("{prefix}.iters"),
            report.map_or(0, |r| r.iters) as f64,
            "count",
        );
        metrics.put(
            &format!("{prefix}.converged"),
            report.map_or(0.0, |r| f64::from(u8::from(r.converged))),
            "bool",
        );
    }
    metrics.put(
        "solver.active_set_swaps",
        counts.active_set_swaps as f64,
        "count",
    );
    Ok(())
}

/// core + store: the live store's I/O over the traced phase, and the
/// acked feedback stream replayed through a benchmark-owned online model
/// and a benchmark-owned store with the live store's config.
fn feedback_path(metrics: &mut Metrics, inp: &Inputs<'_>, probe: &mut Probe) -> Result<(), String> {
    let records: &[TrainingQuery] = inp.sink_log.map_or(&[], |l| &l.records);
    probe.samples.push(("feedback_records", records.len()));
    let (mut observe_us, mut refit_ms, mut freeze_ms) = (Vec::new(), Vec::new(), 0.0);
    let (mut store_us, mut checkpoint_ms) = (Vec::new(), 0.0);
    if let Some(side) = inp.side {
        let c = &side.config;
        let mut online = OnlineQuadHist::new(c.root.clone(), c.quadhist.clone(), c.refit_every)
            .map_err(|e| format!("cannot build the online model: {e}"))?
            .with_history_cap(c.history_cap);
        for (i, r) in records.iter().enumerate() {
            let t = Instant::now();
            probe
                .spans
                .time("core.online.observe", i as u64, |_| {
                    online.observe(r.clone())
                })
                .map_err(|e| format!("online observe failed: {e}"))?;
            // Every `refit_every`-th observe runs the refit.
            let us = t.elapsed().as_secs_f64() * 1e6;
            if (i + 1) % c.refit_every == 0 {
                refit_ms.push(us / 1e3);
            } else {
                observe_us.push(us);
            }
        }
        let t = Instant::now();
        probe
            .spans
            .time("core.online.freeze", 0, |_| online.freeze())
            .map_err(|e| format!("online freeze failed: {e}"))?;
        freeze_ms = t.elapsed().as_secs_f64() * 1e3;

        let dir = inp.out_dir.join(format!("replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ModelStore::open(&dir, c.clone())
            .map_err(|e| format!("cannot open the replay store: {e}"))?;
        for (i, r) in records.iter().enumerate() {
            let t = Instant::now();
            probe
                .spans
                .time("store.observe", i as u64, |_| store.observe(r.clone()))
                .map_err(|e| format!("replay observe failed: {e}"))?;
            store_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        let t = Instant::now();
        probe
            .spans
            .time("store.checkpoint", 0, |_| store.checkpoint())
            .map_err(|e| format!("replay checkpoint failed: {e}"))?;
        checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    metrics.put("core.online.observe_us", median0(&observe_us), "us");
    metrics.put("core.online.refit_ms", median0(&refit_ms), "ms");
    metrics.put("core.online.freeze_ms", freeze_ms, "ms");
    metrics.put("store.observe_us_p50", median0(&store_us), "us");
    let p99 = probe.tail(&store_us, 0.99, "store.observe_us_p99");
    metrics.put("store.observe_us_p99", p99, "us");

    let phase_acks = inp
        .traced
        .phase
        .samples
        .iter()
        .filter(|s| s.is_feedback())
        .count() as f64;
    let (syncs, bytes, sync_us) = inp.traced.io.clone().unwrap_or_default();
    metrics.put(
        "store.syncs_per_ack",
        share(syncs as f64, phase_acks),
        "ratio",
    );
    metrics.put("store.sync_us_p50", median0(&sync_us), "us");
    metrics.put("store.bytes_per_ack", share(bytes as f64, phase_acks), "B");
    metrics.put("store.checkpoint_ms", checkpoint_ms, "ms");
    metrics.put("store.recovery_ms", inp.recovery_ms, "ms");
    Ok(())
}

/// data: the set-up steps; obs: instrument costs with stats on; trace:
/// what tracing cost the client-observed p50.
fn data_obs_trace(metrics: &mut Metrics, inp: &Inputs<'_>) -> Result<(), String> {
    let col = |f: fn(&SetupTimes) -> f64| median(&inp.times.iter().map(f).collect::<Vec<_>>());
    metrics.put("data.generate_s", col(|t| t.generate_s), "s");
    metrics.put("data.label_s", col(|t| t.label_s), "s");

    let t = Instant::now();
    for _ in 0..OBS_CALLS {
        selearn_obs::counter_add("perfbench.probe", 1);
    }
    let per_call = |t: Instant| t.elapsed().as_secs_f64() * 1e9 / f64::from(OBS_CALLS);
    metrics.put("obs.counter_add_ns", per_call(t), "ns");
    let t = Instant::now();
    for _ in 0..OBS_CALLS {
        let _span = selearn_obs::span!("perfbench.probe");
    }
    metrics.put("obs.span_ns", per_call(t), "ns");

    let est_p50 = |phase: &Phase, what: &str| {
        let mut us: Vec<f64> = phase
            .samples
            .iter()
            .filter(|s| !s.is_feedback())
            .map(Sample::us)
            .collect();
        percentile(&mut us, 0.5, what).map(|p| p.value)
    };
    let traced = est_p50(&inp.traced.phase, "traced estimate latency")?;
    let untraced = est_p50(inp.timed, "untraced estimate latency")?;
    metrics.put("trace.overhead", traced / untraced, "ratio");
    Ok(())
}
