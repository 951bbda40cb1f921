//! The service the workloads drive: the paper's Fig. 12 training step and
//! a production-configured server (obs stats on, admin plane up, and for
//! feedback-mix a durable feedback store).

use crate::queries::{self, Kind};
use crate::stats::percentile;
use crate::vfs::{CountingVfs, IoCounts};
use crate::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use selearn_core::{
    FrozenEstimator, PtsHist, PtsHistConfig, QuadHist, QuadHistConfig, SelearnError,
    SelectivityEstimator, SharedEstimator, TrainingQuery,
};
use selearn_data::{power_like, q_error, CenterDistribution, Dataset, QueryType, WorkloadSpec};
use selearn_geom::Rect;
use selearn_serve::{
    start_admin, start_with_feedback, AdminHandle, AdminState, DriftConfig, DriftMonitor,
    DurableFeedback, FeedbackAck, FeedbackSink, ModelRegistry, Request, ServerConfig, ServerHandle,
    DEFAULT_MODEL,
};
use selearn_store::{ModelStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Rows of the benchmark dataset (Power-like, projected to 2-D).
pub const ROWS: usize = 50_000;
/// Training queries of the Fig. 12 fit.
pub const TRAIN_N: usize = 1000;
/// Held-out queries the fitted models are scored on.
pub const HELD_OUT: usize = 2000;
/// The dataset and the Fig. 12 training/held-out sets are fixed, not
/// drawn from the workload seed: accuracy is then an exact, repeatable
/// number (it moves only when the learner does), and fit time varies only
/// with the host. The workload seed drives the served traffic.
const DATA_SEED: u64 = 0x5e1ec7;
const FIG12_SEED: u64 = 0xf1612;
/// QuadHist split threshold and PtsHist model size of the fit.
pub const TAU: f64 = 0.01;
pub const PTS_K: usize = 1000;

/// Tenants of serve-hot, each with a QuadHist and a PtsHist model.
pub const HOT_TENANTS: usize = 4;
/// Feedback records between checkpoints (the server binary's default).
pub const CHECKPOINT_EVERY: u64 = 256;

/// Wall times of the set-up steps, and the program's own work counters
/// over the QuadHist fit.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    pub label_s: f64,
    pub quad_fit_s: f64,
    pub pts_fit_s: f64,
    pub quad_counts: FitCounts,
}

/// Growth of the program's work counters across one fit.
#[derive(Clone, Copy, Debug, Default)]
pub struct FitCounts {
    pub quadtree_splits: u64,
    pub design_matrix_entries: u64,
    pub active_set_swaps: u64,
}

impl FitCounts {
    const NAMES: [&'static str; 3] = [
        "quadtree_splits",
        "design_matrix_entries",
        "active_set_swaps",
    ];

    fn read() -> [u64; 3] {
        Self::NAMES.map(selearn_obs::counter_get)
    }

    /// Runs `f` and returns the counter growth over it.
    pub fn over<T>(f: impl FnOnce() -> T) -> (T, FitCounts) {
        let before = Self::read();
        let out = f();
        let after = Self::read();
        let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        (
            out,
            FitCounts {
                quadtree_splits: d[0],
                design_matrix_entries: d[1],
                active_set_swaps: d[2],
            },
        )
    }
}

/// The fitted estimators with their held-out scores.
pub struct Trained {
    pub quad: QuadHist,
    pub pts: PtsHist,
    pub quad_frozen: Arc<FrozenEstimator>,
    pub pts_frozen: Arc<FrozenEstimator>,
    pub quad_rms: f64,
    pub pts_rms: f64,
    pub quad_q99: f64,
    pub pts_q99: f64,
}

/// Everything a set-up produced.
pub struct Setup {
    pub data: Arc<Dataset>,
    pub train: Vec<TrainingQuery>,
    pub trained: Trained,
    pub service: Service,
    pub times: SetupTimes,
}

/// The dataset: Power-like, attributes 0 and 2 (the paper's 2-D Power).
pub fn dataset() -> Dataset {
    power_like(ROWS, DATA_SEED).project(&[0, 2])
}

/// Fig. 12: data-driven rect queries with exact labels, split into the
/// training prefix and the held-out suffix.
pub fn fig12_queries(data: &Dataset) -> Result<(Vec<TrainingQuery>, Vec<TrainingQuery>), String> {
    let spec = WorkloadSpec::new(QueryType::Rect, CenterDistribution::DataDriven);
    let mut rng = StdRng::seed_from_u64(FIG12_SEED);
    let w = selearn_data::Workload::generate(data, &spec, TRAIN_N + HELD_OUT, &mut rng)
        .map_err(|e| format!("cannot generate the Fig. 12 workload: {e}"))?;
    let all: Vec<TrainingQuery> = w
        .queries()
        .iter()
        .map(|q| TrainingQuery::new(q.range.clone(), q.selectivity))
        .collect();
    let (train, held) = all.split_at(TRAIN_N);
    Ok((train.to_vec(), held.to_vec()))
}

pub fn fit_quadhist(train: &[TrainingQuery]) -> Result<QuadHist, SelearnError> {
    QuadHist::fit(Rect::unit(2), train, &QuadHistConfig::with_tau(TAU))
}

pub fn fit_ptshist(train: &[TrainingQuery]) -> Result<PtsHist, SelearnError> {
    PtsHist::fit(Rect::unit(2), train, &PtsHistConfig::with_model_size(PTS_K))
}

/// RMS error and q-error p99 of `model` on the held-out queries.
fn score(model: &dyn SelectivityEstimator, held: &[TrainingQuery]) -> Result<(f64, f64), String> {
    let est: Vec<f64> = held.iter().map(|q| model.estimate(&q.range)).collect();
    let truth: Vec<f64> = held.iter().map(|q| q.selectivity).collect();
    let rms = selearn_data::rms_error(&est, &truth);
    let mut qs: Vec<f64> = est
        .iter()
        .zip(&truth)
        .map(|(&e, &t)| q_error(e, t))
        .collect();
    let q99 = percentile(&mut qs, 0.99, "held-out q-error")?.value;
    Ok((rms, q99))
}

/// One full set-up: data, labels, fits, freeze, server start, and the
/// workload's own `prepare` (its served inputs and the warm-up).
pub fn setup<T>(
    workload: Workload,
    out_dir: &Path,
    tag: usize,
    server_config: &ServerConfig,
    prepare: impl FnOnce(&Service, &Arc<Dataset>) -> Result<T, String>,
) -> Result<(Setup, T), String> {
    let t_all = Instant::now();
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let data = Arc::new(dataset());
    times.generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (train, held) = fig12_queries(&data)?;
    times.label_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (quad, counts) = FitCounts::over(|| fit_quadhist(&train));
    let quad = quad.map_err(|e| format!("QuadHist fit failed: {e}"))?;
    times.quad_fit_s = t.elapsed().as_secs_f64();
    times.quad_counts = counts;
    let t = Instant::now();
    let pts = fit_ptshist(&train).map_err(|e| format!("PtsHist fit failed: {e}"))?;
    times.pts_fit_s = t.elapsed().as_secs_f64();

    let quad_frozen = Arc::new(quad.freeze());
    let pts_frozen = Arc::new(pts.freeze());
    let (quad_rms, quad_q99) = score(quad_frozen.as_ref(), &held)?;
    let (pts_rms, pts_q99) = score(pts_frozen.as_ref(), &held)?;
    let trained = Trained {
        quad,
        pts,
        quad_frozen,
        pts_frozen,
        quad_rms,
        pts_rms,
        quad_q99,
        pts_q99,
    };

    let service = Service::start(workload, &trained, out_dir, tag, server_config)?;
    let prepared = prepare(&service, &data)?;
    times.total_s = t_all.elapsed().as_secs_f64();
    Ok((
        Setup {
            data,
            train,
            trained,
            service,
            times,
        },
        prepared,
    ))
}

/// Model names each workload registers, with the model behind each.
fn models(workload: Workload, trained: &Trained) -> Vec<(String, SharedEstimator)> {
    let quad: SharedEstimator = trained.quad_frozen.clone();
    let pts: SharedEstimator = trained.pts_frozen.clone();
    match workload {
        Workload::ServeHot => (0..HOT_TENANTS)
            .flat_map(|t| {
                [
                    (format!("t{t}.quad"), Arc::clone(&quad)),
                    (format!("t{t}.pts"), Arc::clone(&pts)),
                ]
            })
            .collect(),
        Workload::ServeCold => vec![("cold.quad".to_string(), quad)],
        Workload::FeedbackMix => vec![(DEFAULT_MODEL.to_string(), quad)],
    }
}

/// A running service and the handles the checks and probes need.
pub struct Service {
    pub handle: ServerHandle,
    admin: AdminHandle,
    pub registry: Arc<ModelRegistry>,
    pub feedback: Option<FeedbackSide>,
    pub names: Vec<String>,
}

/// The durable-feedback side of feedback-mix.
pub struct FeedbackSide {
    pub probe: Arc<SinkProbe>,
    pub counts: Arc<IoCounts>,
    pub dir: PathBuf,
    pub config: StoreConfig,
}

impl Service {
    fn start(
        workload: Workload,
        trained: &Trained,
        out_dir: &Path,
        tag: usize,
        config: &ServerConfig,
    ) -> Result<Service, String> {
        let registry = Arc::new(ModelRegistry::new());
        let named = models(workload, trained);
        for (name, model) in &named {
            registry.register(name, Arc::clone(model), Rect::unit(2));
        }
        let mut feedback = None;
        let mut drift = None;
        let mut sink: Option<Arc<dyn FeedbackSink>> = None;
        if workload == Workload::FeedbackMix {
            let dir = out_dir.join(format!("store-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let counts = Arc::new(IoCounts::default());
            let store_config = StoreConfig::new(Rect::unit(2));
            let store = ModelStore::open_with_vfs(
                Arc::new(CountingVfs::new(Arc::clone(&counts))),
                &dir,
                store_config.clone(),
            )
            .map_err(|e| format!("cannot open the feedback store: {e}"))?;
            let durable = Arc::new(DurableFeedback::new(
                store,
                Arc::clone(&registry),
                DEFAULT_MODEL,
                CHECKPOINT_EVERY,
            ));
            let monitor = Arc::new(DriftMonitor::new(
                DriftConfig::default(),
                Arc::clone(&registry),
            ));
            durable.attach_drift(Arc::clone(&monitor));
            drift = Some(monitor);
            let first = registry
                .slot(DEFAULT_MODEL)
                .map(|s| s.get().0)
                .ok_or("the store-owning model is not registered")?;
            let probe = Arc::new(SinkProbe::new(durable, Arc::clone(&registry), first));
            sink = Some(Arc::clone(&probe) as Arc<dyn FeedbackSink>);
            feedback = Some(FeedbackSide {
                probe,
                counts,
                dir,
                config: store_config,
            });
        }
        let handle = start_with_feedback(config.clone(), Arc::clone(&registry), sink)
            .map_err(|e| format!("cannot start the server: {e}"))?;
        let store_writable = feedback.as_ref().map(|f| {
            let dir = f.dir.clone();
            Box::new(move || {
                let probe = dir.join(".writable-probe");
                let ok = std::fs::write(&probe, b"probe").is_ok();
                let _ = std::fs::remove_file(&probe);
                ok
            }) as Box<dyn Fn() -> bool + Send + Sync>
        });
        let admin = start_admin(
            "127.0.0.1:0",
            AdminState {
                registry: Arc::clone(handle.registry()),
                stats: Arc::clone(handle.stats()),
                cache: Arc::clone(handle.cache()),
                queue_depth: handle.queue_probe(),
                drift,
                store_writable,
            },
        )
        .map_err(|e| format!("cannot start the admin plane: {e}"))?;
        Ok(Service {
            handle,
            admin,
            registry,
            feedback,
            names: named.into_iter().map(|(n, _)| n).collect(),
        })
    }

    pub fn addr(&self) -> String {
        self.handle.addr().to_string()
    }

    /// Stops the admin plane and the server and joins their threads.
    pub fn stop(self) -> Option<FeedbackSide> {
        self.admin.shutdown();
        self.handle.shutdown();
        self.feedback
    }
}

/// The feedback sink the server is given in feedback-mix: the production
/// [`DurableFeedback`], wrapped to time each `observe` and to keep every
/// model a checkpoint swapped in, so served answers can be checked
/// against the model that was live. The gate serializes observes exactly
/// as the store's own mutex already does.
pub struct SinkProbe {
    inner: Arc<DurableFeedback>,
    registry: Arc<ModelRegistry>,
    gate: Mutex<SinkLog>,
}

/// What the sink saw.
#[derive(Default, Clone)]
pub struct SinkLog {
    /// `FeedbackSink::observe` wall time per acked record, in µs.
    pub observe_us: Vec<f64>,
    /// Served models in swap order with the time each was seen; the
    /// first is the model registered at start.
    pub models: Vec<(Instant, SharedEstimator)>,
    /// Acked LSNs in ack order.
    pub lsns: Vec<u64>,
    /// Acked records, in ack order.
    pub records: Vec<TrainingQuery>,
}

impl SinkProbe {
    fn new(
        inner: Arc<DurableFeedback>,
        registry: Arc<ModelRegistry>,
        first: SharedEstimator,
    ) -> Self {
        let log = SinkLog {
            models: vec![(Instant::now(), first)],
            ..SinkLog::default()
        };
        Self {
            inner,
            registry,
            gate: Mutex::new(log),
        }
    }

    pub fn log(&self) -> SinkLog {
        self.gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

impl FeedbackSink for SinkProbe {
    fn observe(&self, feedback: TrainingQuery) -> Result<FeedbackAck, SelearnError> {
        let mut log = self.gate.lock().unwrap_or_else(PoisonError::into_inner);
        let record = feedback.clone();
        let t0 = Instant::now();
        let ack = self.inner.observe(feedback)?;
        log.observe_us.push(t0.elapsed().as_secs_f64() * 1e6);
        log.lsns.push(ack.lsn);
        log.records.push(record);
        if ack.swapped {
            if let Some(slot) = self.registry.slot(DEFAULT_MODEL) {
                log.models.push((Instant::now(), slot.get().0));
            }
        }
        Ok(ack)
    }
}

/// Draws `n` queries for `model` cycling the shape families in `kinds`.
pub fn draw_pool(
    data: &Dataset,
    models: &[String],
    kinds: &[Kind],
    n: usize,
    max_radius: f64,
    rng: &mut StdRng,
) -> Vec<Request> {
    (0..n)
        .map(|i| {
            let model = &models[i % models.len()];
            let kind = kinds[(i / models.len()) % kinds.len()];
            queries::request(model, queries::draw(data, kind, max_radius, rng))
        })
        .collect()
}

/// The model behind `name` in a static registry.
pub fn model_of(registry: &ModelRegistry, name: &str) -> Option<SharedEstimator> {
    registry.slot(name).map(|s| s.get().0)
}
