//! Correctness checks and the end-to-end metrics.
//!
//! Every line the run sent is checked: it must be answered, not
//! degraded, and not an error; every answer the server computed (not
//! served from the cache) must equal the registered model's own estimate
//! for that request, bit for bit; every feedback line must be acked, and
//! after the run the reopened store must recover every acked LSN. Each
//! violation counts as one failed operation.

use crate::drive::{self, Answer, Phase, Sample, Sent};
use crate::pipeline::{FeedbackSide, Service, SinkLog};
use crate::queries;
use crate::stats::{median, percentile, Pct};
use crate::QERROR_SAMPLES;
use selearn_core::SharedEstimator;
use selearn_data::{q_error, Dataset};
use selearn_geom::Range;
use selearn_serve::Request;
use selearn_store::ModelStore;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Why a sample failed outright (`None` when it was answered normally).
pub fn failure(sample: &Sample) -> Option<String> {
    match (&sample.sent, &sample.answer) {
        (_, Answer::Lost) => Some("lost: the connection closed before the answer".into()),
        (_, Answer::Error(message)) => Some(format!("error: {message}")),
        (_, Answer::Degraded(r)) => Some(format!("degraded: {}", r.as_str())),
        (Sent::Feedback(_), Answer::Ack { .. }) => None,
        (Sent::Feedback(_), other) => Some(format!("feedback answered with {other:?}")),
        (_, Answer::Estimate { .. }) => None,
        (_, other) => Some(format!("estimate answered with {other:?}")),
    }
}

/// The model registered under each name, read before shutdown.
pub fn static_models(service: &Service) -> BTreeMap<String, SharedEstimator> {
    service
        .names
        .iter()
        .filter_map(|n| crate::pipeline::model_of(&service.registry, n).map(|m| (n.clone(), m)))
        .collect()
}

/// The models that may have answered `sample`: the one registered under
/// its name, or — with a feedback store swapping models — every model
/// live between the send and shortly after the answer.
pub fn candidates<'a>(
    sample: &Sample,
    req: &Request,
    models: &'a BTreeMap<String, SharedEstimator>,
    log: Option<&'a SinkLog>,
) -> Vec<&'a SharedEstimator> {
    match log {
        Some(log) => {
            let seen_by = |t: Instant| log.models.iter().filter(|(at, _)| *at <= t).count();
            let lo = seen_by(sample.t_send).max(1) - 1;
            let hi = (seen_by(sample.t_recv) + 1).min(log.models.len());
            log.models[lo..hi].iter().map(|(_, m)| m).collect()
        }
        None => models.get(&req.est).into_iter().collect(),
    }
}

/// The model's own answer, as the server computes and clamps it.
pub fn model_answer(model: &SharedEstimator, range: &Range) -> f64 {
    let mut out = [0.0];
    model.estimate_into(std::slice::from_ref(range), &mut out);
    out[0].clamp(0.0, 1.0)
}

/// Outcome of the checks.
pub struct CheckReport {
    pub failed: usize,
    pub notes: Vec<String>,
    /// Reopen time of the feedback store (`0` without one).
    pub recovery_ms: f64,
}

pub fn check(
    samples: &[&Sample],
    pool: Option<&[Request]>,
    models: &BTreeMap<String, SharedEstimator>,
    log: Option<&SinkLog>,
    side: Option<&FeedbackSide>,
) -> Result<CheckReport, String> {
    let mut notes = Vec::new();
    let mut failed = 0;
    let mut first_failures = BTreeSet::new();
    for s in samples {
        if let Some(why) = failure(s) {
            failed += 1;
            first_failures.insert(why);
        }
    }
    notes.extend(first_failures.into_iter().take(5));

    // Every model-computed answer must be the model's own answer.
    let to_check: Vec<(&Sample, &Request, f64)> = samples
        .iter()
        .filter_map(|s| match &s.answer {
            Answer::Estimate { sel, cached: false } => {
                drive::request_of(s, pool).map(|r| (*s, r, *sel))
            }
            _ => None,
        })
        .collect();
    let mismatches: usize = std::thread::scope(|scope| {
        let chunk = to_check.len().div_ceil(drive::CLIENTS).max(1);
        let joins: Vec<_> = to_check
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .filter(|(s, req, sel)| {
                            let range = queries::range(&req.shape);
                            !candidates(s, req, models, log)
                                .iter()
                                .any(|m| model_answer(m, &range).to_bits() == sel.to_bits())
                        })
                        .count()
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().unwrap_or(usize::MAX / 4))
            .sum()
    });
    if mismatches > 0 {
        notes.push(format!(
            "{mismatches} of {} model answers differ from the model's own estimate",
            to_check.len()
        ));
    }
    failed += mismatches;
    notes.push(format!("{} model answers checked", to_check.len()));

    let mut recovery_ms = 0.0;
    if let (Some(log), Some(side)) = (log, side) {
        let (lost, ms, note) = durability(samples, log, side)?;
        failed += lost;
        recovery_ms = ms;
        notes.push(note);
    }
    Ok(CheckReport {
        failed,
        notes,
        recovery_ms,
    })
}

/// Reopens the store and checks that every LSN the clients were acked is
/// recovered, and that the clients saw exactly the acks the store gave.
fn durability(
    samples: &[&Sample],
    log: &SinkLog,
    side: &FeedbackSide,
) -> Result<(usize, f64, String), String> {
    let acked: BTreeSet<u64> = samples
        .iter()
        .filter_map(|s| match &s.answer {
            Answer::Ack { lsn } => Some(*lsn),
            _ => None,
        })
        .collect();
    let logged: BTreeSet<u64> = log.lsns.iter().copied().collect();
    let t0 = Instant::now();
    let store = ModelStore::open(&side.dir, side.config.clone())
        .map_err(|e| format!("cannot reopen the feedback store: {e}"))?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let last = store.last_lsn();
    let mut lost = acked.iter().filter(|&&lsn| lsn > last || lsn == 0).count();
    lost += acked.symmetric_difference(&logged).count();
    Ok((
        lost,
        recovery_ms,
        format!(
            "{} acked LSNs, store recovered through LSN {last}, {lost} missing",
            acked.len()
        ),
    ))
}

/// End-to-end figures of the timed phase. The estimate p99 is printed,
/// not gated: on feedback-mix it moved by half between two sets of runs
/// of the same code (see the README), so it is a per-layer metric.
pub struct EndToEnd {
    pub est_p50: Pct,
    pub est_p99: Pct,
    pub ops_per_s: f64,
    /// Answers over the whole phase's wall time.
    pub ops_per_s_mean: f64,
    pub qerror_p50: f64,
    pub qerror_p99: f64,
    pub qerror_samples: usize,
    pub acks: usize,
}

pub fn end_to_end(
    timed: &Phase,
    pool: Option<&[Request]>,
    data: &Dataset,
) -> Result<EndToEnd, String> {
    let mut est_us: Vec<f64> = timed
        .samples
        .iter()
        .filter(|s| !s.is_feedback())
        .map(Sample::us)
        .collect();
    let acks = timed.samples.iter().filter(|s| s.is_feedback()).count();
    let est_p50 = percentile(&mut est_us, 0.50, "estimate latency")?;
    let est_p99 = percentile(&mut est_us, 0.99, "estimate latency")?;
    let ops_per_s_mean = timed.samples.len() as f64 / timed.elapsed_s;
    // A time-bounded phase reports its median window rate: a stall of
    // the shared host moves a few windows and not the median, where it
    // would move the mean rate by its full length. A feedback-bounded
    // phase runs whole checkpoint cycles, and its stalls on refits are
    // part of what it measures.
    let ops_per_s = if timed.rates.is_empty() {
        ops_per_s_mean
    } else {
        median(&timed.rates)
    };

    let mut qerrors = served_qerrors(&timed.samples, pool, data);
    let qerror_samples = qerrors.len();
    let qerror_p50 = percentile(&mut qerrors, 0.50, "served q-error")?.value;
    let qerror_p99 = percentile(&mut qerrors, 0.99, "served q-error")?.value;
    Ok(EndToEnd {
        est_p50,
        est_p99,
        ops_per_s,
        ops_per_s_mean,
        qerror_p50,
        qerror_p99,
        qerror_samples,
        acks,
    })
}

/// Q-error of served answers against exact selectivity: one sample per
/// distinct (query, answer) pair, so a popular query counts once per
/// answer it got and not once per repeat; an even sample of at most
/// [`QERROR_SAMPLES`].
pub fn served_qerrors(samples: &[Sample], pool: Option<&[Request]>, data: &Dataset) -> Vec<f64> {
    let mut seen = BTreeSet::new();
    let answered: Vec<(&Request, f64)> = samples
        .iter()
        .filter_map(|s| match (&s.sent, &s.answer) {
            (Sent::Pool(i), Answer::Estimate { sel, .. }) if !seen.insert((*i, sel.to_bits())) => {
                None
            }
            (_, Answer::Estimate { sel, .. }) => drive::request_of(s, pool).map(|r| (r, *sel)),
            _ => None,
        })
        .collect();
    let step = answered.len().div_ceil(QERROR_SAMPLES).max(1);
    let picked: Vec<&(&Request, f64)> = answered.iter().step_by(step).collect();
    std::thread::scope(|scope| {
        let chunk = picked.len().div_ceil(drive::CLIENTS).max(1);
        let joins: Vec<_> = picked
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(req, sel)| {
                            q_error(*sel, data.selectivity(&queries::range(&req.shape)))
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        joins
            .into_iter()
            .flat_map(|j| j.join().unwrap_or_default())
            .collect()
    })
}
