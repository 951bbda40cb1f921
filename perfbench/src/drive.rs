//! The closed-loop load: client threads in this process, one connection
//! each, every client sending its next line only after the previous
//! answer arrived.

use crate::queries::{self, Kind, Zipf};
use crate::trace::SpanBuf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selearn_data::Dataset;
use selearn_serve::{Client, DegradeReason, Feedback, Request, Response};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections (and threads), one per vCPU of the host.
pub const CLIENTS: usize = 2;
/// A traced phase records the spans of every `TRACE_EVERY`-th request of
/// each client.
const TRACE_EVERY: u64 = 16;
/// Longest a feedback-bounded phase may run before the run fails.
const PHASE_CAP: Duration = Duration::from_secs(100);
/// Width of the windows whose answer rates a time-bounded phase records.
const RATE_WINDOW: Duration = Duration::from_millis(250);
/// Share of feedback lines in feedback-mix.
const FEEDBACK_SHARE: f64 = 0.1;

/// What the clients send.
pub enum Traffic {
    /// Zipf-skewed repeats from a fixed pool of estimate requests.
    Pool {
        pool: Arc<Vec<Request>>,
        zipf: Arc<Zipf>,
    },
    /// A fresh query per request, shape families cycled per client.
    Fresh {
        data: Arc<Dataset>,
        model: String,
        max_radius: f64,
    },
    /// Pool estimates plus feedback lines taken in order from a labelled
    /// stream shared by the clients.
    Mix {
        pool: Arc<Vec<Request>>,
        zipf: Arc<Zipf>,
        feedback: Arc<Vec<Feedback>>,
        next: Arc<AtomicUsize>,
    },
}

/// When a phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Until {
    /// After this long; the line in flight is still answered.
    Elapsed(Duration),
    /// Once this many feedback lines have been sent and answered.
    Feedback(usize),
}

/// Which query a sample sent.
#[derive(Clone, Debug)]
pub enum Sent {
    Pool(usize),
    Fresh(Request),
    Feedback(Feedback),
}

/// What came back for one line, kept compact: runs record hundreds of
/// thousands of samples and the load generator's memory counts in the
/// process's peak RSS.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    Estimate {
        sel: f64,
        cached: bool,
    },
    Degraded(DegradeReason),
    Ack {
        lsn: u64,
    },
    Error(String),
    /// The connection closed before the answer arrived.
    Lost,
}

impl Answer {
    fn from(response: std::io::Result<Response>) -> Self {
        match response {
            Ok(Response::Estimate {
                degraded: Some(r), ..
            }) => Answer::Degraded(r),
            Ok(Response::Estimate { sel, cached, .. }) => Answer::Estimate { sel, cached },
            Ok(Response::Ack { lsn, .. }) => Answer::Ack { lsn },
            Ok(Response::Error { message, .. }) => Answer::Error(message),
            Err(_) => Answer::Lost,
        }
    }
}

/// One answered (or lost) line.
#[derive(Clone, Debug)]
pub struct Sample {
    pub sent: Sent,
    pub t_send: Instant,
    pub t_recv: Instant,
    pub answer: Answer,
}

impl Sample {
    pub fn us(&self) -> f64 {
        (self.t_recv - self.t_send).as_secs_f64() * 1e6
    }

    pub fn is_feedback(&self) -> bool {
        matches!(self.sent, Sent::Feedback(_))
    }
}

/// The estimate request a sample sent (`None` for feedback).
pub fn request_of<'a>(sample: &'a Sample, pool: Option<&'a [Request]>) -> Option<&'a Request> {
    match &sample.sent {
        Sent::Pool(i) => pool.map(|p| &p[*i]),
        Sent::Fresh(r) => Some(r),
        Sent::Feedback(_) => None,
    }
}

/// One phase's outcome.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub spans: Vec<SpanBuf>,
    pub elapsed_s: f64,
    /// Answers per second in each whole [`RATE_WINDOW`] of a phase that
    /// runs for a set time; empty for a feedback-bounded phase.
    pub rates: Vec<f64>,
}

impl Phase {
    /// The phases one after another, as one phase.
    pub fn concat(phases: Vec<Phase>) -> Phase {
        let mut all = Phase {
            samples: Vec::new(),
            spans: Vec::new(),
            elapsed_s: 0.0,
            rates: Vec::new(),
        };
        for p in phases {
            all.samples.extend(p.samples);
            all.spans.extend(p.spans);
            all.elapsed_s += p.elapsed_s;
            all.rates.extend(p.rates);
        }
        all
    }
}

/// Answers per second in each whole [`RATE_WINDOW`] since `start`.
fn window_rates(samples: &[Sample], start: Instant, elapsed_s: f64) -> Vec<f64> {
    let width = RATE_WINDOW.as_secs_f64();
    let mut counts = vec![0usize; (elapsed_s / width) as usize];
    for s in samples {
        let w = ((s.t_recv - start).as_secs_f64() / width) as usize;
        if let Some(c) = counts.get_mut(w) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| c as f64 / width).collect()
}

/// Runs the traffic's closed loops against `addr` until `until`.
/// `stream` separates the random streams of different phases of a run.
pub fn run(
    addr: &str,
    traffic: &Traffic,
    seed: u64,
    stream: u64,
    until: Until,
    traced: bool,
    epoch: Instant,
) -> Result<Phase, String> {
    let start = Instant::now();
    let feedback_sent = AtomicUsize::new(0);
    let results: Vec<Result<(Vec<Sample>, SpanBuf), String>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let feedback_sent = &feedback_sent;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((c as u64 + 1) << 48),
                    );
                    let mut spans = SpanBuf::new(c as u32, epoch, false);
                    let stop = Stop {
                        until,
                        start,
                        feedback_sent,
                    };
                    client_loop(addr, traffic, &mut rng, c, &stop, traced, &mut spans)
                        .map(|samples| (samples, spans))
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for r in results {
        let (s, b) = r?;
        samples.extend(s);
        spans.push(b);
    }
    samples.sort_by_key(|s| s.t_send);
    let rates = match until {
        Until::Elapsed(_) => window_rates(&samples, start, elapsed_s),
        Until::Feedback(_) => Vec::new(),
    };
    Ok(Phase {
        samples,
        spans,
        elapsed_s,
        rates,
    })
}

/// A client's view of when its phase ends.
struct Stop<'a> {
    until: Until,
    start: Instant,
    feedback_sent: &'a AtomicUsize,
}

impl Stop<'_> {
    /// Checked before each line.
    fn time_is_up(&self) -> Result<bool, String> {
        let elapsed = self.start.elapsed();
        match self.until {
            Until::Elapsed(d) => Ok(elapsed >= d),
            Until::Feedback(_) if elapsed > PHASE_CAP => Err(format!(
                "the feedback phase ran past {} s",
                PHASE_CAP.as_secs()
            )),
            Until::Feedback(_) => Ok(false),
        }
    }

    /// Checked for each feedback line about to be sent.
    fn feedback_done(&self) -> bool {
        match self.until {
            Until::Feedback(n) => self.feedback_sent.fetch_add(1, Ordering::Relaxed) >= n,
            Until::Elapsed(_) => false,
        }
    }
}

fn client_loop(
    addr: &str,
    traffic: &Traffic,
    rng: &mut StdRng,
    client_idx: usize,
    stop: &Stop<'_>,
    traced: bool,
    spans: &mut SpanBuf,
) -> Result<Vec<Sample>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    let mut samples = Vec::with_capacity(1 << 16);
    let mut n: u64 = 0;
    while !stop.time_is_up()? {
        n += 1;
        spans.set_on(traced && n.is_multiple_of(TRACE_EVERY));
        let req_id = ((client_idx as u64) << 40) | n;
        let sent = next_line(traffic, rng, client_idx, n);
        if matches!(sent, Sent::Feedback(_)) && stop.feedback_done() {
            break;
        }
        let sample = spans.time("client.request", req_id, |spans| {
            let line = spans.time("client.render", req_id, |_| render(traffic, &sent));
            let t_send = Instant::now();
            let answer = spans.time("serve.roundtrip", req_id, |_| {
                Answer::from(client.send_line(&line).and_then(|()| client.recv()))
            });
            Sample {
                sent,
                t_send,
                t_recv: Instant::now(),
                answer,
            }
        });
        let lost = sample.answer == Answer::Lost;
        samples.push(sample);
        if lost {
            // The connection is gone: the line counts as failed and this
            // client stops.
            break;
        }
    }
    Ok(samples)
}

/// Chooses the next line.
fn next_line(traffic: &Traffic, rng: &mut StdRng, client_idx: usize, n: u64) -> Sent {
    match traffic {
        Traffic::Pool { zipf, .. } => Sent::Pool(zipf.sample(rng)),
        Traffic::Fresh {
            data,
            model,
            max_radius,
        } => {
            let kind = Kind::ALL[(n as usize + client_idx) % Kind::ALL.len()];
            Sent::Fresh(queries::request(
                model,
                queries::draw(data, kind, *max_radius, rng),
            ))
        }
        Traffic::Mix {
            zipf,
            feedback,
            next,
            ..
        } => {
            if rng.gen_bool(FEEDBACK_SHARE) {
                let i = next.fetch_add(1, Ordering::Relaxed);
                Sent::Feedback(feedback[i % feedback.len()].clone())
            } else {
                Sent::Pool(zipf.sample(rng))
            }
        }
    }
}

/// The protocol line for a chosen query.
fn render(traffic: &Traffic, sent: &Sent) -> String {
    match (sent, traffic) {
        (Sent::Pool(i), Traffic::Pool { pool, .. } | Traffic::Mix { pool, .. }) => {
            pool[*i].to_json()
        }
        (Sent::Fresh(req), _) => req.to_json(),
        (Sent::Feedback(fb), _) => fb.to_json(),
        (Sent::Pool(_), Traffic::Fresh { .. }) => {
            unreachable!("fresh traffic sends no pooled lines")
        }
    }
}

/// Sends every pool entry once, split across the clients, so the cache
/// holds the working set before timing starts. Returns the samples.
pub fn fill(addr: &str, pool: &[Request]) -> Result<Vec<Sample>, String> {
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
                    let mut out = Vec::new();
                    for i in (c..pool.len()).step_by(CLIENTS) {
                        let t_send = Instant::now();
                        let answer = Answer::from(client.call(&pool[i]));
                        let lost = answer == Answer::Lost;
                        out.push(Sample {
                            sent: Sent::Pool(i),
                            t_send,
                            t_recv: Instant::now(),
                            answer,
                        });
                        if lost {
                            break;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = Vec::new();
    for r in results {
        all.extend(r?);
    }
    Ok(all)
}
