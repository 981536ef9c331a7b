//! The open-loop load generator. One thread (the caller's) sends
//! requests to a [`Pool`] at seeded Poisson arrival times and never
//! waits for replies before sending, so a slow pool receives the same
//! load and its queue grows. Each request is timed from when it was
//! due: the generator's lag in sending it, plus the pool's queue wait,
//! plus its execution.

use crate::gen::Rng;
use crate::spans::{SpanId, Spans};
use jns_eval::Stats;
use jns_obs::Histogram;
use jns_serve::{Pool, Request, Response};
use std::time::{Duration, Instant};

/// A step whose requests are not all answered by then is a benchmark
/// failure, not a slow result.
const STEP_TIMEOUT: Duration = Duration::from_secs(60);

/// Requests sent but not yet answered when the last one of a step is
/// sent, above which the backlog counts as growing.
const BACKLOG_MAX: usize = 16;

pub struct Step {
    pub rate: f64,
    /// Due-to-response latency of every request, milliseconds, sorted.
    pub latency_ms: Vec<f64>,
    /// Due-to-submit lag, microseconds.
    pub lag: Histogram,
    pub queue: Histogram,
    pub exec: Histogram,
    pub backlog: usize,
    /// Requests that failed or answered with the wrong lines.
    pub failed: u64,
    /// The work counters of every request.
    pub work: Vec<[u64; 4]>,
}

impl Step {
    pub fn p(&self, q: f64) -> f64 {
        crate::stat::quantile(&self.latency_ms, q)
    }

    pub fn meets(&self, limit_ms: f64) -> bool {
        self.failed == 0 && self.p(0.99) <= limit_ms && self.backlog <= BACKLOG_MAX
    }
}

/// The work counters of one request that do not depend on which worker
/// ran it or on what that worker ran before (inline caches, quickening
/// and the auto-sized heap limit all do).
fn request_work(s: &Stats) -> [u64; 4] {
    [
        s.steps,
        s.calls,
        s.allocs,
        s.views_explicit + s.views_implicit,
    ]
}

/// Waits for `n` replies, or fails after [`STEP_TIMEOUT`].
fn collect(pool: &Pool, replies: &mut Vec<Response>, n: usize) -> Result<(), String> {
    let deadline = Instant::now() + STEP_TIMEOUT;
    while replies.len() < n {
        if Instant::now() > deadline {
            return Err(format!("{} of {n} requests unanswered", n - replies.len()));
        }
        match pool.try_collect() {
            Some(r) => replies.push(r),
            None => std::thread::sleep(Duration::from_micros(100)),
        }
    }
    Ok(())
}

/// Sends `n` requests at once and waits for the replies, so that every
/// worker's caches are warm before anything is timed. Returns the
/// requests that failed or answered with the wrong lines.
pub fn warm_up(
    pool: &mut Pool,
    n: usize,
    first_id: u64,
    reference: &[String],
) -> Result<u64, String> {
    for i in 0..n {
        pool.submit(Request {
            id: first_id + i as u64,
        });
    }
    let mut replies = Vec::with_capacity(n);
    collect(pool, &mut replies, n)?;
    Ok(replies
        .iter()
        .filter(|r| !r.is_ok() || r.output != reference)
        .count() as u64)
}

/// Sends `n` requests at `rate` per second and waits for every reply.
#[allow(clippy::too_many_arguments)]
pub fn step(
    pool: &mut Pool,
    rng: &mut Rng,
    rate: f64,
    n: usize,
    first_id: u64,
    reference: &[String],
    spans: &mut Spans,
    parent: SpanId,
) -> Result<Step, String> {
    let mut at = 0.0f64;
    let offsets: Vec<f64> = (0..n)
        .map(|_| {
            at += rng.exp_gap(rate);
            at
        })
        .collect();
    let mut sent: Vec<(Instant, Instant)> = Vec::with_capacity(n);
    let mut replies: Vec<Response> = Vec::with_capacity(n);
    let start = Instant::now() + Duration::from_millis(1);
    for (i, off) in offsets.iter().enumerate() {
        let due = start + Duration::from_secs_f64(*off);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let t = Instant::now();
        pool.submit(Request {
            id: first_id + i as u64,
        });
        sent.push((due, t));
        replies.extend(std::iter::from_fn(|| pool.try_collect()));
    }
    let backlog = n - replies.len();
    collect(pool, &mut replies, n)?;

    let mut s = Step {
        rate,
        latency_ms: Vec::with_capacity(n),
        lag: Histogram::new(),
        queue: Histogram::new(),
        exec: Histogram::new(),
        backlog,
        failed: 0,
        work: Vec::with_capacity(n),
    };
    replies.sort_by_key(|r| r.id);
    for r in &replies {
        let (due, at) = sent[(r.id - first_id) as usize];
        let lag_us = at.duration_since(due).as_micros() as u64;
        let total = Duration::from_micros(lag_us + r.queue_us + r.exec_us);
        spans.record("request", parent, due, due + total);
        s.latency_ms.push(total.as_secs_f64() * 1e3);
        s.lag.record(lag_us);
        s.queue.record(r.queue_us);
        s.exec.record(r.exec_us);
        if !r.is_ok() || r.output != reference {
            s.failed += 1;
        }
        s.work.push(request_work(&r.stats));
    }
    s.latency_ms.sort_by(f64::total_cmp);
    Ok(s)
}

/// The highest rate of the ladder whose p99 meets `limit_ms` with no
/// growing backlog, interpolated towards the next rate up by how far
/// its p99 stays under the limit. `steps` is the whole ladder, ascending;
/// a slow step below the highest good one does not count against it.
pub fn max_rate(steps: &[Step], limit_ms: f64) -> f64 {
    let Some(h) = steps.iter().rposition(|s| s.meets(limit_ms)) else {
        return 0.0;
    };
    let (good, p0) = (steps[h].rate, steps[h].p(0.99));
    match steps.get(h + 1) {
        Some(next) if next.p(0.99) > limit_ms => {
            good + (next.rate - good) * (limit_ms - p0) / (next.p(0.99) - p0)
        }
        // The next rate missed on backlog, or there is none: nothing to
        // interpolate towards.
        _ => good,
    }
}
