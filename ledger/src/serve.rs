//! The `serve_open` workload: an open loop of Full-scale LocusRoute
//! route-requests against `cool_rt::serve::WorkServer`.
//!
//! Arrivals follow a seeded Poisson schedule at a few fixed offered rates,
//! then a rate search finds the highest rate whose p90 latency meets
//! [`LIMIT_US`] without a growing backlog. The limit is on p90, not p99:
//! on a host whose idle CPUs can take milliseconds to wake, the p99 of a
//! fraction of a second is set by those wakeups, not by the server (at a
//! fixed 100k requests/s, the p99 of 0.2 s slices ranged from 41 µs to
//! 5.3 ms while their p90 stayed within 16–68 µs). The generator is the
//! main thread: it spins until the next arrival is due and then submits
//! every request that is due, so a stall delays requests rather than
//! dropping them, and each request is timed from when it was *due*. Every round of 1536 requests routes a fresh request set
//! under fresh ids, and its occupancy must be conserved.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use apps::driver::{locus_params, AppScale};
use apps::serve_adapter::RouteRequestSet;
use cool_rt::serve::{Outcome, Request, ServeConfig, ServeStats, WorkServer};
use workloads::circuit::Circuit;

use crate::report::Report;
use crate::spans::{ns_since, Tracer};
use crate::stats::{interquartile_mean, median, percentile};
use crate::{Args, Setups};

/// Shard domains of the server (one pool).
const DOMAINS: usize = 1;
/// Workers in the pool: with the generator, two busy threads for two CPUs.
const WORKERS: usize = 1;
/// Waiting requests a domain holds before shedding: large, so overload
/// shows as latency, never as refusals.
const QUEUE_CAPACITY: usize = 1 << 20;
/// The fixed offered rates, in requests per second.
pub const FIXED_RATES: [f64; 3] = [25_000.0, 50_000.0, 100_000.0];
/// Seconds of arrivals at each fixed rate.
const FIXED_WINDOW_S: f64 = 0.4;
/// Parts a window's requests are split into (by arrival) for its latency
/// percentiles, which are the median over the parts: one host stall then
/// spoils one part, not the window.
const PARTS: usize = 8;
/// The p90 latency limit of the rate search, in µs.
pub const LIMIT_US: f64 = 250.0;
/// The rate search's interval (requests per second) and bisection steps.
const SEARCH_LO: f64 = 50_000.0;
const SEARCH_HI: f64 = 300_000.0;
const SEARCH_STEPS: usize = 5;
/// Seconds of arrivals per rate-search window.
const SEARCH_WINDOW_S: f64 = 0.35;
/// The latency percentile the limit and the end-to-end tail are on.
const TAIL: f64 = 90.0;
/// Requests whose spans a traced window keeps.
const SPAN_REQUESTS: usize = 20_000;

/// One scheduled arrival: when it is due (ns after the window starts) and
/// which request of its round it carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Due time, ns after the window's start.
    pub due_ns: u64,
    /// Request index within the round's request set.
    pub req: u32,
}

/// SplitMix64: the deterministic stream behind the schedule.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// `n` Poisson arrivals at `rate` per second; each round of `nreq`
/// consecutive arrivals carries every request once, in a seeded order.
pub fn schedule(seed: u64, rate: f64, n: usize, nreq: usize) -> Vec<Arrival> {
    let mut gaps = seed ^ 0x0A11_71AE_5EED_0001;
    let mut order = seed.rotate_left(29) ^ 0x0BDE_5EED_0002;
    let mut perm: Vec<u32> = Vec::new();
    let mut t = 0.0f64;
    (0..n)
        .map(|k| {
            if k % nreq == 0 {
                perm = (0..nreq as u32).collect();
                for i in (1..nreq).rev() {
                    let j = (splitmix(&mut order) % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
            }
            t += -(1.0 - unit(&mut gaps)).ln() / rate;
            Arrival {
                due_ns: (t * 1e9) as u64,
                req: perm[k % nreq],
            }
        })
        .collect()
}

/// How many arrivals from `next` on are due at `now_ns` (window-relative):
/// the batch one wakeup of the generator sends.
pub fn due_now(arrivals: &[Arrival], next: usize, now_ns: u64) -> usize {
    arrivals[next..]
        .iter()
        .take_while(|a| a.due_ns <= now_ns)
        .count()
}

/// `to - from` per request, in µs (0 where `to` precedes `from`).
pub fn stage_us(from_ns: &[u64], to_ns: &[u64]) -> Vec<f64> {
    from_ns
        .iter()
        .zip(to_ns)
        .map(|(&a, &b)| b.saturating_sub(a) as f64 * 1e-3)
        .collect()
}

/// Percentile `p` of each of `parts` consecutive slices of `samples`, and
/// the median of those.
pub fn part_percentile(samples: &[f64], parts: usize, p: f64) -> f64 {
    let size = samples.len().div_ceil(parts).max(1);
    let each: Vec<f64> = samples.chunks(size).map(|c| percentile(c, p)).collect();
    median(&each)
}

/// Rate search between `lo` and `hi` (requests per second): `None` if `lo`
/// misses, `hi` if it is met, otherwise `steps` geometric bisections of the
/// interval. Calls `meets` at most `steps + 2` times.
pub fn search(lo: f64, hi: f64, steps: usize, mut meets: impl FnMut(f64) -> bool) -> Option<f64> {
    if !meets(lo) {
        return None;
    }
    if meets(hi) {
        return Some(hi);
    }
    let (mut met, mut missed) = (lo, hi);
    for _ in 0..steps {
        let mid = (met * missed).sqrt();
        if meets(mid) {
            met = mid;
        } else {
            missed = mid;
        }
    }
    Some(met)
}

/// Per-request timestamps of one window, ns since the run's epoch.
struct Stamps {
    due: Vec<u64>,
    submit_start: Vec<u64>,
    submit_ret: Vec<u64>,
    /// Body start and end, written by the pool worker.
    body: Arc<Vec<[AtomicU64; 2]>>,
}

/// One window's results.
struct Window {
    rate: f64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    queue_us: Vec<f64>,
    body_us: Vec<f64>,
    /// Requests admitted but unfinished when the last one was sent.
    backlog: usize,
    /// Seconds from the first due time to the last.
    span_s: f64,
    stats: ServeStats,
}

impl Window {
    /// Latency percentile `p` in µs: the median over the window's parts.
    fn p(&self, p: f64) -> f64 {
        part_percentile(&self.latency_us, PARTS, p)
    }

    /// The limit is met at this rate: the tail within it, and the backlog
    /// no larger than the limit lets a steady queue be.
    fn meets_limit(&self) -> bool {
        let steady = (2.0 * self.rate * LIMIT_US * 1e-6).max(32.0);
        self.p(TAIL) <= LIMIT_US && (self.backlog as f64) <= steady
    }

    /// Requests finished within the limit, per second of arrivals.
    fn goodput(&self) -> f64 {
        self.latency_us.iter().filter(|&&l| l <= LIMIT_US).count() as f64 / self.span_s
    }
}

/// The request stream: the circuit and the ids and seeds used so far.
struct Load {
    circuit: Circuit,
    nreq: usize,
    epoch: Instant,
    next_id: u64,
    windows: u64,
    seed: u64,
}

/// A server of the benchmark's shape.
fn server() -> WorkServer {
    WorkServer::new(ServeConfig::new(DOMAINS, WORKERS).with_capacity(QUEUE_CAPACITY))
}

impl Load {
    fn new(circuit: Circuit, seed: u64) -> Self {
        Load {
            nreq: circuit.nets.len(),
            circuit,
            epoch: Instant::now(),
            next_id: 0,
            windows: 0,
            seed,
        }
    }

    /// Offer `rate` for `secs` seconds of arrivals to a fresh server, drain
    /// it, and check every request ran exactly once and every round
    /// conserved its occupancy. Requests and stamps are built before the
    /// first arrival, so the generator only stamps and submits.
    fn window(&mut self, rate: f64, secs: f64, rep: &mut Report) -> (Window, Stamps) {
        self.windows += 1;
        let n = ((rate * secs).round() as usize).max(1);
        let arrivals = schedule(
            self.seed.wrapping_add(self.windows << 32),
            rate,
            n,
            self.nreq,
        );
        let sets: Vec<RouteRequestSet> = (0..n.div_ceil(self.nreq))
            .map(|_| RouteRequestSet::from_circuit(self.circuit.clone()))
            .collect();
        let body: Arc<Vec<[AtomicU64; 2]>> = Arc::new(
            (0..n)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
        );
        let first_id = self.next_id;
        self.next_id += n as u64;
        let mut requests: Vec<Option<Request>> = arrivals
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let (set, i) = (&sets[k / self.nreq], a.req as usize);
                let inner = set.request_body(i);
                let (stamps, epoch) = (body.clone(), self.epoch);
                Some(Request::new(
                    first_id + k as u64,
                    set.shard_of(i),
                    set.cost_units(i),
                    move |attempt| {
                        stamps[k][0].store(ns_since(epoch), Ordering::Relaxed);
                        let r = inner(attempt);
                        stamps[k][1].store(ns_since(epoch), Ordering::Release);
                        r
                    },
                ))
            })
            .collect();
        let mut st = Stamps {
            due: vec![0; n],
            submit_start: vec![0; n],
            submit_ret: vec![0; n],
            body: body.clone(),
        };
        let mut admitted = vec![false; n];
        let server = server();

        // Open loop: spin until the next arrival is due, then send every
        // request that is due.
        let t0 = ns_since(self.epoch) + 1_000_000;
        let mut k = 0;
        while k < n {
            let batch = due_now(&arrivals, k, ns_since(self.epoch).saturating_sub(t0));
            if batch == 0 {
                std::hint::spin_loop();
                continue;
            }
            for k in k..k + batch {
                let req = requests[k].take().expect("each request is sent once");
                st.due[k] = t0 + arrivals[k].due_ns;
                st.submit_start[k] = ns_since(self.epoch);
                let submitted = server.submit(req);
                st.submit_ret[k] = ns_since(self.epoch);
                admitted[k] = submitted.is_ok();
                rep.attempt(
                    submitted
                        .err()
                        .map(|e| format!("request {} refused: {e}", first_id + k as u64)),
                );
            }
            k += batch;
        }
        let backlog = server.outstanding();
        server.drain();

        let outcomes = server.outcomes();
        for (k, _) in admitted.iter().enumerate().filter(|(_, &ok)| ok) {
            let id = first_id + k as u64;
            let problem = match outcomes.get(&id) {
                None => Some("has no record".to_string()),
                Some(r) if r.body_successes != 1 => {
                    Some(format!("succeeded {} times", r.body_successes))
                }
                Some(r) => match &r.outcome {
                    Some(Outcome::Completed { .. }) => None,
                    other => Some(format!("ended {other:?}")),
                },
            };
            if let Some(p) = problem {
                rep.fail(format!("request {id} {p}"));
            }
        }
        for (round, set) in sets.iter().enumerate() {
            let done: Vec<usize> = (round * self.nreq..((round + 1) * self.nreq).min(n))
                .filter(|&k| admitted[k])
                .map(|k| arrivals[k].req as usize)
                .collect();
            if let Err(e) = set.verify_conservation(&done) {
                rep.fail(format!("round {round} not conserved: {e}"));
            }
        }
        let start: Vec<u64> = body.iter().map(|b| b[0].load(Ordering::Relaxed)).collect();
        let end: Vec<u64> = body.iter().map(|b| b[1].load(Ordering::Acquire)).collect();
        let w = Window {
            rate,
            latency_us: stage_us(&st.due, &end),
            late_us: stage_us(&st.due, &st.submit_start),
            submit_us: stage_us(&st.submit_start, &st.submit_ret),
            queue_us: stage_us(&st.submit_ret, &start),
            body_us: stage_us(&start, &end),
            backlog,
            span_s: arrivals[n - 1].due_ns.max(1) as f64 * 1e-9,
            stats: server.stats(),
        };
        (w, st)
    }
}

/// Keep the spans of the first [`SPAN_REQUESTS`] requests of a window.
fn record_spans(tracer: &mut Tracer, st: &Stamps) {
    for k in 0..st.due.len().min(SPAN_REQUESTS) {
        let (start, end) = (
            st.body[k][0].load(Ordering::Relaxed),
            st.body[k][1].load(Ordering::Relaxed),
        );
        let req = tracer.record("serve.request", None, st.due[k], end);
        tracer.record("serve.gen_late", req, st.due[k], st.submit_start[k]);
        tracer.record("serve.submit", req, st.submit_start[k], st.submit_ret[k]);
        tracer.record("serve.queue", req, st.submit_ret[k], start);
        tracer.record("serve.body", req, start, end);
    }
}

/// The serve set-up: build the circuit and start a server. Stopping the
/// server (joining its worker) happens when the caller drops it, outside
/// the timing.
fn serve_setup() -> Result<(Circuit, f64, WorkServer), String> {
    let t = Instant::now();
    let circuit = locus_params(AppScale::Full).circuit;
    let gen_s = t.elapsed().as_secs_f64();
    Ok((circuit, gen_s, server()))
}

/// Run `serve_open` for `args.seconds` (whole rounds, at least one).
pub fn run(args: &Args, rep: &mut Report) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(args.trace);
    let mut setups = Setups::new();
    let (circuit, gen_s, started_server) = setups.sample(serve_setup)?;
    drop(started_server);
    rep.set("workloads.gen_s", gen_s);
    let mut load = Load::new(circuit, args.seed);
    rep.note(format!(
        "{} route-requests per round, {DOMAINS} domain x {WORKERS} worker, seed {} drives arrivals and request order, p{TAIL} limit {LIMIT_US} us",
        load.nreq, args.seed
    ));

    // Rounds of [each fixed rate, one rate search] until the time is spent.
    // The host's speed drifts in phases a fraction of a second long, so each
    // figure is the interquartile mean over the rounds' windows.
    let started = Instant::now();
    let mut at_rate: Vec<Vec<[f64; 6]>> = vec![Vec::new(); FIXED_RATES.len()];
    let mut found = Vec::new();
    loop {
        let round = Instant::now();
        for (i, &rate) in FIXED_RATES.iter().enumerate() {
            let (w, _) = load.window(rate, FIXED_WINDOW_S, rep);
            let late = percentile(&w.late_us, 99.0);
            at_rate[i].push([
                w.p(50.0),
                w.p(TAIL),
                w.p(99.0),
                w.goodput(),
                late,
                interquartile_mean(&w.latency_us),
            ]);
        }
        let best = search(SEARCH_LO, SEARCH_HI, SEARCH_STEPS, |rate| {
            load.window(rate, SEARCH_WINDOW_S, rep).0.meets_limit()
        });
        found.push(best.unwrap_or(0.0));
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + round.elapsed().as_secs_f64() > args.seconds as f64 {
            break;
        }
    }
    let mean = |i: usize, field: usize| {
        interquartile_mean(&at_rate[i].iter().map(|v| v[field]).collect::<Vec<_>>())
    };
    for (i, rate) in FIXED_RATES.iter().enumerate() {
        rep.line(&format!("serve_p50_us@{rate}"), mean(i, 0), "us");
        rep.line(&format!("serve_p{TAIL}_us@{rate}"), mean(i, 1), "us");
        rep.line(&format!("serve_p99_us@{rate}"), mean(i, 2), "us");
    }
    let last = FIXED_RATES.len() - 1;
    rep.line("serve_goodput_rps", mean(last, 3), "1/s");
    rep.line("bench.gen_late_us_p99", mean(last, 4), "us");
    let max_rps = interquartile_mean(&found);
    rep.line("serve_max_rps", max_rps, "1/s");
    rep.note(format!(
        "{} rounds; rate searches found {found:?}",
        found.len()
    ));
    if found.iter().all(|&r| r == 0.0) {
        rep.fail(format!("no rate met the {LIMIT_US} us p{TAIL} limit"));
    }
    setups.sample(serve_setup)?;
    rep.set("setup_s", setups.seconds());
    rep.set("op_iqm_ms", mean(last, 5) * 1e-3);
    rep.set("op_tail_ms", mean(last, 1) * 1e-3);
    rep.set("work_per_s", max_rps);

    if args.trace {
        let p50 = traced_window(&mut load, &mut tracer, rep);
        rep.set("bench.trace_overhead_frac", p50 / mean(last, 0) - 1.0);
    }
    Ok(tracer)
}

/// One window at the top fixed rate, keeping the spans of its first
/// requests and reporting the serve layer's per-layer metrics. Returns the
/// window's p50 latency in µs.
fn traced_window(load: &mut Load, tracer: &mut Tracer, rep: &mut Report) -> f64 {
    let (w, st) = load.window(FIXED_RATES[FIXED_RATES.len() - 1], FIXED_WINDOW_S, rep);
    record_spans(tracer, &st);
    rep.set("cool-rt.serve.submit_us_p50", median(&w.submit_us));
    rep.set(
        "cool-rt.serve.submit_us_p99",
        percentile(&w.submit_us, 99.0),
    );
    rep.set("cool-rt.serve.queue_us_p50", median(&w.queue_us));
    rep.set("cool-rt.serve.queue_us_p99", percentile(&w.queue_us, 99.0));
    rep.set("apps.route_body_us_p50", median(&w.body_us));
    rep.set("apps.route_body_us_p99", percentile(&w.body_us, 99.0));
    rep.set("bench.gen_late_us_p99", percentile(&w.late_us, 99.0));
    rep.set("cool-rt.serve.admitted", w.stats.admitted as f64);
    rep.set("cool-rt.serve.shed", w.stats.shed as f64);
    rep.set("cool-rt.serve.retries", w.stats.retries as f64);
    rep.set("cool-rt.serve.attempts", w.stats.attempts as f64);
    w.p(50.0)
}

/// The serve layer's per-layer metrics for another workload's traced run:
/// a fresh request stream, one traced window at the top fixed rate.
pub fn trace_layer(seed: u64, tracer: &mut Tracer, rep: &mut Report) {
    let mut load = Load::new(locus_params(AppScale::Full).circuit, seed);
    let p50 = traced_window(&mut load, tracer, rep);
    let rate = FIXED_RATES[FIXED_RATES.len() - 1];
    rep.line(&format!("serve_p50_us@{rate}"), p50, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = schedule(7, 10_000.0, 5000, 1536);
        assert_eq!(a, schedule(7, 10_000.0, 5000, 1536));
        assert_ne!(a, schedule(8, 10_000.0, 5000, 1536));
        // Due times ascend, and the mean gap is about 1 / rate.
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let mean_gap_us = a[4999].due_ns as f64 / 5000.0 / 1e3;
        assert!((mean_gap_us - 100.0).abs() < 10.0, "{mean_gap_us}");
        // Each round carries every request exactly once.
        let mut round: Vec<u32> = a[..1536].iter().map(|x| x.req).collect();
        round.sort_unstable();
        assert_eq!(round, (0..1536).collect::<Vec<u32>>());
    }

    #[test]
    fn a_wakeup_sends_everything_due_and_lateness_counts_the_wait() {
        let arr: Vec<Arrival> = [10, 20, 30, 100]
            .iter()
            .map(|&d| Arrival { due_ns: d, req: 0 })
            .collect();
        assert_eq!(due_now(&arr, 0, 5), 0);
        // A generator that wakes late at t=35 sends the three overdue ones.
        assert_eq!(due_now(&arr, 0, 35), 3);
        assert_eq!(due_now(&arr, 3, 35), 0);
        assert_eq!(due_now(&arr, 3, 100), 1);
        let due = [10, 20, 30];
        let sent = [35_000, 35_000, 35_000];
        let late_ns: Vec<u64> = stage_us(&due, &sent)
            .iter()
            .map(|us| (us * 1e3).round() as u64)
            .collect();
        assert_eq!(late_ns, vec![34_990, 34_980, 34_970]);
        // A stage that (by clock granularity) ends before it starts is 0.
        assert_eq!(stage_us(&[50], &[40]), vec![0.0]);
    }

    #[test]
    fn rate_search_terminates() {
        let mut calls = 0;
        assert_eq!(
            search(1.0, 64.0, 5, |_| {
                calls += 1;
                true
            }),
            Some(64.0)
        );
        assert_eq!(calls, 2, "an interval met at its top stops there");
        calls = 0;
        assert_eq!(
            search(1.0, 64.0, 5, |_| {
                calls += 1;
                false
            }),
            None
        );
        assert_eq!(calls, 1);
        calls = 0;
        let best = search(1.0, 64.0, 6, |r| {
            calls += 1;
            r <= 5.0
        })
        .unwrap();
        assert!(best > 4.0 && best <= 5.0, "{best}");
        assert_eq!(calls, 2 + 6);
    }

    #[test]
    fn the_limit_needs_both_latency_and_a_steady_backlog() {
        let w = |p99: f64, backlog: usize| Window {
            rate: 10_000.0,
            latency_us: vec![p99; 100],
            late_us: vec![],
            submit_us: vec![],
            queue_us: vec![],
            body_us: vec![],
            backlog,
            span_s: 1.0,
            stats: ServeStats::default(),
        };
        assert!(w(LIMIT_US, 0).meets_limit());
        // One spoiled part of four leaves the median part within the limit.
        let mut spoiled = w(10.0, 0);
        spoiled.latency_us[..25].fill(LIMIT_US * 9.0);
        assert!(spoiled.meets_limit());
        assert_eq!(part_percentile(&[1.0, 2.0, 3.0, 100.0], 4, 99.0), 2.0);
        assert!(!w(LIMIT_US + 1.0, 0).meets_limit());
        assert!(!w(10.0, 1000).meets_limit());
        assert_eq!(w(10.0, 0).goodput(), 100.0);
    }
}
