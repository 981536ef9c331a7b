//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds a workload's fixtures, then spends its `--seconds`
//! compiling the workload's programs from source (`compile_ms`), running
//! them on fresh VMs (`vm_run_ms`) and tree-walkers (`tw_run_ms`),
//! building the fixtures again (`setup_s`), and serving the workload's
//! request program open-loop through a two-worker pool (`serve_*`),
//! interleaved. Each timing is the fastest over the run: the sum over
//! programs of each one's fastest run, and the fastest set-up (see
//! [`stat::PerProgram`]); the median and tail are printed beside it.
//! Every output is checked and every deterministic work counter must
//! repeat exactly.
//! With `--trace 1` the same run records spans around each call into a
//! crate and reports per-layer metrics instead.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. Everything before it is the
//! human-readable report, starting with the environment.

mod gen;
mod phases;
mod serve;
mod spans;
mod stat;
mod workloads;

use jns_core::{Backend, Stats};
use jns_obs::Histogram;
use phases::{CompileCounts, Fixtures};
use spans::{Spans, ROOT};
use stat::{summary, PerProgram};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use workloads::Workload;

const USAGE: &str =
    "usage: perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// Set-ups each run makes even when their time share is spent;
/// `setup_s` is the fastest.
const SETUP_REPS: usize = 21;
/// The share of `--seconds` spent setting up, on top of the workload's
/// shares.
const SETUP_SHARE: f64 = 0.02;
/// Passes each timed phase makes even when its time share is spent.
const MIN_PASSES: usize = 20;
/// The share of a traced run's wall time, and of each traced pass, that
/// the spans under it must cover.
const SPAN_COVERAGE_MIN: f64 = 0.98;
/// Serve windows each run makes even when its time share is spent.
const MIN_WINDOWS: usize = 5;
/// Requests per serve window at the nominal rate.
const SERVE_WINDOW: usize = 500;
/// Requests per step of the ladder: enough for the p99 to have ten
/// samples beyond it.
const LADDER_STEP: usize = 1000;
/// Untimed requests per serve worker before the first timed one.
const WARM_UP_PER_WORKER: usize = 32;
/// Where traces and work counters are written, relative to the
/// directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {val}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Where a result was measured; printed with every result so that
/// numbers from different machines are never compared silently.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" profile={profile} os={} arch={}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

/// Peak resident memory of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// A pass timing of one run: the sum over programs of each one's
/// fastest run, with the pass times' median and tail noted beside it.
fn timing(name: &'static str, passes: &[f64], each: &PerProgram) -> Metric {
    Metric {
        note: format!("fastest per program; passes {}", summary(passes).describe()),
        ..metric(name, each.fastest_pass(), "ms")
    }
}

/// Everything one run found: the checks and the measurements.
#[derive(Default)]
struct Run {
    attempted: u64,
    failed: u64,
    /// Why the run is not correct beyond failed operations: counters
    /// that did not repeat, spans that do not cover the run.
    problems: Vec<String>,
    /// Deterministic work counters, `layer.name value`, one per line.
    counters: Vec<(String, u64)>,
    setup_s: Vec<f64>,
    pool_setup_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    compile_per_program: PerProgram,
    compile: CompileCounts,
    vm: Phase,
    tw: Phase,
    /// Serve windows at the nominal rate.
    windows: Vec<serve::Step>,
    /// One serve step per rate of the ladder.
    ladder: Vec<serve::Step>,
    max_rps: f64,
    worker_requests: Vec<u64>,
    queue_high_water: usize,
    submit_blocked: u64,
    span_coverage: f64,
    peak_rss_mb: f64,
}

/// The passes of one run phase.
#[derive(Default)]
struct Phase {
    /// Untraced pass times, ms.
    plain_ms: Vec<f64>,
    /// Untraced run times of each program, ms.
    per_program: PerProgram,
    /// Traced pass times, ms (only with `--trace 1`).
    traced_ms: Vec<f64>,
    /// The first pass; every later one must do the same work.
    first: Option<Stats>,
    gc_pause_us: u64,
    dropped: u64,
}

impl Run {
    /// Records `now` under `label`, or a problem if it differs from the
    /// first value recorded there.
    fn same<T: PartialEq + std::fmt::Debug + Clone>(
        &mut self,
        first: &mut Option<T>,
        now: T,
        label: &str,
    ) {
        match first {
            None => *first = Some(now),
            Some(f) if *f != now => self.problems.push(format!(
                "{label}: work differs between passes: {f:?} then {now:?}"
            )),
            Some(_) => {}
        }
    }
}

fn run(w: &Workload, args: &Args, spans: &mut Spans) -> Result<Run, String> {
    let mut r = Run::default();

    // The first set-up builds the fixtures the run uses; later ones,
    // spread over the run, are timed and thrown away.
    let setup = |r: &mut Run, spans: &mut Spans| -> Result<Fixtures, String> {
        let sp = spans.open("setup", ROOT);
        let t = Instant::now();
        let (fx, pool_ms) = phases::setup(w)?;
        r.setup_s.push(t.elapsed().as_secs_f64());
        spans.close(sp);
        r.pool_setup_ms.push(pool_ms);
        Ok(fx)
    };
    let Fixtures { set, mut pool } = setup(&mut r, spans)?;

    // The tree-walker is the reference: its output, checked against the
    // lines each program is known to print, is what every later run must
    // print. One VM pass warms up and is checked too.
    let sp = spans.open("reference", ROOT);
    let mut reference = Vec::new();
    for (p, c) in w.set.iter().zip(&set) {
        r.attempted += 1;
        let lines = match c.run_on(Backend::TreeWalk) {
            Ok(out) => out.output,
            Err(e) => {
                r.failed += 1;
                eprintln!("{}: runtime error on the tree-walker: {e}", p.name);
                Vec::new()
            }
        };
        if p.prints.as_ref().is_some_and(|want| *want != lines) {
            r.failed += 1;
            eprintln!("{}: printed {lines:?}, expected {:?}", p.name, p.prints);
        }
        reference.push(lines);
    }
    let warm = phases::run_pass(&set, &reference, Backend::Vm, false, spans, sp, "");
    r.attempted += set.len() as u64;
    r.failed += warm.failed;
    spans.close(sp);

    // Serving starts from warm workers: caches fill and lazy tables grow
    // on the first requests each worker runs.
    let plan = &w.serve;
    let want = plan.program.prints.clone().unwrap_or_default();
    let warm = WARM_UP_PER_WORKER * workloads::SERVE_WORKERS;
    let sp = spans.open("serve_warm_up", ROOT);
    let warm_failed = serve::warm_up(&mut pool, warm, 0, &want);
    spans.close(sp);
    r.attempted += warm as u64;
    r.failed += warm_failed?;
    let mut next_id = warm as u64;
    let mut arrivals = gen::Rng::new(args.seed.rotate_left(17) ^ 0xA881);
    let mut serve_step = |r: &mut Run, spans: &mut Spans, rate: f64, n: usize| {
        let sp = spans.open("serve_step", ROOT);
        let step = serve::step(&mut pool, &mut arrivals, rate, n, next_id, &want, spans, sp);
        spans.close(sp);
        next_id += n as u64;
        r.attempted += n as u64;
        step.inspect(|s| r.failed += s.failed)
    };

    // The measured activities: compile from source, run on the VM, run
    // on the tree-walker, serve a window of requests at the nominal
    // rate. One at a time, always the one furthest behind its share of
    // the time, so that the samples of each spread over the whole run
    // and meet the same mix of machine noise. Setting up again is a
    // fifth activity. A traced run alternates traced and untraced run
    // passes; the ratio of their times is the tracing overhead.
    let mut shares = [SETUP_SHARE; 5];
    shares[..4].copy_from_slice(&w.shares);
    let end = Instant::now() + Duration::from_secs_f64(args.seconds * shares.iter().sum::<f64>());
    let mut spent = [0.0, 0.0, 0.0, 0.0, r.setup_s[0] * 1e3];
    let mut compiled = None;
    let mut runs = [(Backend::Vm, 0usize), (Backend::TreeWalk, 0usize)];
    loop {
        let enough = [
            r.compile_ms.len() >= MIN_PASSES,
            r.vm.plain_ms.len() >= MIN_PASSES,
            r.tw.plain_ms.len() >= MIN_PASSES,
            r.windows.len() >= MIN_WINDOWS,
            r.setup_s.len() >= SETUP_REPS,
        ];
        // Past the deadline, only activities short of their minimum run.
        let late = Instant::now() >= end;
        let Some(i) = (0..5)
            .filter(|&a| !(late && enough[a]))
            .min_by(|&a, &b| (spent[a] / shares[a]).total_cmp(&(spent[b] / shares[b])))
        else {
            break;
        };
        let t = Instant::now();
        match i {
            0 => {
                let sp = spans.open("compile_pass", ROOT);
                let res = phases::compile_pass(&w.set, spans, sp);
                r.compile_ms.push(ms_since(t));
                spans.close(sp);
                r.attempted += w.set.len() as u64;
                match res {
                    Ok((n, ms)) => {
                        r.compile_per_program.push(&ms);
                        r.same(&mut compiled, n, "compile");
                    }
                    Err(e) => {
                        r.failed += 1;
                        eprintln!("compile: {e}");
                    }
                }
            }
            1 | 2 => {
                let (backend, n) = &mut runs[i - 1];
                let traced = args.trace && *n % 2 == 0;
                *n += 1;
                let (pass_name, run_name, ph) = match backend {
                    Backend::Vm => ("vm_pass", "vm.run", &mut r.vm),
                    Backend::TreeWalk => ("tw_pass", "tw.run", &mut r.tw),
                };
                let sp = spans.open(if traced { pass_name } else { "plain_pass" }, ROOT);
                let pass =
                    phases::run_pass(&set, &reference, *backend, traced, spans, sp, run_name);
                let ms = ms_since(t);
                spans.close(sp);
                if traced {
                    ph.traced_ms.push(ms);
                    ph.gc_pause_us += pass.gc_pause_us;
                    ph.dropped += pass.dropped;
                } else {
                    ph.plain_ms.push(ms);
                    ph.per_program.push(&pass.ms);
                }
                let now = phases::run_counters(&pass.stats);
                let differs = phases::run_counters(ph.first.get_or_insert(pass.stats)) != now;
                r.attempted += set.len() as u64;
                r.failed += pass.failed;
                if differs {
                    r.problems
                        .push(format!("{pass_name}: work differs between passes"));
                }
            }
            3 => {
                let step = serve_step(&mut r, spans, plan.nominal_rps, SERVE_WINDOW)?;
                r.windows.push(step);
            }
            _ => {
                let fx = setup(&mut r, spans)?;
                let sp = spans.open("teardown", ROOT);
                fx.pool.shutdown();
                drop(fx.set);
                spans.close(sp);
            }
        }
        spent[i] += ms_since(t);
    }
    r.compile = compiled.unwrap_or_default();
    drop(set);

    // Then every rate of the ladder, for the highest that meets the
    // latency limit.
    for &rate in &plan.ladder_rps {
        let step = serve_step(&mut r, spans, rate, LADDER_STEP)?;
        r.ladder.push(step);
    }
    r.max_rps = serve::max_rate(&r.ladder, plan.p99_limit_ms);
    let sp = spans.open("teardown", ROOT);
    let (_, tele) = pool.shutdown_report();
    spans.close(sp);
    r.worker_requests = tele.worker_requests;
    r.queue_high_water = tele.queue_high_water;
    r.submit_blocked = tele.submit_blocked;
    let mut first = None;
    let work: Vec<[u64; 4]> = r
        .windows
        .iter()
        .chain(&r.ladder)
        .flat_map(|s| s.work.clone())
        .collect();
    for wk in work {
        r.same(&mut first, wk, "serve request");
    }

    // The work counters of this run, which must repeat on every run of
    // this build with this seed.
    r.counters.push(("compile.instrs".into(), r.compile.instrs));
    r.counters.push(("compile.fused".into(), r.compile.fused));
    for (layer, ph) in [("vm", &r.vm), ("tw", &r.tw)] {
        for (k, v) in phases::run_counters(&ph.first.unwrap_or_default()) {
            r.counters.push((format!("{layer}.{k}"), v));
        }
    }
    let names = ["steps", "calls", "allocs", "views"];
    for (k, v) in names.iter().zip(first.unwrap_or_default()) {
        r.counters.push((format!("serve.request.{k}"), v));
    }

    r.span_coverage = spans.finish(&["compile_pass", "vm_pass", "tw_pass"]);
    if args.trace {
        if r.span_coverage < SPAN_COVERAGE_MIN {
            r.problems.push(format!(
                "spans cover {:.4} of their parents' time, below {SPAN_COVERAGE_MIN}",
                r.span_coverage
            ));
        }
        if r.vm.dropped + r.tw.dropped > 0 {
            r.problems.push("trace buffers dropped GC events".into());
        }
    }
    r.peak_rss_mb = peak_rss_mb();
    Ok(r)
}

/// The metrics a user sees, which gate regressions.
fn end_to_end(r: &Run) -> Vec<Metric> {
    vec![
        Metric {
            note: format!("fastest; set-ups {}", summary(&r.setup_s).describe()),
            ..metric("setup_s", stat::min(&r.setup_s), "s")
        },
        timing("compile_ms", &r.compile_ms, &r.compile_per_program),
        timing("vm_run_ms", &r.vm.plain_ms, &r.vm.per_program),
        timing("tw_run_ms", &r.tw.plain_ms, &r.tw.per_program),
        metric("peak_rss_mb", r.peak_rss_mb, "MiB"),
    ]
}

/// What serving's users see. Printed by every run, but reported with
/// the per-layer metrics: on a small machine shared with other tenants,
/// latency under load moves with the host far more than with the code.
fn serve_end_to_end(r: &Run, w: &Workload) -> Vec<Metric> {
    // The median latency of each window, then the median over windows,
    // so that one stall of the machine moves one window only.
    let window_p50: Vec<f64> = r.windows.iter().map(|s| s.p(0.5)).collect();
    let mut nominal: Vec<f64> = r
        .windows
        .iter()
        .flat_map(|s| s.latency_ms.clone())
        .collect();
    nominal.sort_by(f64::total_cmp);
    let ladder: Vec<String> = r
        .ladder
        .iter()
        .map(|s| format!("{}:{:.3}", s.rate, s.p(0.99)))
        .collect();
    vec![
        Metric {
            note: format!(
                "median over {} windows of {SERVE_WINDOW} requests at {} req/s",
                r.windows.len(),
                w.serve.nominal_rps
            ),
            ..metric("serve_p50_ms", summary(&window_p50).median, "ms")
        },
        Metric {
            note: format!(
                "over all {} requests at {} req/s",
                nominal.len(),
                w.serve.nominal_rps
            ),
            ..metric("serve_p99_ms", stat::quantile(&nominal, 0.99), "ms")
        },
        Metric {
            note: format!(
                "p99 limit {} ms; rate:p99 {}",
                w.serve.p99_limit_ms,
                ladder.join(" ")
            ),
            ..metric("serve_max_rps", r.max_rps, "1/s")
        },
    ]
}

fn per_layer(r: &Run, spans: &Spans) -> Vec<Metric> {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let median = |xs: &[f64]| summary(xs).median;
    let passes = r.compile_ms.len() as f64;
    let parse = spans.total_ms("parse") / passes;
    let check = spans.total_ms("check") / passes;
    let lower = spans.total_ms("lower") / passes;
    let vm_passes = r.vm.traced_ms.len().max(1) as f64;
    let tw_passes = r.tw.traced_ms.len().max(1) as f64;
    let vm_exec = spans.total_ms("vm.run") / vm_passes;
    let tw_exec = spans.total_ms("tw.run") / tw_passes;
    let vm = r.vm.first.unwrap_or_default();
    let tw = r.tw.first.unwrap_or_default();
    let pause_ms =
        r.vm.gc_pause_us as f64 / vm_passes / 1e3 + r.tw.gc_pause_us as f64 / tw_passes / 1e3;
    let count = |name, v: u64| metric(name, v as f64, "count");
    let (mut lag, mut queue, mut exec) = Default::default();
    for s in &r.windows {
        Histogram::merge(&mut lag, &s.lag);
        Histogram::merge(&mut queue, &s.queue);
        Histogram::merge(&mut exec, &s.exec);
    }
    let hist_ms = |h: &Histogram, p: f64| h.percentile(p) as f64 / 1e3;
    let traced = mean(&r.vm.traced_ms) + mean(&r.tw.traced_ms);
    let plain = mean(&r.vm.plain_ms) + mean(&r.tw.plain_ms);
    let skew = {
        let max = r.worker_requests.iter().max().copied().unwrap_or(0) as f64;
        let min = r.worker_requests.iter().min().copied().unwrap_or(0) as f64;
        max / min.max(1.0)
    };
    vec![
        metric("syntax.parse_ms", parse, "ms"),
        metric(
            "syntax.bytes_per_us",
            r.compile.bytes as f64 / (parse * 1e3),
            "B/us",
        ),
        metric("types.check_ms", check, "ms"),
        metric(
            "types.check_share",
            check / (parse + check + lower),
            "ratio",
        ),
        metric("vm.lower_ms", lower, "ms"),
        count("vm.instrs", r.compile.instrs),
        count("vm.fused", r.compile.fused),
        metric("vm.exec_ms", vm_exec, "ms"),
        count("vm.steps", vm.steps),
        metric(
            "vm.ns_per_step",
            vm_exec * 1e6 / vm.steps.max(1) as f64,
            "ns",
        ),
        count("vm.calls", vm.calls),
        count("vm.views", vm.views_explicit + vm.views_implicit),
        count("vm.mask_allocs", vm.mask_allocs),
        count("vm.ic_misses", vm.ic_misses),
        count("vm.quickened", vm.quickened),
        count("vm.dequickened", vm.dequickened),
        metric("eval.exec_ms", tw_exec, "ms"),
        count("eval.steps", tw.steps),
        metric(
            "eval.ns_per_step",
            tw_exec * 1e6 / tw.steps.max(1) as f64,
            "ns",
        ),
        count("eval.mask_allocs", tw.mask_allocs),
        count("heap.allocs", vm.allocs + tw.allocs),
        count("heap.gc_minor", vm.minor_runs + tw.minor_runs),
        count("heap.gc_major", vm.major_runs + tw.major_runs),
        metric("heap.gc_pause_ms", pause_ms, "ms"),
        metric(
            "heap.gc_pause_share",
            pause_ms / (vm_exec + tw_exec),
            "ratio",
        ),
        count("heap.promoted", vm.promoted + tw.promoted),
        count("heap.reclaimed", vm.reclaimed + tw.reclaimed),
        count("heap.barrier_hits", vm.barrier_hits + tw.barrier_hits),
        count("heap.peak_live", vm.peak_live.max(tw.peak_live)),
        metric("serve.queue_wait_p50_ms", hist_ms(&queue, 50.0), "ms"),
        metric("serve.queue_wait_p99_ms", hist_ms(&queue, 99.0), "ms"),
        metric("serve.exec_p50_ms", hist_ms(&exec, 50.0), "ms"),
        metric("serve.exec_p99_ms", hist_ms(&exec, 99.0), "ms"),
        metric("serve.gen_lag_ms", hist_ms(&lag, 99.0), "ms"),
        count("serve.queue_high_water", r.queue_high_water as u64),
        count("serve.submit_blocked", r.submit_blocked),
        metric("serve.worker_skew", skew, "ratio"),
        metric("serve.pool_setup_ms", median(&r.pool_setup_ms), "ms"),
        metric("obs.trace_overhead_frac", traced / plain - 1.0, "ratio"),
        metric("obs.span_coverage", r.span_coverage, "ratio"),
    ]
}

/// Compares this run's work counters with those an earlier run of the
/// same build and seed left behind, then leaves this run's in their
/// place. Returns a problem if they differ.
fn check_counters(args: &Args, env: &str, counters: &[(String, u64)]) -> Option<String> {
    let exe = std::env::current_exe().and_then(|p| p.metadata()).ok()?;
    let mtime = exe
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?;
    let mut text = format!("# build {} {} | {env}\n", exe.len(), mtime.as_nanos());
    for (k, v) in counters {
        let _ = writeln!(text, "{k} {v}");
    }
    let path = format!("{OUT_DIR}/counters-{}-{}.txt", args.workload, args.seed);
    let before = std::fs::read_to_string(&path).ok();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|_| std::fs::write(&path, &text)) {
        eprintln!("warning: cannot write {path}: {e}");
    }
    let same_build = |b: &str| b.lines().next() == text.lines().next();
    match before {
        Some(b) if same_build(&b) && b != text => Some(format!(
            "work counters differ from the last run recorded in {path}"
        )),
        _ => None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let w = workloads::build(&args.workload, args.seed).expect("workload name was checked");
    let env = environment();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} | {env}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut spans = Spans::new(args.trace);
    let mut r = match run(&w, &args, &mut spans) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Some(p) = check_counters(&args, &env, &r.counters) {
        r.problems.push(p);
    }
    if args.trace {
        let path = format!("{OUT_DIR}/spans-{}-{}.jsonl", args.workload, args.seed);
        let header = format!("{{\"env\":\"{}\"}}\n", env.replace('"', "'"));
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|_| std::fs::write(&path, header + &spans.jsonl()));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }

    let e2e = end_to_end(&r);
    let mut layers = serve_end_to_end(&r, &w);
    if args.trace {
        layers.extend(per_layer(&r, &spans));
    }
    let reported = if args.trace { &layers } else { &e2e };
    for m in e2e.iter().chain(&layers) {
        println!("{:<28} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "{:<28} {:>14.4} {:<6} {} of {} operations",
        "failed_frac",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        r.failed,
        r.attempted
    );
    for (k, v) in &r.counters {
        println!("counter {k} {v}");
    }
    for p in &r.problems {
        println!("problem: {p}");
    }

    let finite = reported.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = r.failed == 0 && r.problems.is_empty() && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}
