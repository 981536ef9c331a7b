//! Set-up, and one pass of each measured phase over a workload's
//! program set: compile from source, run on the VM, run on the
//! tree-walker. Every pass checks its outputs and returns the work
//! counters that must repeat exactly from pass to pass.

use crate::spans::{SpanId, Spans};
use crate::workloads::{Program, Workload, SERVE_WORKERS};
use jns_core::{Backend, Compiled, Compiler, RunOptions, Stats};
use jns_obs::{TraceBuffer, TraceEvent};
use jns_serve::{Pool, ServeConfig};
use std::hint::black_box;
use std::time::Instant;

/// Events one traced run may buffer; a run that drops any makes its GC
/// pause total an undercount, which the benchmark reports as a failure.
const TRACE_CAP: usize = 1 << 18;

fn compiler(p: &Program) -> Compiler {
    // `default()`, not `new()`: a `JNS_NURSERY` in the environment must
    // not change what is measured.
    let c = Compiler::default();
    match p.heap {
        Some(h) => c.with_heap_limit(h.limit).with_nursery(h.nursery),
        None => c,
    }
}

fn serve_config(p: &Program) -> ServeConfig {
    ServeConfig {
        workers: SERVE_WORKERS,
        queue_cap: 64,
        heap_limit: p.heap.map(|h| h.limit),
        nursery: p.heap.map(|h| h.nursery),
        ..ServeConfig::default()
    }
}

pub struct Fixtures {
    pub set: Vec<Compiled>,
    pub pool: Pool,
}

/// Builds what the measured phases use: every program of the set
/// compiled to bytecode, and a pool spawned over the served program.
/// Returns the fixtures and the pool's share of the time
/// (`Compiled::shared` plus `Pool::new`), in milliseconds.
pub fn setup(w: &Workload) -> Result<(Fixtures, f64), String> {
    let compile = |p: &Program| -> Result<Compiled, String> {
        let c = compiler(p)
            .compile(&p.src)
            .map_err(|e| format!("{}: {e}", p.name))?;
        c.bytecode();
        Ok(c)
    };
    let set = w.set.iter().map(compile).collect::<Result<Vec<_>, _>>()?;
    let served = compile(&w.serve.program)?;
    let t = Instant::now();
    let pool = Pool::new(&served.shared(), &serve_config(&w.serve.program));
    let pool_ms = t.elapsed().as_secs_f64() * 1e3;
    Ok((Fixtures { set, pool }, pool_ms))
}

/// Front-end work of one pass; the same on every pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CompileCounts {
    pub instrs: u64,
    pub fused: u64,
    pub bytes: u64,
}

/// Compiles every program from source text to bytecode: parse, check
/// (including sharing-constraint verification), lower. Returns the
/// work done and each program's time, ms.
pub fn compile_pass(
    set: &[Program],
    spans: &mut Spans,
    pass: SpanId,
) -> Result<(CompileCounts, Vec<f64>), String> {
    let mut n = CompileCounts::default();
    let mut ms = Vec::with_capacity(set.len());
    for p in set {
        let t = Instant::now();
        let c = spans.open("compile", pass);
        let s = spans.open("parse", c);
        let ast = jns_syntax::parse(&p.src).map_err(|e| format!("{}: {e}", p.name))?;
        spans.close(s);
        let s = spans.open("check", c);
        let checked = jns_types::check_with(&ast, jns_types::CheckOptions::default())
            .map_err(|e| format!("{}: {} type errors", p.name, e.len()))?;
        drop(ast);
        spans.close(s);
        let s = spans.open("lower", c);
        let code = jns_vm::compile_with(&checked, jns_vm::CompileOptions::default());
        spans.close(s);
        n.instrs += code
            .chunks
            .iter()
            .map(|ch| ch.code.len() as u64)
            .sum::<u64>();
        n.fused += code.fused;
        n.bytes += p.src.len() as u64;
        black_box((checked, code));
        spans.close(c);
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((n, ms))
}

/// What one run pass did.
#[derive(Default)]
pub struct RunPass {
    /// Statistics merged over the set (sums; peaks by maximum).
    pub stats: Stats,
    /// Runs that failed or printed the wrong lines.
    pub failed: u64,
    /// Stop-the-world pause time, from the trace's GC events.
    pub gc_pause_us: u64,
    /// Trace events lost to a full buffer.
    pub dropped: u64,
    /// Each program's run time, ms, in set order.
    pub ms: Vec<f64>,
}

/// Runs `main` of every program once on a fresh machine of `backend`
/// (what `jns run` does after compiling), checking each output against
/// `reference`. With `traced`, every run carries a trace buffer and a
/// span named `span`.
pub fn run_pass(
    set: &[Compiled],
    reference: &[Vec<String>],
    backend: Backend,
    traced: bool,
    spans: &mut Spans,
    pass: SpanId,
    span: &'static str,
) -> RunPass {
    let mut r = RunPass::default();
    for (c, want) in set.iter().zip(reference) {
        let opts = RunOptions {
            trace: traced.then(|| TraceBuffer::new(TRACE_CAP)),
            sample_stride: None,
        };
        let s = traced.then(|| spans.open(span, pass));
        let t = Instant::now();
        let out = c.run_with(backend, opts);
        r.ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = s {
            spans.close(s);
        }
        match out {
            Ok(out) => {
                if out.output != *want {
                    r.failed += 1;
                }
                r.stats.merge(&out.stats);
                if let Some(t) = out.trace {
                    r.dropped += t.dropped();
                    r.gc_pause_us += t
                        .events()
                        .iter()
                        .map(|e| match e.event {
                            TraceEvent::Gc { pause_us, .. } => pause_us,
                            _ => 0,
                        })
                        .sum::<u64>();
                }
            }
            Err(_) => r.failed += 1,
        }
    }
    r
}

/// The deterministic work counters of one run pass, by name.
pub fn run_counters(s: &Stats) -> Vec<(&'static str, u64)> {
    vec![
        ("steps", s.steps),
        ("calls", s.calls),
        ("allocs", s.allocs),
        ("views", s.views_explicit + s.views_implicit),
        ("mask_allocs", s.mask_allocs),
        ("ic_misses", s.ic_misses),
        ("quickened", s.quickened),
        ("dequickened", s.dequickened),
        ("gc_minor", s.minor_runs),
        ("gc_major", s.major_runs),
        ("promoted", s.promoted),
        ("reclaimed", s.reclaimed),
        ("barrier_hits", s.barrier_hits),
        ("peak_live", s.peak_live),
    ]
}
