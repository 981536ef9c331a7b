//! Differential coverage for the VM's dispatch engine: superinstruction
//! fusion and the view-keyed inline caches must be *observably free*.
//! Fused and unfused runs produce byte-identical output, values, errors,
//! and semantic statistics over the whole paper corpus — including under
//! a tight heap limit, across random knob combinations (against the
//! tree-walking reference), through a site that turns polymorphic
//! mid-run, and across serve pools of every size.
//!
//! The one intentional difference: fusion collapses instruction pairs,
//! so `Stats::steps` differs between fused and unfused bytecode (it is a
//! property of the compiled program, identical across runs of the same
//! bytecode). Every other counter — calls, allocations, view changes,
//! inline-cache hits and misses, mask allocations — is invariant under
//! every performance knob (fusion, nursery, GC).

use jns_core::{Backend, Compiler, Error};
use jns_eval::RtError;
use jns_obs::{TimedEvent, TraceBuffer, TraceEvent};
use jns_serve::{serve_batch, ServeConfig};
use proptest::prelude::*;

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};

/// The observable result of one run, minus `steps` (see module docs).
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok {
        output: Vec<String>,
        value: String,
        allocs: u64,
        calls: u64,
        views_explicit: u64,
        views_implicit: u64,
    },
    Runtime(RtError),
}

/// Runs `src` on the VM with the given engine knobs.
fn run_vm(src: &str, fuse: bool, heap_limit: Option<usize>) -> Outcome {
    let mut compiler = Compiler::new().with_backend(Backend::Vm).with_fusion(fuse);
    if let Some(l) = heap_limit {
        compiler = compiler.with_heap_limit(l);
    }
    let compiled = compiler.compile(src).expect("corpus program compiles");
    match compiled.run() {
        Ok(out) => Outcome::Ok {
            output: out.output,
            value: format!("{:?}", out.value),
            allocs: out.stats.allocs,
            calls: out.stats.calls,
            views_explicit: out.stats.views_explicit,
            views_implicit: out.stats.views_implicit,
        },
        Err(Error::Runtime(e)) => Outcome::Runtime(e),
        Err(e) => panic!("non-runtime failure: {e}"),
    }
}

fn whole_corpus() -> impl Iterator<Item = (&'static str, &'static str)> {
    PAPER_EXAMPLES.iter().chain(PAPER_FIGURES).copied()
}

/// Fusion on vs off over every corpus program: identical outcomes.
#[test]
fn corpus_engine_on_equals_engine_off() {
    for (name, src) in whole_corpus() {
        let engine = run_vm(src, true, None);
        let generic = run_vm(src, false, None);
        assert_eq!(engine, generic, "[{name}] engine changed behaviour");
    }
}

/// Same equivalence under a tight heap limit: inline caches and the
/// frame pool must survive mark-compact collections.
#[test]
fn corpus_engine_equivalent_under_heap_pressure() {
    for (name, src) in whole_corpus() {
        let engine = run_vm(src, true, Some(8));
        let generic = run_vm(src, false, Some(8));
        assert_eq!(
            engine, generic,
            "[{name}] engine diverges at --heap-limit 8"
        );
    }
}

/// A hot monomorphic loop under allocation churn at `--heap-limit 8`,
/// collected stop-the-world (major compactions) and generationally
/// (minor ones): cache entries hold views, slots and chunk indices,
/// never heap locations, so the warm sites survive every compaction.
/// No site misses between the first and the last collection, the run
/// misses exactly as often as with the collector off, and it stays
/// interpreter-identical.
#[test]
fn warm_ic_sites_survive_compactions() {
    let src = "class W {
                 class Cell {
                   int v = 0;
                   int inc() { this.v = this.v + 1; return this.v; }
                 }
                 class Junk { }
               }
               main {
                 final W.Cell c = new W.Cell();
                 while (c.v < 300) {
                   final W.Junk j = new W.Junk();
                   final int x = c.inc();
                 }
                 print c.v;
               }";
    let gc_off = Compiler::default()
        .with_backend(Backend::Vm)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    assert_eq!(gc_off.stats.gc_runs, 0);
    let tree = Compiler::default()
        .with_heap_limit(8)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    for nursery in [None, Some(4)] {
        let mut compiler = Compiler::default()
            .with_backend(Backend::Vm)
            .with_heap_limit(8);
        if let Some(n) = nursery {
            compiler = compiler.with_nursery(n);
        }
        let vm = compiler
            .compile(src)
            .expect("compiles")
            .run_observed(Backend::Vm, Some(TraceBuffer::new(1 << 16)))
            .expect("runs");
        assert_eq!(vm.output, vec!["300"]);
        let s = vm.stats;
        match nursery {
            None => assert!(s.major_runs > 30, "expected dozens of majors: {s:?}"),
            Some(_) => assert!(s.minor_runs > 30, "expected dozens of minors: {s:?}"),
        }
        assert_eq!(
            s.ic_misses, gc_off.stats.ic_misses,
            "collections must not cost cache misses (nursery {nursery:?})"
        );
        assert_eq!(s.ic_hits, gc_off.stats.ic_hits);
        let trace = vm.trace.expect("trace buffer comes back");
        assert_eq!(trace.dropped(), 0);
        let events = trace.events();
        let is_gc = |e: &TimedEvent| matches!(e.event, TraceEvent::Gc { .. });
        let first_gc = events.iter().position(is_gc).expect("a collection ran");
        let last_gc = events.iter().rposition(is_gc).expect("a collection ran");
        let late_misses: Vec<_> = events[first_gc..=last_gc]
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::IcMiss { .. }))
            .collect();
        assert!(
            late_misses.is_empty(),
            "warm sites missed between collections: {late_misses:?}"
        );
        assert_eq!(tree.output, vm.output);
        assert_eq!(tree.stats.allocs, s.allocs);
        assert_eq!(tree.stats.calls, s.calls);
    }
}

/// A call site runs hot on one view, then the receiver is re-viewed into
/// a sharing partner: the site turns polymorphic, its cache grows to two
/// entries (one miss per view), and late binding picks the partner's
/// override — interpreter-identically.
#[test]
fn polymorphic_site_grows_its_cache_to_two_entries() {
    let src = "class Fam {
                 class C {
                   int v = 0;
                   int tag() { return 1; }
                 }
               }
               class Fam2 extends Fam {
                 class C shares Fam.C {
                   int tag() { return 2; }
                 }
               }
               class H {
                 Fam.C t;
                 int n = 0;
                 int go() { return this.t.tag(); }
               }
               main {
                 final Fam!.C c = new Fam.C();
                 final H h = new H { t = c };
                 while (h.n < 40) {
                   final int a = h.go();
                   h.n = h.n + 1;
                 }
                 final Fam2!.C d = (view Fam2!.C)c;
                 h.t = d;
                 print h.go();
                 h.t = c;
                 print h.go();
                 print h.n;
               }";
    let vm = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    // Late binding through the *view*: the re-viewed receiver dispatches
    // to Fam2's override, and back.
    assert_eq!(vm.output, vec!["2", "1", "40"]);
    let tag_sites: Vec<_> = vm
        .ic_profile
        .iter()
        .filter(|p| p.kind == "call" && p.name.starts_with("H.go+") && p.name.ends_with(" tag"))
        .collect();
    assert_eq!(
        tag_sites.len(),
        1,
        "one `tag` call site in H.go: {tag_sites:?}"
    );
    let site = tag_sites[0];
    assert_eq!(site.entries, 2, "the site caches both views: {site:?}");
    assert_eq!(site.misses, 2, "one miss per view: {site:?}");
    assert_eq!(site.hits + site.misses, 42, "40 loop calls + 2: {site:?}");
    let tree = Compiler::new()
        .compile(src)
        .expect("compiles")
        .run()
        .expect("runs");
    assert_eq!(tree.output, vm.output);
    assert_eq!(tree.stats.calls, vm.stats.calls);
}

/// The counters that must not depend on any performance knob.
type KnobFreeCounters = (u64, u64, u64, u64, u64, u64, u64);

fn knob_free(s: &jns_eval::Stats) -> KnobFreeCounters {
    (
        s.calls,
        s.allocs,
        s.views_explicit,
        s.views_implicit,
        s.ic_hits,
        s.ic_misses,
        s.mask_allocs,
    )
}

/// Counter invariance: over the runnable corpus, `calls`, `allocs`,
/// `views_*`, `ic_hits`, `ic_misses` and `mask_allocs` are identical
/// with fusion on and off, with the collector off, stop-the-world, and
/// generational — on each backend. Only `steps` (fusion) and the GC
/// counters may move.
#[test]
fn counters_are_invariant_across_perf_knobs() {
    let gc_modes: [(Option<usize>, Option<usize>); 3] =
        [(None, None), (Some(8), None), (Some(8), Some(2))];
    for (name, src) in whole_corpus() {
        for backend in [Backend::Vm, Backend::TreeWalk] {
            let fuse_modes: &[bool] = match backend {
                Backend::Vm => &[true, false],
                Backend::TreeWalk => &[true],
            };
            let mut reference: Option<Result<KnobFreeCounters, String>> = None;
            for &fuse in fuse_modes {
                for (limit, nursery) in gc_modes {
                    let mut c = Compiler::default().with_fusion(fuse);
                    if let Some(l) = limit {
                        c = c.with_heap_limit(l);
                    }
                    if let Some(n) = nursery {
                        c = c.with_nursery(n);
                    }
                    let got = c
                        .compile(src)
                        .expect("corpus program compiles")
                        .run_on(backend)
                        .map(|out| knob_free(&out.stats))
                        .map_err(|e| e.to_string());
                    match &reference {
                        None => reference = Some(got),
                        Some(want) => assert_eq!(
                            want, &got,
                            "[{name}] {backend:?} counters moved with fuse={fuse} \
                             limit={limit:?} nursery={nursery:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// The `vm_dispatch` loop makes five inline-cache accesses per iteration
/// (see `bench::workloads::vm_dispatch_source`), plus the failing loop
/// test and the final `print o.v`: every access is counted as a hit or a
/// miss, whatever the engine settings.
#[test]
fn vm_dispatch_counts_every_ic_access() {
    let src = bench::workloads::vm_dispatch_source(1000);
    for fuse in [true, false] {
        let out = Compiler::default()
            .with_backend(Backend::Vm)
            .with_fusion(fuse)
            .compile(&src)
            .expect("compiles")
            .run()
            .expect("runs");
        assert_eq!(out.output, vec!["1000"]);
        assert_eq!(
            out.stats.ic_hits + out.stats.ic_misses,
            5 * 1000 + 2,
            "fuse={fuse}: {:?}",
            out.stats
        );
        assert_eq!(out.stats.ic_misses, 6, "one miss per site: {:?}", out.stats);
    }
}

/// Serve determinism across pool sizes and engine settings: every worker
/// warms its own caches and mask pool, so 1-, 2-, and 8-worker pools —
/// fusion on or off — produce identical responses and identical
/// aggregate semantic statistics (apart from `steps`, which fusion
/// changes).
#[test]
fn serve_pools_agree_across_engine_settings() {
    type PoolFingerprint = (Vec<String>, (u64, u64, u64, u64));
    let src = jns_serve::workload::service_dispatch(12);
    let requests = 24;
    let mut reference: Option<PoolFingerprint> = None;
    for fuse in [true, false] {
        let compiled = Compiler::new()
            .with_backend(Backend::Vm)
            .with_fusion(fuse)
            .compile(&src)
            .expect("serve workload compiles");
        let mut steps: Option<u64> = None;
        for workers in [1usize, 2, 8] {
            let cfg = ServeConfig {
                workers,
                queue_cap: 8,
                ..ServeConfig::default()
            };
            let report = serve_batch(&compiled, &cfg, requests);
            assert!(report.uniform(), "responses diverged within the pool");
            let first = report.responses.first().expect("responses");
            assert!(first.is_ok(), "request failed: {:?}", first.error);
            let (pool_steps, allocs, views_explicit, views_implicit, calls) =
                report.aggregate.semantic();
            let got = (
                first.output.clone(),
                (allocs, views_explicit, views_implicit, calls),
            );
            match &reference {
                None => reference = Some(got),
                Some(want) => assert_eq!(
                    want, &got,
                    "pool of {workers} workers (fuse={fuse}) diverged"
                ),
            }
            assert_eq!(
                *steps.get_or_insert(pool_steps),
                pool_steps,
                "pool of {workers} workers (fuse={fuse}) retired different steps"
            );
        }
    }
}

/// A looping program whose sites run hot and fuse, with a mid-program
/// view change that turns them polymorphic: the stress shape for random
/// knobs.
fn knobs_program(iters: u32) -> String {
    format!(
        "class Fam {{
           class C {{
             int v = 0;
             int inc() {{ this.v = this.v + 2; return this.v; }}
             int tag() {{ return 1; }}
           }}
         }}
         class Fam2 extends Fam {{
           class C shares Fam.C {{
             int tag() {{ return 2; }}
           }}
         }}
         main {{
           final Fam!.C o = new Fam.C();
           while (o.v < {iters}) {{
             final int x = o.inc();
           }}
           print o.v;
           print o.tag();
           final Fam2!.C w = (view Fam2!.C)o;
           print w.tag();
           print o == w;
           while (w.v < {iters} + 20) {{
             final int y = w.inc();
           }}
           print w.v;
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fuse/depth/heap-limit combinations never diverge from the
    /// tree-walking reference interpreter.
    #[test]
    fn random_knobs_match_tree_walker(
        iters in 1u32..80,
        fuse in any::<bool>(),
        heap_limit in (0usize..72).prop_map(|v| if v < 12 { None } else { Some(v.max(16)) }),
        max_depth in (0u32..72).prop_map(|v| if v < 12 { None } else { Some(v.max(3)) }),
    ) {
        let src = knobs_program(iters * 2);
        let mut vm_compiler = Compiler::new()
            .with_backend(Backend::Vm)
            .with_fusion(fuse);
        let mut tree_compiler = Compiler::new();
        if let Some(l) = heap_limit {
            vm_compiler = vm_compiler.with_heap_limit(l);
            tree_compiler = tree_compiler.with_heap_limit(l);
        }
        if let Some(d) = max_depth {
            vm_compiler = vm_compiler.with_max_depth(d);
            tree_compiler = tree_compiler.with_max_depth(d);
        }
        let vm = vm_compiler.compile(&src).expect("compiles").run();
        let tree = tree_compiler.compile(&src).expect("compiles").run();
        match (tree, vm) {
            (Ok(t), Ok(v)) => {
                prop_assert_eq!(&t.output, &v.output, "outputs diverge on\n{}", src);
                prop_assert_eq!(format!("{:?}", t.value), format!("{:?}", v.value));
                prop_assert_eq!(t.stats.allocs, v.stats.allocs);
                prop_assert_eq!(t.stats.calls, v.stats.calls);
                prop_assert_eq!(t.stats.views_explicit, v.stats.views_explicit);
                prop_assert_eq!(t.stats.views_implicit, v.stats.views_implicit);
            }
            (Err(Error::Runtime(te)), Err(Error::Runtime(ve))) => {
                prop_assert_eq!(te.to_string(), ve.to_string(), "errors diverge on\n{}", src);
            }
            (t, v) => {
                panic!("one backend failed: tree={t:?} vm={v:?}\n{src}");
            }
        }
    }
}
