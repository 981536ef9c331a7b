//! The four workloads: which programs each compiles and runs, which
//! program it serves, and at what rates. The seed chooses the generated
//! inputs; the sizes are fixed so that cost is comparable across seeds.

use crate::gen::{family_program, Rng, Shape};
use bench::workloads::{lambda_source, retained_churn_program, service_source, vm_dispatch_source};
use jns_core::lambda;
use jns_serve::workload::service_dispatch;

#[path = "../../tests/corpus/mod.rs"]
mod corpus;

/// Workload names. `BENCHMARK.json` lists all but `compile_families`,
/// whose front-end-heavy passes are the most sensitive to a shared
/// machine's neighbours; it stays runnable by hand.
pub const NAMES: [&str; 4] = [
    "compile_families",
    "exec_families",
    "heap_churn",
    "serve_open",
];

/// A heap limit with a nursery: both backends collect generationally.
#[derive(Clone, Copy)]
pub struct HeapBudget {
    pub limit: usize,
    pub nursery: usize,
}

/// One J&s program of a workload.
#[derive(Clone)]
pub struct Program {
    pub name: String,
    pub src: String,
    /// The lines `main` must print. `None` leaves the tree-walker's
    /// output as the only reference.
    pub prints: Option<Vec<String>>,
    pub heap: Option<HeapBudget>,
}

impl Program {
    fn new(name: &str, src: String, prints: Option<Vec<String>>) -> Program {
        Program {
            name: name.to_string(),
            src,
            prints,
            heap: None,
        }
    }

    fn with_heap(mut self, limit: usize, nursery: usize) -> Program {
        self.heap = Some(HeapBudget { limit, nursery });
        self
    }
}

/// An open-loop serving plan: one program replayed per request by a
/// pool of [`SERVE_WORKERS`], at a nominal rate and then up a fixed
/// ladder of rates until the p99 latency limit is missed.
pub struct ServePlan {
    pub program: Program,
    pub nominal_rps: f64,
    /// Rates around the pool's capacity, ascending.
    pub ladder_rps: Vec<f64>,
    pub p99_limit_ms: f64,
}

pub const SERVE_WORKERS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// Programs compiled in set-up, then compiled again and run on both
    /// backends in the measured phases.
    pub set: Vec<Program>,
    pub serve: ServePlan,
    /// Shares of `--seconds` for compiling, running on the VM, running
    /// on the tree-walker, and serving at the nominal rate. The ladder of
    /// rates runs after them.
    pub shares: [f64; 4],
}

fn lines(xs: &[&str]) -> Option<Vec<String>> {
    Some(xs.iter().map(|s| s.to_string()).collect())
}

pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let w = match name {
        "compile_families" => compile_families(&mut rng),
        "exec_families" => exec_families(&mut rng),
        "heap_churn" => heap_churn(&mut rng),
        "serve_open" => serve_open(),
        _ => return None,
    };
    Some(w)
}

fn service_request() -> Program {
    Program::new("service_evolution", service_source(), lines(&["800"]))
}

/// Front-end work: the paper corpus, the two case studies, and seeded
/// family hierarchies. Checking dominates compiling; running them
/// executes few instructions, allocates little and never collects.
fn compile_families(rng: &mut Rng) -> Workload {
    let mut set: Vec<Program> = corpus::PAPER_EXAMPLES
        .iter()
        .chain(corpus::PAPER_FIGURES)
        .map(|(name, src)| Program::new(name, src.to_string(), None))
        .collect();
    set.push(Program::new(
        "lambda_compiler",
        lambda_source(24),
        lines(&["false"]),
    ));
    set.push(service_request());
    for j in 0..GENERATED {
        let shape = Shape {
            derived: 2 + j % 3,
            classes: 3 + (j * 5) % 4,
            composed: j % 2,
        };
        let mut structure = Rng::new(j as u64);
        let (src, prints) = family_program(&mut structure, rng, shape);
        set.push(Program::new(&format!("families_{j}"), src, Some(prints)));
    }
    Workload {
        name: "compile_families",
        set,
        serve: ServePlan {
            program: service_request(),
            nominal_rps: 400.0,
            ladder_rps: vec![800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0],
            p99_limit_ms: 10.0,
        },
        shares: [0.4, 0.08, 0.08, 0.25],
    }
}

/// Generated hierarchies in the `compile_families` set.
const GENERATED: usize = 12;

/// λ translation over a term built at run time by a loop, so the term's
/// size is not in the source: `rounds` times, build an Abs/App spine
/// `2 * depth` deep over a variable and translate it in place.
fn lambda_loop(rng: &mut Rng, rounds: u32, depth: u32) -> Program {
    let names = ["x", "y", "z", "w"];
    let (v, a) = (names[rng.below(4)], names[rng.below(4)]);
    let main_body = format!(
        r#"
  final Hold.H h = new Hold.H {{ t = new pair.Var {{ x = "a" }} }};
  while (h.rounds < {rounds}) {{
    h.t = new pair.Var {{ x = "q" }};
    h.n = 0;
    while (h.n < {depth}) {{
      h.t = new pair.Abs {{ x = "{v}", e = h.t }};
      h.t = new pair.App {{ f = h.t, a = new pair.Var {{ x = "{a}" }} }};
      h.n = h.n + 1;
    }}
    final pair!.Translator tr = new pair.Translator();
    final base!.Exp out = h.t.translate(tr);
    h.reused = h.reused + tr.reusedAbs + tr.reusedApp;
    h.rounds = h.rounds + 1;
  }}
  print h.reused;"#
    );
    let src = format!(
        "{}\nclass Hold {{ class H {{ pair!.Exp t; int n = 0; int rounds = 0; int reused = 0; }} }}\nmain {{\n{main_body}\n}}",
        lambda::families()
    );
    let reused = (2 * rounds * depth).to_string();
    Program::new("lambda_loop", src, Some(vec![reused]))
}

/// What `service_dispatch(packets)` prints: one packet of each kind
/// through the evolved dispatcher, then the packets handled.
fn dispatch_prints(packets: u32) -> Option<Vec<String>> {
    lines(&["[log] handled:x", "echo:y", &(2 * packets + 1).to_string()])
}

fn shuffle<T>(rng: &mut Rng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}

/// Dispatch, inline caches and view changes, with no heap limit. The
/// front end is idle; the heap only serves field reads and writes.
fn exec_families(rng: &mut Rng) -> Workload {
    let mut set = vec![
        Program::new(
            "service_dispatch",
            service_dispatch(EXEC_PACKETS),
            dispatch_prints(EXEC_PACKETS),
        ),
        Program::new(
            "vm_dispatch",
            vm_dispatch_source(EXEC_CALLS),
            lines(&[&EXEC_CALLS.to_string()]),
        ),
        lambda_loop(rng, 2, 400),
    ];
    shuffle(rng, &mut set);
    Workload {
        name: "exec_families",
        set,
        serve: ServePlan {
            program: Program::new(
                "vm_dispatch",
                vm_dispatch_source(SERVE_CALLS),
                lines(&[&SERVE_CALLS.to_string()]),
            ),
            nominal_rps: 400.0,
            ladder_rps: vec![800.0, 1000.0, 1200.0, 1400.0, 1600.0, 1800.0],
            p99_limit_ms: 10.0,
        },
        shares: [0.1, 0.25, 0.25, 0.2],
    }
}

const EXEC_PACKETS: u32 = 1_000;
const EXEC_CALLS: u32 = 30_000;
const SERVE_CALLS: u32 = 2_000;

fn treeadd(rounds: u32, depth: u32) -> Program {
    let src = include_str!("../programs/treeadd.jns")
        .replace("ROUNDS", &rounds.to_string())
        .replace("DEPTH", &depth.to_string());
    let total = u64::from(rounds) * ((1u64 << (depth + 1)) - 1);
    Program::new("treeadd", src, Some(vec![total.to_string()]))
}

/// Allocation and collection under heap limits with the nursery on.
fn heap_churn(rng: &mut Rng) -> Workload {
    let mut set = vec![
        Program::new(
            "retained_churn",
            retained_churn_program(2_000, 20_000),
            lines(&["22000"]),
        )
        .with_heap(2_048, 32),
        treeadd(6, 10).with_heap(4_096, 256),
    ];
    shuffle(rng, &mut set);
    Workload {
        name: "heap_churn",
        set,
        serve: ServePlan {
            program: Program::new(
                "retained_churn",
                retained_churn_program(100, 1_000),
                lines(&["1100"]),
            )
            .with_heap(128, 32),
            nominal_rps: 500.0,
            ladder_rps: vec![1000.0, 1300.0, 1600.0, 1900.0, 2200.0, 2500.0],
            p99_limit_ms: 10.0,
        },
        shares: [0.03, 0.28, 0.28, 0.21],
    }
}

/// The §2.4 service under open-loop Poisson arrivals: queueing, the
/// per-request heap reset and warm worker caches. The seed draws only
/// the arrival times.
fn serve_open() -> Workload {
    let request = || {
        Program::new(
            "service_dispatch",
            service_dispatch(SERVE_PACKETS),
            dispatch_prints(SERVE_PACKETS),
        )
    };
    Workload {
        name: "serve_open",
        set: vec![request()],
        serve: ServePlan {
            program: request(),
            nominal_rps: 600.0,
            ladder_rps: vec![900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0],
            p99_limit_ms: 10.0,
        },
        shares: [0.03, 0.04, 0.04, 0.6],
    }
}

const SERVE_PACKETS: u32 = 200;
