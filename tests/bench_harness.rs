//! The performance-trajectory harness, end to end through the real
//! binaries (`jns`, `obs-check`):
//!
//! - **The regression gate sees planted regressions.** `jns bench
//!   --compare` exits 0 on identical documents, 2 when a benchmark's
//!   samples are scaled far past tolerance, and 1 on malformed input —
//!   the three-way protocol CI's warn-vs-fail logic relies on.
//! - **`bench --suite serve` emits a valid `jns-bench/2` suite** that
//!   `obs-check bench` accepts, with one entry per pool arm and the
//!   speedup as an extra key.
//! - **Dropped trace events surface.** A serve run whose per-worker
//!   trace buffers are too small reports a non-zero drop count in its
//!   telemetry instead of failing silently.

use jns_core::{Backend, Compiler};
use jns_obs::{BenchDoc, BenchEntry, Json};
use jns_serve::{serve_batch, ServeConfig};
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jns-bench-harness-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn write_doc(dir: &std::path::Path, name: &str, samples: &[u64]) -> PathBuf {
    let mut doc = BenchDoc::new("vm", samples.len() as u32, 1);
    doc.benchmarks.push(BenchEntry {
        name: "lambda_translate/vm".into(),
        unit: "us",
        workload: "lambda".into(),
        backend: "vm".into(),
        samples: samples.to_vec(),
    });
    let path = dir.join(name);
    std::fs::write(&path, doc.to_json() + "\n").expect("write doc");
    path
}

fn compare(old: &std::path::Path, new: &std::path::Path) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_jns"))
        .args(["bench", "--compare"])
        .arg(old)
        .arg(new)
        .output()
        .expect("spawn jns")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn compare_gate_distinguishes_clean_regressed_and_malformed() {
    let dir = temp_dir("gate");
    let base = write_doc(&dir, "base.json", &[1000, 1010, 990, 1000, 1005]);
    // Within the 25% band plus noise: clean.
    let wobble = write_doc(&dir, "wobble.json", &[1100, 1110, 1090, 1100, 1105]);
    // A planted 3× slowdown: far past any tolerance.
    let slow = write_doc(&dir, "slow.json", &[3000, 3030, 2970, 3000, 3015]);
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "not json\n").expect("write");

    assert_eq!(compare(&base, &base), 0, "identical documents are clean");
    assert_eq!(compare(&base, &wobble), 0, "noise stays under the band");
    assert_eq!(compare(&base, &slow), 2, "planted regression must gate");
    assert_eq!(compare(&slow, &base), 0, "improvements never gate");
    assert_eq!(compare(&base, &garbage), 1, "malformed input is an error");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_suite_emits_valid_v2_suite() {
    let dir = temp_dir("serve");
    let status = Command::new(env!("CARGO_BIN_EXE_jns"))
        .args([
            "bench", "--suite", "serve", "--repeat", "2", "--warmup", "0",
        ])
        .arg("--out-dir")
        .arg(&dir)
        .status()
        .expect("spawn jns");
    assert!(status.success(), "bench --suite serve must succeed");
    let out = dir.join("BENCH_serve.json");

    let check = Command::new(env!("CARGO_BIN_EXE_obs-check"))
        .arg("bench")
        .arg(&out)
        .status()
        .expect("spawn obs-check");
    assert!(check.success(), "obs-check must accept the suite");

    let doc =
        jns_obs::json::parse(std::fs::read_to_string(&out).expect("read").trim()).expect("parses");
    jns_obs::validate_bench(&doc).expect("validates as jns-bench/2");
    let names: Vec<&str> = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .expect("benchmarks")
        .iter()
        .filter_map(|b| b.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, ["serve_batch/pool4", "serve_batch/pool1"]);
    assert!(
        doc.get("speedup").and_then(Json::as_f64).is_some(),
        "speedup rides along as an extra key"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn undersized_trace_buffers_surface_their_drop_count() {
    // A heap-limited churn program emits one GC event per collection;
    // a 2-event buffer per worker cannot hold a request's worth.
    let src = "class W {
                 class Cell { int v = 0; }
                 class Junk { }
               }
               main {
                 final W.Cell c = new W.Cell();
                 while (c.v < 2000) {
                   final W.Junk j = new W.Junk();
                   c.v = c.v + 1;
                 }
                 print c.v;
               }";
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .with_heap_limit(64)
        .compile(src)
        .expect("compiles");
    let cfg = ServeConfig {
        workers: 2,
        trace: true,
        trace_cap: 2,
        ..ServeConfig::default()
    };
    let report = serve_batch(&compiled, &cfg, 8);
    assert!(report.responses.iter().all(|r| r.is_ok()));
    assert!(
        report.telemetry.trace_dropped > 0,
        "tiny buffers must report drops, not lose them silently"
    );
    // The kept events still respect the cap.
    assert!(report.telemetry.trace_events.len() <= 2 * cfg.workers);
}
