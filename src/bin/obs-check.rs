//! `obs-check` — validates the machine-readable observability artifacts
//! the `jns` CLI emits, so CI can smoke-test the schemas end to end:
//!
//!   obs-check profile <file.json>   a `jns-profile/1` document
//!                                   (from `--profile-json`; the optional
//!                                   `samples` section is checked too)
//!   obs-check trace <file.jsonl>    a `jns-trace/1` JSON Lines stream
//!                                   (from `--trace`)
//!   obs-check bench <file.json>     a `jns-bench/2` suite document
//!                                   (from `jns bench`; the legacy
//!                                   `jns-bench/1` layout is still
//!                                   accepted)
//!   obs-check folded <file.txt>     collapsed-stack sampler output
//!                                   (from `--profile-folded`)
//!
//! Exits 0 when the artifact parses and conforms; prints the first
//! violation and exits 1 otherwise.

use jns_obs::Json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: obs-check profile|trace|bench|folded <file>");
    ExitCode::FAILURE
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn check_profile(path: &str) -> Result<(), String> {
    let text = read(path)?;
    let doc = jns_obs::json::parse(text.trim())?;
    jns_obs::validate_profile(&doc)
}

/// Validates the JSONL stream: a `trace_start` header carrying the
/// schema id and an accurate event count, then one well-formed event
/// object per line with a known `ev` tag and a numeric timestamp.
fn check_trace(path: &str) -> Result<(), String> {
    let text = read(path)?;
    let mut lines = text.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err("empty trace file".to_string());
    };
    let header = jns_obs::json::parse(header)?;
    if header.get("ev").and_then(Json::as_str) != Some("trace_start") {
        return Err("first line must be the trace_start header".to_string());
    }
    if header.get("schema").and_then(Json::as_str) != Some(jns_obs::TRACE_SCHEMA) {
        return Err(format!("header schema must be {:?}", jns_obs::TRACE_SCHEMA));
    }
    let declared = header
        .get("events")
        .and_then(Json::as_u64)
        .ok_or("header needs a numeric `events` count")?;
    if header.get("dropped").and_then(Json::as_u64).is_none() {
        return Err("header needs a numeric `dropped` count".to_string());
    }
    let mut seen = 0u64;
    let mut last_t = 0u64;
    for (i, line) in lines {
        let ev = jns_obs::json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let t = ev
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or(format!("line {}: missing numeric t_us", i + 1))?;
        if t < last_t {
            return Err(format!("line {}: timestamps must be non-decreasing", i + 1));
        }
        last_t = t;
        let tag = ev
            .get("ev")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: missing ev tag", i + 1))?;
        let required: &[&str] = match tag {
            "phase" => &["name", "micros"],
            "request_start" => &["id"],
            "request_end" => &["id", "ok", "queue_us", "exec_us"],
            "gc" => &["kind", "reclaimed", "live", "peak_live", "pause_us"],
            "ic_miss" => &["kind", "site", "view"],
            other => return Err(format!("line {}: unknown ev tag {other:?}", i + 1)),
        };
        for key in required {
            if ev.get(key).is_none() {
                return Err(format!("line {}: {tag} event needs `{key}`", i + 1));
            }
        }
        seen += 1;
    }
    if seen != declared {
        return Err(format!(
            "header declares {declared} events, file has {seen}"
        ));
    }
    Ok(())
}

fn check_bench(path: &str) -> Result<(), String> {
    let text = read(path)?;
    let doc = jns_obs::json::parse(text.trim())?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(jns_obs::BENCH_SCHEMA) => jns_obs::validate_bench(&doc),
        Some("jns-bench/1") => check_bench_v1(&doc),
        _ => Err(format!(
            "schema must be {:?} (or the legacy \"jns-bench/1\")",
            jns_obs::BENCH_SCHEMA
        )),
    }
}

/// The legacy single-shot serve-bench layout, kept readable so
/// pinned artifacts from older commits still validate.
fn check_bench_v1(doc: &Json) -> Result<(), String> {
    if doc.get("workload").and_then(Json::as_str).is_none() {
        return Err("missing string `workload`".to_string());
    }
    if doc.get("speedup").and_then(Json::as_f64).is_none() {
        return Err("missing numeric `speedup`".to_string());
    }
    for arm in ["single", "multi"] {
        let a = doc.get(arm).ok_or(format!("missing `{arm}` arm"))?;
        for key in ["workers", "requests", "elapsed_us"] {
            if a.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("`{arm}` needs numeric `{key}`"));
            }
        }
        if a.get("rps").and_then(Json::as_f64).is_none() {
            return Err(format!("`{arm}` needs numeric `rps`"));
        }
        for hist in ["queue_wait_us", "exec_us"] {
            let h = a.get(hist).ok_or(format!("`{arm}` needs `{hist}`"))?;
            for key in ["count", "p50", "p90", "p99", "max"] {
                if h.get(key).and_then(Json::as_u64).is_none() {
                    return Err(format!("`{arm}.{hist}` needs numeric `{key}`"));
                }
            }
        }
    }
    Ok(())
}

fn check_folded(path: &str) -> Result<(), String> {
    let text = read(path)?;
    jns_obs::validate_folded(&text)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [kind, path] = args.as_slice() else {
        return usage();
    };
    let result = match kind.as_str() {
        "profile" => check_profile(path),
        "trace" => check_trace(path),
        "bench" => check_bench(path),
        "folded" => check_folded(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => {
            println!("{path}: ok ({kind})");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: invalid {kind}: {e}");
            ExitCode::FAILURE
        }
    }
}
