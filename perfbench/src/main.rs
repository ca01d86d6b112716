//! `p3-perfbench` — end-to-end and per-layer benchmark of `p3-serve` on
//! the paper's workloads.
//!
//! ```text
//! p3-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Pins itself to one CPU, boots the real `p3-serve` (path in
//! `P3_SERVE_BIN`) there over a Unix socket with its defaults plus an audit
//! log, drives the seeded workload in a closed loop over one connection
//! for `S` seconds, checks every answer,
//! and prints one JSON line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced in-process replay with `--trace 1`.
//! `perfbench/run.sh` builds both binaries and runs this one.

mod check;
mod drive;
mod replay;
mod stats;
mod trace;
mod workload;

use check::Checker;
use drive::TimedRun;
use replay::{Origin, Replay};
use stats::{error_rate_upper_bound, median, quantile};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 3;
/// Timed requests replayed in-process per traced run, per workload.
fn replay_cap(name: &str) -> usize {
    match name {
        "paper-interactive" => 12_000,
        "trust-cold" => 400,
        _ => 800,
    }
}

/// End-to-end metrics with their units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("error_rate", "ratio"),
    ("cpu_ms_per_req", "ms"),
    ("rss_mb", "MB"),
];

/// Per-layer metrics with their units, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 46] = [
    ("service.decode_us", "us"),
    ("service.encode_us", "us"),
    ("service.request_us", "us"),
    ("service.wire_us", "us"),
    ("service.queue_wait_us", "us"),
    ("service.queue_wait_p99_us", "us"),
    ("service.execute_us", "us"),
    ("obs.metric_lookup_ns", "ns"),
    ("obs.metric_lookups_per_req", "count"),
    ("audit.append_us", "us"),
    ("lint.us", "us"),
    ("analyze.us", "us"),
    ("datalog.parse_us", "us"),
    ("core.load_us", "us"),
    ("core.session_hit_ratio", "ratio"),
    ("core.hit_us", "us"),
    ("core.accounting_us", "us"),
    ("core.influence_ms", "ms"),
    ("core.derivation_ms", "ms"),
    ("core.explanation_ms", "ms"),
    ("core.modification_us", "us"),
    ("core.demand_cores", "count"),
    ("datalog.demand_eval_ms", "ms"),
    ("datalog.derived_tuples", "count"),
    ("datalog.magic_tuples", "count"),
    ("datalog.relevant_ratio", "ratio"),
    ("datalog.join_candidates", "count"),
    ("datalog.firings", "count"),
    ("datalog.firing_ratio", "ratio"),
    ("datalog.full_eval_ms", "ms"),
    ("provenance.capture_overhead_pct", "%"),
    ("provenance.extract_us", "us"),
    ("provenance.extract_memo_hit_ratio", "ratio"),
    ("prob.intern_us", "us"),
    ("prob.exact_us", "us"),
    ("prob.mc_ms", "ms"),
    ("prob.intern_hit_ratio", "ratio"),
    ("prob.op_hit_ratio", "ratio"),
    ("prob.store_formulas", "count"),
    ("prob.dnf_monomials", "count"),
    ("prob.dnf_literals", "count"),
    ("trace.requests", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.layer_sum_us", "us"),
    ("trace.served_p50_us", "us"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value '{value}' ({what})");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("p3-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one run measured.
struct Outcome {
    setup_s: Vec<f64>,
    timed: TimedRun,
    rss_mb: f64,
    audit: Vec<p3_audit::AuditRecord>,
    failed: usize,
    first_failure: Option<String>,
}

fn run(args: &Args) -> Result<String, String> {
    let bin = PathBuf::from(
        std::env::var_os("P3_SERVE_BIN").ok_or("P3_SERVE_BIN must name the p3-serve binary")?,
    );
    let cpu = drive::pin_to_one_cpu()?;
    let generated = std::time::Instant::now();
    let w = Workload::generate(&args.workload, args.seed)?;
    eprintln!(
        "p3-perfbench: {} generated in {:.2}s; running on CPU {cpu}",
        w.name,
        generated.elapsed().as_secs_f64()
    );
    let root = PathBuf::from(".bench_run");
    let dir = root.join(format!("{}-{}", w.name, std::process::id()));
    let result = measure(&w, &bin, &dir, args);
    let _ = std::fs::remove_dir_all(&dir);
    let (out, layers) = result?;
    let attempted = out.timed.sent.len();
    let failed = out.failed;
    if let Some(f) = &out.first_failure {
        eprintln!("p3-perfbench: {failed} failed request(s); first: {f}");
    }
    if stats::tail_samples(attempted, 0.99) < 10 {
        eprintln!(
            "p3-perfbench: only {attempted} requests in {}s; p99 needs {} for ten samples beyond it",
            args.seconds,
            stats::min_samples_for_tail(0.99, 10)
        );
    }
    if out.timed.exhausted {
        eprintln!("p3-perfbench: the workload ran out of distinct requests before the deadline");
    }
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for s in &out.timed.sent {
        by_class
            .entry(s.class)
            .or_default()
            .push(s.latency_ns as f64 / 1e6);
    }
    for (class, lat) in &by_class {
        eprintln!(
            "p3-perfbench:   {class:16} n={:6} p50={:.3}ms p99={:.3}ms",
            lat.len(),
            median(lat),
            quantile(lat, 0.99)
        );
    }
    let mut correct = failed == 0;
    if let Err(e) = Checker::paper_facts(&w) {
        eprintln!("p3-perfbench: {e}");
        correct = false;
    }
    let metrics: Vec<(&str, &str, f64)> = match layers {
        Some((values, mismatches)) => {
            if mismatches > 0 {
                eprintln!(
                    "p3-perfbench: the replay diverged from the session {mismatches} time(s)"
                );
                correct = false;
            }
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, values.get(n).copied().unwrap_or(0.0)))
                .collect()
        }
        None => {
            let latencies_ms: Vec<f64> = out
                .timed
                .sent
                .iter()
                .map(|s| s.latency_ns as f64 / 1e6)
                .collect();
            let completed = (attempted - out.timed.transport_failures.len()).max(1) as f64;
            let values = [
                median(&out.setup_s),
                quantile(&latencies_ms, 0.5),
                quantile(&latencies_ms, 0.99),
                completed / out.timed.elapsed_s,
                error_rate_upper_bound(failed, attempted.max(1)),
                out.timed.cpu_s * 1e3 / completed,
                out.rss_mb,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(n, u), v)| (n, u, v))
                .collect()
        }
    };
    eprintln!(
        "p3-perfbench: {} seed {}: {attempted} requests, {failed} failed, setup runs {:?}",
        w.name, args.seed, out.setup_s
    );
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    Ok(json)
}

/// Per-layer values and the replay's divergence count.
type Layers = Option<(BTreeMap<&'static str, f64>, u64)>;

fn measure(w: &Workload, bin: &Path, dir: &Path, args: &Args) -> Result<(Outcome, Layers), String> {
    // Set-up, several times; the last server goes on to the timed phase.
    let mut setup_s = Vec::new();
    let mut live = None;
    for boot in 0..BOOTS {
        let (server, conn, secs) = drive::boot(w, 0, bin, &dir.join(format!("boot{boot}")))?;
        setup_s.push(secs);
        if boot + 1 < BOOTS {
            drop(conn);
            server.shutdown()?;
        } else {
            live = Some((server, conn));
        }
    }
    // `trust-cold` splits its timed phase into one segment per sample,
    // each against a fresh server booted with that sample off the clock;
    // the last set-up server runs the first.
    let segments = w.segments();
    let mut timed: Option<TimedRun> = None;
    let mut peaks = Vec::new();
    let mut audit = Vec::new();
    for (segment, range) in segments.iter().enumerate() {
        let (server, mut conn) = match live.take() {
            Some(booted) => booted,
            None => {
                let (server, conn, _) =
                    drive::boot(w, segment, bin, &dir.join(format!("segment{segment}")))?;
                (server, conn)
            }
        };
        let start_ms = unix_ms();
        let run = drive::timed_phase(
            w,
            &server,
            &mut conn,
            args.seconds / segments.len() as f64,
            range.clone(),
        )?;
        peaks.push(server.peak_rss_mb()?);
        if segments.len() > 1 {
            let lat: Vec<f64> = run.sent.iter().map(|s| s.latency_ns as f64 / 1e6).collect();
            eprintln!(
                "p3-perfbench:   segment {segment}: n={} p50={:.3}ms",
                lat.len(),
                median(&lat)
            );
        }
        drop(conn);
        let audit_dir = server.dir.join("audit");
        server.shutdown()?;
        let (records, _) =
            p3_audit::read_dir(&audit_dir).map_err(|e| format!("read audit: {e}"))?;
        audit.extend(
            records
                .into_iter()
                .filter(|r| r.ts_ms >= start_ms && r.class != "shutdown"),
        );
        timed = Some(match timed {
            None => run,
            Some(earlier) => earlier.merged(run),
        });
    }
    let timed = timed.expect("at least one segment");
    let rss_mb = median(&peaks);

    // Every distinct reply is checked; repeats of a reply count with it.
    let mut checker = Checker::new(w);
    let mut failed = timed.transport_failures.len();
    let mut first_failure = timed.transport_failures.first().cloned();
    for (spec, reply, count) in &timed.replies {
        if let Err(e) = checker.check(spec, reply) {
            failed += count;
            first_failure.get_or_insert(e);
        }
    }
    let out = Outcome {
        setup_s,
        timed,
        rss_mb,
        audit,
        failed,
        first_failure,
    };
    let layers = if args.trace {
        Some(traced_replay(w, &out, dir)?)
    } else {
        None
    };
    Ok((out, layers))
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The served run's lines in send order (capped), with their served
/// latencies in ns.
fn replay_order(w: &Workload, out: &Outcome) -> Vec<(Origin, u64)> {
    let mut by_index: HashMap<u64, u64> = HashMap::new();
    let mut loads: Vec<u64> = Vec::new();
    for s in &out.timed.sent {
        match s.index {
            Some(i) => {
                by_index.insert(i, s.latency_ns);
            }
            None => loads.push(s.latency_ns),
        }
    }
    // The replay boots `programs[0]` and follows only its loads, so it
    // leaves out `trust-cold`'s later segments, which ran other samples.
    let mut indices: Vec<u64> = by_index
        .keys()
        .copied()
        .filter(|&i| w.phase_len().is_some() || w.request(i).program == 0)
        .collect();
    indices.sort_unstable();
    indices.truncate(replay_cap(w.name));
    let mut order = Vec::new();
    let mut phase = 0u64;
    for i in indices {
        while let Some(len) = w.phase_len() {
            if i < (phase + 1) * len {
                break;
            }
            phase += 1;
            if let (Some(_), Some(&lat)) = (w.phase_load(phase), loads.get(phase as usize - 1)) {
                order.push((Origin::Load(phase), lat));
            }
        }
        order.push((Origin::Timed(i), by_index[&i]));
    }
    order
}

fn traced_replay(
    w: &Workload,
    out: &Outcome,
    dir: &Path,
) -> Result<(BTreeMap<&'static str, f64>, u64), String> {
    let order = replay_order(w, out);
    let spec_of = |o: Origin| match o {
        Origin::Timed(i) => (w.request(i), i),
        Origin::Load(phase) => (w.phase_load(phase).expect("phase loads"), drive::LOAD_ID),
    };
    // Untraced first: the in-process time each request needs.
    let mut plain = Replay::new(w, false, &dir.join("replay-plain"))?;
    let mut untraced = Vec::with_capacity(order.len());
    for (k, &(origin, _)) in order.iter().enumerate() {
        let (spec, id) = spec_of(origin);
        untraced.push(plain.replay(k as u64, &spec, &w.line(&spec, id))?);
    }
    drop(plain);
    let mut traced = Replay::new(w, true, &dir.join("replay-traced"))?;
    for (k, &(origin, _)) in order.iter().enumerate() {
        let (spec, id) = spec_of(origin);
        traced.replay(k as u64, &spec, &w.line(&spec, id))?;
    }
    let spans = traced.rec.spans();
    // One file per workload, replaced by each traced run.
    let trace_path = PathBuf::from(".bench_run").join(format!("trace-{}.json", w.name));
    traced
        .rec
        .write_json(&trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;

    let totals = trace::layer_totals(spans);
    let per_request = trace::per_request(spans);
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .filter(|t| t.count > 0)
            .map_or(0.0, |t| t.self_ns as f64 / t.count as f64 / 1e3)
    };
    for (metric, span, scale) in [
        ("service.decode_us", "service.decode", 1.0),
        ("service.encode_us", "service.encode", 1.0),
        ("service.request_us", "service.request", 1.0),
        ("audit.append_us", "audit.append", 1.0),
        ("lint.us", "lint", 1.0),
        ("analyze.us", "analyze", 1.0),
        ("datalog.parse_us", "datalog.parse", 1.0),
        ("core.load_us", "core.load", 1.0),
        ("core.hit_us", "core.hit", 1.0),
        ("core.accounting_us", "core.accounting", 1.0),
        ("core.influence_ms", "core.influence", 1e-3),
        ("core.derivation_ms", "core.derivation", 1e-3),
        ("core.explanation_ms", "core.explanation", 1e-3),
        ("core.modification_us", "core.modification", 1.0),
        ("datalog.demand_eval_ms", "datalog.demand_eval", 1e-3),
        ("provenance.extract_us", "provenance.extract", 1.0),
        ("prob.intern_us", "prob.intern", 1.0),
        ("prob.exact_us", "prob.exact", 1.0),
        ("prob.mc_ms", "prob.mc", 1e-3),
    ] {
        v.insert(metric, mean_us(span) * scale);
    }
    let c = &traced.counts;
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let lookups = totals.get("obs.metric_lookup").copied().unwrap_or_default();
    v.insert(
        "obs.metric_lookup_ns",
        per(lookups.self_ns, c.metric_lookups),
    );
    v.insert(
        "obs.metric_lookups_per_req",
        per(c.metric_lookups, order.len() as u64),
    );
    let (hits, misses) = traced.session_stats();
    v.insert("core.session_hit_ratio", per(hits, hits + misses));
    let p3 = traced.session().p3();
    v.insert("core.demand_cores", p3.demand_evaluations() as f64);
    v.insert(
        "datalog.derived_tuples",
        per(c.relevant_tuples, c.demand_evals),
    );
    v.insert("datalog.magic_tuples", per(c.magic_tuples, c.demand_evals));
    v.insert(
        "datalog.relevant_ratio",
        per(c.relevant_tuples, c.relevant_tuples + c.magic_tuples),
    );
    v.insert(
        "datalog.join_candidates",
        per(c.join_candidates, c.demand_evals),
    );
    v.insert("datalog.firings", per(c.firings, c.demand_evals));
    v.insert("datalog.firing_ratio", per(c.new_tuples, c.firings));
    let (eh, em) = traced.extract_memo();
    v.insert("provenance.extract_memo_hit_ratio", per(eh, eh + em));
    let store = p3.store().stats();
    v.insert("prob.store_formulas", store.formulas as f64);
    v.insert(
        "prob.intern_hit_ratio",
        per(store.intern_hits, store.intern_hits + store.intern_misses),
    );
    v.insert(
        "prob.op_hit_ratio",
        per(store.op_hits, store.op_hits + store.op_misses),
    );
    v.insert("prob.dnf_monomials", per(c.monomials, c.extractions));
    v.insert("prob.dnf_literals", per(c.literals, c.extractions));

    // Whole-model evaluation with and without provenance capture (Fig 9).
    let program =
        p3_datalog::program::Program::parse(&w.programs[0]).map_err(|e| format!("parse: {e}"))?;
    let reps = if w.name == "paper-interactive" { 51 } else { 3 };
    let (capture_s, plain_s) = replay::capture_overhead(&program, reps);
    v.insert("datalog.full_eval_ms", capture_s * 1e3);
    v.insert(
        "provenance.capture_overhead_pct",
        (capture_s - plain_s) / plain_s * 100.0,
    );

    // Served requests from the audit log of the served run.
    let waits: Vec<f64> = out.audit.iter().map(|r| r.queue_wait_us as f64).collect();
    let execs: Vec<f64> = out.audit.iter().map(|r| r.execute_us as f64).collect();
    v.insert("service.queue_wait_us", median(&waits));
    v.insert("service.queue_wait_p99_us", quantile(&waits, 0.99));
    v.insert("service.execute_us", median(&execs));

    // Wire time and the accounting identity: per request, layer self
    // times + wire = served latency + (traced − untraced) time.
    let mut wire = Vec::new();
    let mut accounted = Vec::new();
    let mut served = Vec::new();
    let (mut traced_sum, mut plain_sum) = (0u64, 0u64);
    for (k, &(_, served_ns)) in order.iter().enumerate() {
        let (root, selfs) = per_request.get(&(k as u64)).copied().unwrap_or_default();
        let w_ns = served_ns as f64 - untraced[k] as f64;
        wire.push(w_ns / 1e3);
        accounted.push((selfs as f64 + w_ns) / 1e3);
        served.push(served_ns as f64 / 1e3);
        traced_sum += root;
        plain_sum += untraced[k];
    }
    v.insert("service.wire_us", median(&wire));
    v.insert("trace.requests", order.len() as f64);
    v.insert(
        "trace.overhead_pct",
        (traced_sum as f64 - plain_sum as f64) / plain_sum.max(1) as f64 * 100.0,
    );
    v.insert("trace.layer_sum_us", median(&accounted));
    v.insert("trace.served_p50_us", median(&served));
    v.insert(
        "trace.accounted_pct",
        median(&accounted) / median(&served) * 100.0,
    );
    Ok((v, traced.counts.mismatches))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = p3_service::json::Value::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect();
        assert_eq!(workloads, workload::NAMES);
    }
}
