//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response per line, in order. The grammar
//! (documented in `DESIGN.md` §8):
//!
//! ```text
//! request  = { "op": <op>, ["id": n], ["timeout_ms": n], ["hop_limit": n],
//!              ["eval_mode": "auto"|"naive"|"demand"],
//!              ["trace": "32-hex"], ...op fields }
//! op       = "ping" | "stats" | "metrics" | "trace" | "shutdown"
//!          | "persist" | "warm" | "store-stats"
//!          | "audit-tail" | "audit-top" | "slo"
//!          | "load-program"
//!          | "probability" | "explanation" | "derivation"
//!          | "influence" | "modification"
//!          | "profile"      (wraps a query class, "class": <op>)
//!          | "explain"      (per-rule cost attribution for a query)
//! response = { ["id": n], "status": "ok" | "error" | "timeout",
//!              ["result": {...}], ["error": "..."] }
//! ```
//!
//! `id` is echoed verbatim so clients can pipeline; `timeout_ms` arms the
//! per-request deadline (see `server`); `hop_limit` caps provenance
//! extraction depth for the query ops; `eval_mode` overrides the server's
//! default evaluation strategy (naive whole-model vs query-directed demand,
//! see `p3_core::EvalMode`) for one request. `trace` is an optional
//! client-generated 128-bit trace id (lowercase hex): the server adopts
//! it as a field on the request's root span so one id links client-side
//! connect/send/recv spans with the server-side execution tree.

use crate::json::Value;
use p3_core::{DerivationAlgo, EvalMode, InfluenceMethod, ProbMethod};
use p3_prob::McConfig;

/// A query-class op, parsed and validated.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Liveness check.
    Ping,
    /// Server + session + store counters.
    Stats,
    /// Prometheus text exposition of the process metrics registry.
    Metrics,
    /// The `n` most recent request span trees.
    Trace {
        /// How many request trees to return.
        n: usize,
    },
    /// Graceful shutdown: drain in-flight work, refuse new connections.
    Shutdown,
    /// Force a compaction of the persistent store: export the session's
    /// full provenance state as a snapshot and truncate the intern log.
    /// Runs on the worker pool — it reads the same session the queries
    /// mutate.
    Persist,
    /// Warm-boot report: what the persistent store restored at startup
    /// (formulas, memos, recovery truncations, staleness).
    Warm,
    /// Persistent-store backend counters (records written, pending buffer,
    /// snapshot size).
    StoreStats,
    /// Replace the served program (from inline source or a server-side path).
    LoadProgram {
        /// Inline program text (takes precedence over `path`).
        source: Option<String>,
        /// Server-side file to load.
        path: Option<String>,
        /// Run the lint pre-flight gate (default `true`); error-severity
        /// findings reject the program. `"lint": false` opts out.
        lint: bool,
    },
    /// Static analysis: lint a program without loading it.
    Lint {
        /// Inline program text (takes precedence over `path`).
        source: Option<String>,
        /// Server-side file to lint.
        path: Option<String>,
    },
    /// `P[query]` under a probability method.
    Probability {
        /// Ground atom, e.g. `know("Ben","Elena")`.
        query: String,
        /// Probability backend.
        method: ProbMethod,
    },
    /// Explanation Query (§4.1): derivations + polynomial + probability.
    Explanation {
        /// Ground atom.
        query: String,
        /// Probability backend.
        method: ProbMethod,
    },
    /// Derivation Query (§4.2): sufficient provenance within `eps`.
    Derivation {
        /// Ground atom.
        query: String,
        /// Error bound ε.
        eps: f64,
        /// Search algorithm.
        algo: DerivationAlgo,
        /// Probability backend.
        method: ProbMethod,
    },
    /// Influence Query (§4.3): ranked influential clauses.
    Influence {
        /// Ground atom.
        query: String,
        /// Influence backend.
        method: InfluenceMethod,
        /// Keep only the top K entries.
        top_k: Option<usize>,
        /// §6.2 sufficient-provenance preprocessing bound.
        preprocess_epsilon: Option<f64>,
    },
    /// Modification Query (§4.4): reach `target` at minimal cost.
    Modification {
        /// Ground atom.
        query: String,
        /// Target probability.
        target: f64,
        /// Stop once `|P − target| ≤ tolerance`.
        tolerance: f64,
    },
    /// Per-query profile: run `inner` (any query class) and return a
    /// stage-by-stage breakdown with cache hit/miss deltas.
    Profile {
        /// The profiled query op.
        inner: Box<Op>,
    },
    /// Query EXPLAIN plane: per-rule cost attribution of the evaluation
    /// that answers `query` (engine plan, DNF shape, cache deltas,
    /// measured lint recommendations). Observation-only.
    Explain {
        /// Ground atom to explain.
        query: String,
    },
    /// Static analysis plane: predicted per-rule costs, cardinality
    /// bounds, DNF widths and `P37xx` diagnostics — computed without
    /// evaluating anything. Optionally predicts per-query-class work
    /// for one query atom.
    Analyze {
        /// Optional atom whose predicate gets a per-class prediction.
        query: Option<String>,
    },
    /// The `n` most recent audit records, newest first.
    AuditTail {
        /// How many records to return.
        n: usize,
    },
    /// Worst offenders from the audit ring, ranked by a cost key.
    AuditTop {
        /// Ranking key: `latency`, `tuples`, or `dnf_width`.
        by: AuditKey,
        /// How many records to return.
        n: usize,
    },
    /// SLO burn-rate and error-budget snapshot per request class.
    Slo,
}

/// Ranking key for `audit-top` / `GET /audit/top`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditKey {
    /// Total request latency (queue wait + execute), µs.
    Latency,
    /// Derived tuples materialised while answering.
    Tuples,
    /// DNF width: total literal count across monomials.
    DnfWidth,
    /// Measured rule cost the request added (join candidates + firings +
    /// derived tuples) — ranks requests that forced evaluations.
    RuleCost,
}

impl AuditKey {
    /// Parses the wire/query-string spelling.
    pub fn parse(s: &str) -> Result<AuditKey, String> {
        match s {
            "latency" => Ok(AuditKey::Latency),
            "tuples" => Ok(AuditKey::Tuples),
            "dnf_width" => Ok(AuditKey::DnfWidth),
            "rule_cost" => Ok(AuditKey::RuleCost),
            other => Err(format!(
                "unknown audit key '{other}' (expected latency|tuples|dnf_width|rule_cost)"
            )),
        }
    }

    /// The canonical spelling, echoed back in responses.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKey::Latency => "latency",
            AuditKey::Tuples => "tuples",
            AuditKey::DnfWidth => "dnf_width",
            AuditKey::RuleCost => "rule_cost",
        }
    }
}

impl Op {
    /// The stats bucket this op is accounted under.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Metrics => "metrics",
            Op::Trace { .. } => "trace",
            Op::Shutdown => "shutdown",
            Op::Persist => "persist",
            Op::Warm => "warm",
            Op::StoreStats => "store-stats",
            Op::LoadProgram { .. } => "load-program",
            Op::Lint { .. } => "lint",
            Op::Probability { .. } => "probability",
            Op::Explanation { .. } => "explanation",
            Op::Derivation { .. } => "derivation",
            Op::Influence { .. } => "influence",
            Op::Modification { .. } => "modification",
            Op::Profile { .. } => "profile",
            Op::Explain { .. } => "explain",
            Op::Analyze { .. } => "analyze",
            Op::AuditTail { .. } => "audit-tail",
            Op::AuditTop { .. } => "audit-top",
            Op::Slo => "slo",
        }
    }

    /// The query text carried by this op, when it has one — the five
    /// query classes plus `profile` (which reports its inner query).
    /// Used for audit-record query hashing; the text itself is never
    /// persisted.
    pub fn query_text(&self) -> Option<&str> {
        match self {
            Op::Probability { query, .. }
            | Op::Explanation { query, .. }
            | Op::Derivation { query, .. }
            | Op::Influence { query, .. }
            | Op::Modification { query, .. }
            | Op::Explain { query } => Some(query),
            Op::Profile { inner } => inner.query_text(),
            _ => None,
        }
    }

    /// Whether this op runs on the worker pool (vs. inline on the
    /// connection handler).
    pub fn is_query(&self) -> bool {
        !matches!(
            self,
            Op::Ping
                | Op::Stats
                | Op::Metrics
                | Op::Trace { .. }
                | Op::Shutdown
                | Op::Warm
                | Op::StoreStats
                | Op::AuditTail { .. }
                | Op::AuditTop { .. }
                | Op::Slo
        )
    }
}

/// A parsed request envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<u64>,
    /// Per-request deadline in milliseconds from receipt.
    pub timeout_ms: Option<u64>,
    /// Provenance extraction depth cap for query ops.
    pub hop_limit: Option<usize>,
    /// Per-request evaluation-mode override for query ops; `None` uses the
    /// server's configured default.
    pub eval_mode: Option<EvalMode>,
    /// Client-generated trace id (lowercase hex), adopted on the
    /// server-side root span for cross-process trace assembly.
    pub trace: Option<String>,
    /// The operation.
    pub op: Op,
}

/// Generates a fresh 128-bit trace id as 32 lowercase hex characters.
///
/// Mixes wall-clock nanoseconds, the process id, and a process-local
/// counter through two rounds of splitmix64 — not cryptographic, but
/// collision-free in practice for correlating client and server spans.
pub fn new_trace_id() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed =
        nanos ^ (u64::from(std::process::id()) << 32) ^ COUNTER.fetch_add(1, Ordering::Relaxed);
    let hi = splitmix64(seed);
    let lo = splitmix64(hi ^ seed.rotate_left(17));
    format!("{hi:016x}{lo:016x}")
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => field
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a non-negative integer")),
    }
}

fn opt_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => field
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field '{key}' must be a number")),
    }
}

/// Shared Monte-Carlo knobs: `samples`, `seed`, `threads` (0 = auto).
fn mc_config(v: &Value) -> Result<(McConfig, usize), String> {
    let samples = opt_u64(v, "samples")?.unwrap_or(100_000) as usize;
    let seed = opt_u64(v, "seed")?.unwrap_or(0x7033);
    let threads = opt_u64(v, "threads")?.unwrap_or(0) as usize;
    Ok((McConfig { samples, seed }, threads))
}

fn prob_method(v: &Value) -> Result<ProbMethod, String> {
    let (cfg, threads) = mc_config(v)?;
    ProbMethod::parse(method_name(v), cfg, threads)
}

fn influence_method(v: &Value) -> Result<InfluenceMethod, String> {
    let (cfg, threads) = mc_config(v)?;
    InfluenceMethod::parse(method_name(v), cfg, threads)
}

fn method_name(v: &Value) -> &str {
    v.get("method").and_then(Value::as_str).unwrap_or("exact")
}

/// Parses one of the five query-class ops from the fields of `v`.
/// Shared by the top-level dispatch and the `profile` wrapper (which
/// profiles exactly these classes).
fn parse_query_op(name: &str, v: &Value) -> Result<Op, String> {
    match name {
        "probability" => Ok(Op::Probability {
            query: str_field(v, "query")?,
            method: prob_method(v)?,
        }),
        "explanation" => Ok(Op::Explanation {
            query: str_field(v, "query")?,
            method: prob_method(v)?,
        }),
        "derivation" => Ok(Op::Derivation {
            query: str_field(v, "query")?,
            eps: f64_field(v, "eps")?,
            algo: v
                .get("algo")
                .and_then(Value::as_str)
                .unwrap_or("greedy")
                .parse::<DerivationAlgo>()?,
            method: prob_method(v)?,
        }),
        "influence" => Ok(Op::Influence {
            query: str_field(v, "query")?,
            method: influence_method(v)?,
            top_k: opt_u64(v, "top_k")?.map(|n| n as usize),
            preprocess_epsilon: opt_f64(v, "preprocess_epsilon")?,
        }),
        "modification" => Ok(Op::Modification {
            query: str_field(v, "query")?,
            target: f64_field(v, "target")?,
            tolerance: opt_f64(v, "tolerance")?.unwrap_or(1e-6),
        }),
        other => Err(format!(
            "unknown query class '{other}' (expected probability|explanation|derivation|influence|modification)"
        )),
    }
}

impl Request {
    /// Parses one request line. Errors are protocol-level (malformed JSON,
    /// unknown op, missing fields) and never tear down the connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Value::parse(line.trim()).map_err(|e| format!("malformed JSON: {e}"))?;
        if !matches!(v, Value::Object(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let id = opt_u64(&v, "id")?;
        let timeout_ms = opt_u64(&v, "timeout_ms")?;
        let hop_limit = opt_u64(&v, "hop_limit")?.map(|n| n as usize);
        let eval_mode = match v.get("eval_mode") {
            None | Some(Value::Null) => None,
            Some(field) => match field.as_str() {
                Some(s) => Some(
                    s.parse::<EvalMode>()
                        .map_err(|e| format!("eval_mode: {e}"))?,
                ),
                None => return Err("field 'eval_mode' must be a string".to_string()),
            },
        };
        let trace = match v.get("trace") {
            None | Some(Value::Null) => None,
            Some(field) => match field.as_str() {
                Some(s) if !s.is_empty() => Some(s.to_string()),
                _ => return Err("field 'trace' must be a non-empty string".to_string()),
            },
        };
        let op_name = str_field(&v, "op")?;
        let op = match op_name.as_str() {
            "ping" => Op::Ping,
            "stats" => Op::Stats,
            "metrics" => Op::Metrics,
            "trace" => Op::Trace {
                n: opt_u64(&v, "n")?.unwrap_or(10) as usize,
            },
            "shutdown" => Op::Shutdown,
            "persist" => Op::Persist,
            "warm" => Op::Warm,
            "store-stats" => Op::StoreStats,
            "audit-tail" => Op::AuditTail {
                n: opt_u64(&v, "n")?.unwrap_or(20) as usize,
            },
            "audit-top" => Op::AuditTop {
                by: match v.get("by") {
                    None | Some(Value::Null) => AuditKey::Latency,
                    Some(field) => match field.as_str() {
                        Some(s) => AuditKey::parse(s)?,
                        None => return Err("field 'by' must be a string".to_string()),
                    },
                },
                n: opt_u64(&v, "n")?.unwrap_or(10) as usize,
            },
            "slo" => Op::Slo,
            "load-program" => {
                let source = v.get("source").and_then(Value::as_str).map(str::to_string);
                let path = v.get("path").and_then(Value::as_str).map(str::to_string);
                if source.is_none() && path.is_none() {
                    return Err("load-program needs 'source' or 'path'".to_string());
                }
                let lint = match v.get("lint") {
                    None | Some(Value::Null) => true,
                    Some(Value::Bool(b)) => *b,
                    Some(_) => return Err("field 'lint' must be a boolean".to_string()),
                };
                Op::LoadProgram { source, path, lint }
            }
            "lint" => {
                let source = v.get("source").and_then(Value::as_str).map(str::to_string);
                let path = v.get("path").and_then(Value::as_str).map(str::to_string);
                if source.is_none() && path.is_none() {
                    return Err("lint needs 'source' or 'path'".to_string());
                }
                Op::Lint { source, path }
            }
            "profile" => {
                let class = v
                    .get("class")
                    .and_then(Value::as_str)
                    .unwrap_or("probability");
                Op::Profile {
                    inner: Box::new(parse_query_op(class, &v)?),
                }
            }
            "explain" => Op::Explain {
                query: str_field(&v, "query")?,
            },
            "analyze" => Op::Analyze {
                query: match v.get("query") {
                    None | Some(Value::Null) => None,
                    Some(Value::String(s)) if !s.is_empty() => Some(s.clone()),
                    Some(_) => return Err("field 'query' must be a non-empty string".to_string()),
                },
            },
            other => parse_query_op(other, &v).map_err(|e| {
                if e.starts_with("unknown query class") {
                    format!("unknown op '{other}'")
                } else {
                    e
                }
            })?,
        };
        Ok(Request {
            id,
            timeout_ms,
            hop_limit,
            eval_mode,
            trace,
            op,
        })
    }
}

/// Response status discriminant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// The op succeeded; `result` is set.
    Ok,
    /// The op failed; `error` explains why.
    Error,
    /// The per-request deadline expired before the answer was ready.
    Timeout,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Error => "error",
            Status::Timeout => "timeout",
        }
    }
}

/// A response envelope.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id, echoed back.
    pub id: Option<u64>,
    /// Outcome.
    pub status: Status,
    /// Payload on success.
    pub result: Option<Value>,
    /// Explanation on error/timeout.
    pub error: Option<String>,
}

impl Response {
    /// A success response.
    pub fn ok(id: Option<u64>, result: Value) -> Response {
        Response {
            id,
            status: Status::Ok,
            result: Some(result),
            error: None,
        }
    }

    /// An error response.
    pub fn error(id: Option<u64>, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Error,
            result: None,
            error: Some(message.into()),
        }
    }

    /// A deadline-expired response.
    pub fn timeout(id: Option<u64>, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Timeout,
            result: None,
            error: Some(message.into()),
        }
    }

    /// Serialises to one compact JSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs: Vec<(String, Value)> = Vec::new();
        if let Some(id) = self.id {
            pairs.push(("id".to_string(), Value::from(id)));
        }
        pairs.push((
            "status".to_string(),
            Value::from(self.status.as_str().to_string()),
        ));
        if let Some(result) = &self.result {
            pairs.push(("result".to_string(), result.clone()));
        }
        if let Some(error) = &self.error {
            pairs.push(("error".to_string(), Value::from(error.clone())));
        }
        Value::Object(pairs).to_json()
    }

    /// Parses a response line (the client side of the protocol).
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = Value::parse(line.trim()).map_err(|e| format!("malformed response: {e}"))?;
        let status = match v.get("status").and_then(Value::as_str) {
            Some("ok") => Status::Ok,
            Some("error") => Status::Error,
            Some("timeout") => Status::Timeout,
            other => return Err(format!("bad response status {other:?}")),
        };
        Ok(Response {
            id: v.get("id").and_then(Value::as_u64),
            status,
            result: v.get("result").cloned(),
            error: v.get("error").and_then(Value::as_str).map(str::to_string),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_query_class() {
        let cases = [
            (r#"{"op":"ping"}"#, "ping"),
            (r#"{"op":"stats"}"#, "stats"),
            (r#"{"op":"metrics"}"#, "metrics"),
            (r#"{"op":"trace","n":5}"#, "trace"),
            (r#"{"op":"shutdown"}"#, "shutdown"),
            (r#"{"op":"persist"}"#, "persist"),
            (r#"{"op":"warm"}"#, "warm"),
            (r#"{"op":"store-stats"}"#, "store-stats"),
            (r#"{"op":"audit-tail","n":5}"#, "audit-tail"),
            (r#"{"op":"audit-top","by":"tuples"}"#, "audit-top"),
            (r#"{"op":"slo"}"#, "slo"),
            (
                r#"{"op":"load-program","source":"t 1.0: a(1)."}"#,
                "load-program",
            ),
            (r#"{"op":"lint","source":"t 1.0: a(1)."}"#, "lint"),
            (r#"{"op":"probability","query":"a(1)"}"#, "probability"),
            (
                r#"{"op":"explanation","query":"a(1)","method":"mc","samples":1000}"#,
                "explanation",
            ),
            (
                r#"{"op":"derivation","query":"a(1)","eps":0.01,"algo":"resuciu"}"#,
                "derivation",
            ),
            (
                r#"{"op":"influence","query":"a(1)","top_k":3,"method":"pmc"}"#,
                "influence",
            ),
            (
                r#"{"op":"modification","query":"a(1)","target":0.9}"#,
                "modification",
            ),
            (r#"{"op":"explain","query":"a(1)"}"#, "explain"),
            (r#"{"op":"analyze"}"#, "analyze"),
            (r#"{"op":"analyze","query":"a(1)"}"#, "analyze"),
        ];
        for (line, class) in cases {
            let req = Request::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(req.op.class(), class, "{line}");
        }
    }

    #[test]
    fn envelope_fields_are_extracted() {
        let req = Request::parse(
            r#"{"op":"probability","query":"a(1)","id":42,"timeout_ms":250,"hop_limit":3,"eval_mode":"demand","method":"pmc","threads":2,"samples":500,"seed":9}"#,
        )
        .unwrap();
        assert_eq!(req.id, Some(42));
        assert_eq!(req.timeout_ms, Some(250));
        assert_eq!(req.hop_limit, Some(3));
        assert_eq!(req.eval_mode, Some(EvalMode::Demand));
        match req.op {
            Op::Probability { ref query, method } => {
                assert_eq!(query, "a(1)");
                assert_eq!(
                    method,
                    ProbMethod::ParallelMc(
                        McConfig {
                            samples: 500,
                            seed: 9
                        },
                        2
                    )
                );
            }
            ref other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("not json", "malformed JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"query":"a(1)"}"#, "op"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"probability"}"#, "query"),
            (
                r#"{"op":"probability","query":"a(1)","method":"magic"}"#,
                "unknown method",
            ),
            (r#"{"op":"derivation","query":"a(1)"}"#, "eps"),
            (r#"{"op":"modification","query":"a(1)"}"#, "target"),
            (r#"{"op":"load-program"}"#, "source"),
            (r#"{"op":"lint"}"#, "source"),
            (
                r#"{"op":"load-program","source":"x.","lint":"yes"}"#,
                "lint",
            ),
            (
                r#"{"op":"probability","query":"a(1)","timeout_ms":-3}"#,
                "timeout_ms",
            ),
            (
                r#"{"op":"probability","query":"a(1)","eval_mode":"magic"}"#,
                "eval_mode",
            ),
            (
                r#"{"op":"probability","query":"a(1)","eval_mode":7}"#,
                "eval_mode",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            Response::ok(Some(7), Value::object(vec![("p", Value::from(0.5))])),
            Response::error(None, "boom"),
            Response::timeout(Some(1), "deadline of 10ms expired"),
        ] {
            let line = resp.to_line();
            assert_eq!(Response::parse(&line).unwrap(), resp, "{line}");
        }
    }

    #[test]
    fn trace_defaults_to_ten_trees() {
        match Request::parse(r#"{"op":"trace"}"#).unwrap().op {
            Op::Trace { n } => assert_eq!(n, 10),
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"trace","n":3}"#).unwrap().op {
            Op::Trace { n } => assert_eq!(n, 3),
            ref other => panic!("{other:?}"),
        }
        assert!(Request::parse(r#"{"op":"trace","n":-1}"#).is_err());
    }

    #[test]
    fn profile_wraps_a_query_class() {
        // Defaults to profiling a probability query.
        match Request::parse(r#"{"op":"profile","query":"a(1)"}"#)
            .unwrap()
            .op
        {
            Op::Profile { inner } => assert_eq!(
                *inner,
                Op::Probability {
                    query: "a(1)".to_string(),
                    method: ProbMethod::Exact,
                }
            ),
            ref other => panic!("{other:?}"),
        }
        // Inner-class fields are parsed from the same envelope.
        match Request::parse(
            r#"{"op":"profile","class":"derivation","query":"a(1)","eps":0.05,"algo":"resuciu"}"#,
        )
        .unwrap()
        .op
        {
            Op::Profile { inner } => match *inner {
                Op::Derivation { eps, algo, .. } => {
                    assert_eq!(eps, 0.05);
                    assert_eq!(algo, DerivationAlgo::ReSuciu);
                }
                other => panic!("{other:?}"),
            },
            ref other => panic!("{other:?}"),
        }
        let req = Request::parse(r#"{"op":"profile","query":"a(1)"}"#).unwrap();
        assert_eq!(req.op.class(), "profile");
        assert!(req.op.is_query());
        // Only query classes can be profiled.
        for line in [
            r#"{"op":"profile","class":"ping"}"#,
            r#"{"op":"profile","class":"profile","query":"a(1)"}"#,
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains("unknown query class"), "{line} -> {err}");
        }
        // Missing inner fields surface the inner error.
        let err = Request::parse(r#"{"op":"profile","class":"modification","query":"a(1)"}"#)
            .unwrap_err();
        assert!(err.contains("target"), "{err}");
    }

    #[test]
    fn eval_mode_field_is_optional_and_parsed() {
        assert_eq!(
            Request::parse(r#"{"op":"probability","query":"a(1)"}"#)
                .unwrap()
                .eval_mode,
            None
        );
        assert_eq!(
            Request::parse(r#"{"op":"probability","query":"a(1)","eval_mode":null}"#)
                .unwrap()
                .eval_mode,
            None
        );
        for (spelling, mode) in [
            ("auto", EvalMode::Auto),
            ("naive", EvalMode::Naive),
            ("demand", EvalMode::Demand),
        ] {
            let line = format!(r#"{{"op":"probability","query":"a(1)","eval_mode":"{spelling}"}}"#);
            assert_eq!(Request::parse(&line).unwrap().eval_mode, Some(mode));
        }
    }

    #[test]
    fn trace_field_is_extracted_and_validated() {
        let req =
            Request::parse(r#"{"op":"ping","trace":"00ff00ff00ff00ff00ff00ff00ff00ff"}"#).unwrap();
        assert_eq!(
            req.trace.as_deref(),
            Some("00ff00ff00ff00ff00ff00ff00ff00ff")
        );
        assert_eq!(Request::parse(r#"{"op":"ping"}"#).unwrap().trace, None);
        assert_eq!(
            Request::parse(r#"{"op":"ping","trace":null}"#)
                .unwrap()
                .trace,
            None
        );
        for line in [r#"{"op":"ping","trace":""}"#, r#"{"op":"ping","trace":7}"#] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains("trace"), "{line} -> {err}");
        }
    }

    #[test]
    fn trace_ids_are_well_formed_and_distinct() {
        let a = new_trace_id();
        let b = new_trace_id();
        for id in [&a, &b] {
            assert_eq!(id.len(), 32, "{id}");
            assert!(id
                .chars()
                .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        }
        assert_ne!(a, b);
    }

    #[test]
    fn query_vs_admin_split() {
        assert!(!Request::parse(r#"{"op":"ping"}"#).unwrap().op.is_query());
        assert!(!Request::parse(r#"{"op":"stats"}"#).unwrap().op.is_query());
        assert!(!Request::parse(r#"{"op":"metrics"}"#).unwrap().op.is_query());
        assert!(!Request::parse(r#"{"op":"trace"}"#).unwrap().op.is_query());
        assert!(!Request::parse(r#"{"op":"warm"}"#).unwrap().op.is_query());
        assert!(!Request::parse(r#"{"op":"store-stats"}"#)
            .unwrap()
            .op
            .is_query());
        assert!(!Request::parse(r#"{"op":"audit-tail"}"#)
            .unwrap()
            .op
            .is_query());
        assert!(!Request::parse(r#"{"op":"audit-top"}"#)
            .unwrap()
            .op
            .is_query());
        assert!(!Request::parse(r#"{"op":"slo"}"#).unwrap().op.is_query());
        assert!(Request::parse(r#"{"op":"persist"}"#).unwrap().op.is_query());
        assert!(Request::parse(r#"{"op":"probability","query":"a(1)"}"#)
            .unwrap()
            .op
            .is_query());
        assert!(Request::parse(r#"{"op":"load-program","path":"x.pl"}"#)
            .unwrap()
            .op
            .is_query());
        assert!(Request::parse(r#"{"op":"lint","path":"x.pl"}"#)
            .unwrap()
            .op
            .is_query());
        // Explain forces an evaluation, so it runs on the worker pool.
        assert!(Request::parse(r#"{"op":"explain","query":"a(1)"}"#)
            .unwrap()
            .op
            .is_query());
        // Analyze evaluates nothing but walks the whole program, so it
        // also runs on the worker pool rather than inline.
        assert!(Request::parse(r#"{"op":"analyze"}"#).unwrap().op.is_query());
    }

    #[test]
    fn analyze_parses_optional_query() {
        match Request::parse(r#"{"op":"analyze"}"#).unwrap().op {
            Op::Analyze { query: None } => {}
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"analyze","query":"a(1)"}"#)
            .unwrap()
            .op
        {
            Op::Analyze { query: Some(q) } => assert_eq!(q, "a(1)"),
            ref other => panic!("{other:?}"),
        }
        assert!(Request::parse(r#"{"op":"analyze","query":42}"#).is_err());
        assert!(Request::parse(r#"{"op":"analyze","query":""}"#).is_err());
    }

    #[test]
    fn audit_ops_parse_with_defaults_and_reject_bad_keys() {
        match Request::parse(r#"{"op":"audit-tail"}"#).unwrap().op {
            Op::AuditTail { n } => assert_eq!(n, 20),
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top"}"#).unwrap().op {
            Op::AuditTop { by, n } => {
                assert_eq!(by, AuditKey::Latency);
                assert_eq!(n, 10);
            }
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top","by":"dnf_width","n":3}"#)
            .unwrap()
            .op
        {
            Op::AuditTop { by, n } => {
                assert_eq!(by, AuditKey::DnfWidth);
                assert_eq!(n, 3);
            }
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"audit-top","by":"rule_cost"}"#)
            .unwrap()
            .op
        {
            Op::AuditTop { by, .. } => assert_eq!(by, AuditKey::RuleCost),
            ref other => panic!("{other:?}"),
        }
        assert_eq!(AuditKey::RuleCost.as_str(), "rule_cost");
        for line in [
            r#"{"op":"audit-top","by":"magic"}"#,
            r#"{"op":"audit-top","by":7}"#,
            r#"{"op":"audit-tail","n":-1}"#,
        ] {
            assert!(Request::parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn query_text_covers_query_classes_only() {
        let q = Request::parse(r#"{"op":"probability","query":"a(1)"}"#).unwrap();
        assert_eq!(q.op.query_text(), Some("a(1)"));
        let p = Request::parse(r#"{"op":"profile","query":"a(2)"}"#).unwrap();
        assert_eq!(p.op.query_text(), Some("a(2)"));
        for line in [
            r#"{"op":"ping"}"#,
            r#"{"op":"slo"}"#,
            r#"{"op":"lint","source":"t 1.0: a(1)."}"#,
        ] {
            assert_eq!(
                Request::parse(line).unwrap().op.query_text(),
                None,
                "{line}"
            );
        }
    }

    #[test]
    fn load_program_lint_gate_defaults_on_and_opts_out() {
        match Request::parse(r#"{"op":"load-program","source":"t 1.0: a(1)."}"#)
            .unwrap()
            .op
        {
            Op::LoadProgram { lint, .. } => assert!(lint, "gate defaults on"),
            ref other => panic!("{other:?}"),
        }
        match Request::parse(r#"{"op":"load-program","source":"t 1.0: a(1).","lint":false}"#)
            .unwrap()
            .op
        {
            Op::LoadProgram { lint, .. } => assert!(!lint),
            ref other => panic!("{other:?}"),
        }
    }
}
