//! The traced run: the request lines a served run sent, replayed
//! in-process through each layer's public functions, in send order.
//!
//! The replay mirrors what `p3-serve` does per request line: decode,
//! resolve the session for the request's eval mode, run the op, keep the
//! books (session stats, rule-cost tally, metric lookups), append an
//! audit record and encode the response. A cold extraction is replayed
//! layer by layer — demand or naive evaluation with provenance capture,
//! extraction, DNF interning, probability — and the session is then
//! brought to the state the server is in (off the clock, outside the
//! request's span tree), so a repeat of the request replays as the
//! session memo hit the server serves.

use crate::trace::Recorder;
use crate::workload::{Op, Spec, Workload};
use p3_audit::{AuditConfig, AuditLog, AuditRecord, Outcome};
use p3_core::{
    EvalMode, InfluenceOptions, ModificationOptions, ProbMethod, QuerySession, SessionOptions,
    SessionStats, P3,
};
use p3_datalog::engine::{Database, Engine};
use p3_datalog::program::Program;
use p3_prob::{DnfId, VarId};
use p3_provenance::extract::{Analysis, ExtractOptions, Extractor};
use p3_provenance::ProvGraph;
use p3_service::json::Value;
use p3_service::protocol::{Request, Response};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Where a replayed line came from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Origin {
    /// The `i`-th timed request.
    Timed(u64),
    /// The program load opening phase `p`.
    Load(u64),
}

/// Counters gathered where the work happens.
#[derive(Default, Debug)]
pub struct Counts {
    /// Demand evaluations replayed.
    pub demand_evals: u64,
    /// Source tuples they kept (query-relevant).
    pub relevant_tuples: u64,
    /// Magic tuples they derived and dropped.
    pub magic_tuples: u64,
    /// Join candidates scanned (rules + magic).
    pub join_candidates: u64,
    /// Rule firings (rules + magic).
    pub firings: u64,
    /// Firings that produced a new tuple.
    pub new_tuples: u64,
    /// Polynomials extracted.
    pub extractions: u64,
    /// Their monomials, summed.
    pub monomials: u64,
    /// Their literal occurrences, summed.
    pub literals: u64,
    /// Registry lookups made the way the server makes them.
    pub metric_lookups: u64,
    /// Replayed ids that differ from the session's own (must stay 0).
    pub mismatches: u64,
}

/// A program's naive model as the server's `P3` keeps it.
struct FullModel {
    db: Database,
    graph: ProvGraph,
    analysis: Analysis,
}

/// Replay state: the server's sessions plus the replay's own view of what
/// is already memoized.
pub struct Replay<'w> {
    w: &'w Workload,
    /// Spans of this replay.
    pub rec: Recorder,
    audit: AuditLog,
    session: QuerySession,
    by_mode: HashMap<EvalMode, QuerySession>,
    full: Option<FullModel>,
    dnf_memo: HashSet<(EvalMode, String)>,
    prob_memo: HashSet<(DnfId, String)>,
    /// Counters.
    pub counts: Counts,
    extract_memo_start: (u64, u64),
}

fn opts_of(hop: Option<usize>) -> ExtractOptions {
    hop.map_or(ExtractOptions::unbounded(), ExtractOptions::with_max_depth)
}

/// Makes the six registry lookups `p3-serve` makes per queued request:
/// the request counter and latency histogram, and the naive and demand
/// derived-tuple counters read before and after execution.
fn metric_lookups(latency_us: u64) -> u64 {
    let labels = p3_obs::metrics::render_labels(&[("class", "probability")]);
    p3_obs::metrics::labeled_counter("p3_service_requests_total", "", &labels).inc();
    p3_obs::metrics::labeled_histogram("p3_service_request_latency_us", "", &labels)
        .observe(latency_us);
    for _ in 0..2 {
        for mode in ["naive", "demand"] {
            let labels = p3_obs::metrics::render_labels(&[("mode", mode)]);
            std::hint::black_box(
                p3_obs::metrics::labeled_counter("p3_engine_derived_tuples_total", "", &labels)
                    .get(),
            );
        }
    }
    6
}

impl<'w> Replay<'w> {
    /// A replay of `w` from a freshly booted server's state, appending
    /// audit records under `audit_dir`.
    pub fn new(w: &'w Workload, traced: bool, audit_dir: &Path) -> Result<Replay<'w>, String> {
        let audit = AuditLog::open(AuditConfig::new(audit_dir))
            .map_err(|e| format!("open replay audit log: {e}"))?;
        let mut rec = Recorder::new(traced);
        rec.set_request(u64::MAX);
        let session = rec.span("setup.boot", |rec| boot(rec, &w.programs[0]))?;
        let mut replay = Replay {
            w,
            rec,
            audit,
            session,
            by_mode: HashMap::new(),
            full: None,
            dnf_memo: HashSet::new(),
            prob_memo: HashSet::new(),
            counts: Counts::default(),
            extract_memo_start: p3_provenance::extract::memo_counters(),
        };
        // Warm-up runs as on the server, before any measured request.
        let live = std::mem::replace(&mut replay.rec, Recorder::new(false));
        for (i, spec) in w.warmup_of(0).enumerate() {
            let deferred = replay.request(spec, &w.line(spec, i as u64))?;
            replay.settle(deferred);
        }
        replay.rec = live;
        Ok(replay)
    }

    /// The default session (the server's current one).
    pub fn session(&self) -> &QuerySession {
        &self.session
    }

    /// Memo hits and misses over the current program's sessions.
    pub fn session_stats(&self) -> (u64, u64) {
        std::iter::once(&self.session)
            .chain(self.by_mode.values())
            .map(QuerySession::stats)
            .fold((0, 0), |(h, m), s: SessionStats| (h + s.hits, m + s.misses))
    }

    /// Extraction-memo hits and misses since the replay started.
    pub fn extract_memo(&self) -> (u64, u64) {
        let (h, m) = p3_provenance::extract::memo_counters();
        (h - self.extract_memo_start.0, m - self.extract_memo_start.1)
    }

    /// Replays one line as request `id`; returns its in-process time, ns.
    pub fn replay(&mut self, id: u64, spec: &Spec, line: &str) -> Result<u64, String> {
        self.rec.set_request(id);
        let start = Instant::now();
        let deferred = self.request(spec, line)?;
        let elapsed = start.elapsed().as_nanos() as u64;
        self.settle(deferred);
        Ok(elapsed)
    }

    /// Runs one request inside a `request` span; returns the work that
    /// brings the session to the server's state afterwards.
    fn request(&mut self, spec: &Spec, line: &str) -> Result<Deferred, String> {
        let mut rec = std::mem::replace(&mut self.rec, Recorder::new(false));
        let out = rec.span("service.request", |rec| self.request_inner(rec, spec, line));
        self.rec = rec;
        out
    }

    fn request_inner(
        &mut self,
        rec: &mut Recorder,
        spec: &Spec,
        line: &str,
    ) -> Result<Deferred, String> {
        let started = Instant::now();
        let request = rec.span("service.decode", |_| Request::parse(line))?;
        if let Op::Load { index } = spec.op {
            let text = &self.w.programs[index];
            let session = rec.span("core.load", |rec| boot(rec, text))?;
            let clauses = session.p3().program().len();
            self.session = session;
            self.by_mode.clear();
            self.full = None;
            self.dnf_memo.clear();
            self.prob_memo.clear();
            let value = Value::object(vec![
                ("loaded", Value::from(true)),
                ("clauses", Value::from(clauses)),
            ]);
            self.finish(rec, &request, value, started);
            return Ok(Deferred::default());
        }
        self.counts.metric_lookups += rec.span("obs.metric_lookup", |_| {
            metric_lookups(started.elapsed().as_micros() as u64)
        });
        let session = match request.eval_mode {
            None => self.session.clone(),
            // The server resolves an override on every request.
            Some(mode) => rec.span("analyze", |_| self.session_for(mode)),
        };
        let (stats_before, cost_before) = rec.span("core.accounting", |_| {
            (session.stats(), session.p3().rule_cost_total())
        });
        let opts = opts_of(request.hop_limit);
        let mut deferred = Deferred::default();
        let query = crate::check::query_of(&spec.op).to_string();
        let value = match &request.op {
            p3_service::protocol::Op::Probability { method, .. } => {
                let id = self.dnf_id(rec, &session, &query, opts, &mut deferred)?;
                let p = self.probability(rec, &session, id, *method, &mut deferred);
                Value::object(vec![
                    ("query", Value::from(query.clone())),
                    ("probability", Value::from(p)),
                    ("derivations", Value::from(session.dnf(id).len())),
                ])
            }
            p3_service::protocol::Op::Explanation { method, .. } => {
                let e = rec
                    .span("core.explanation", |_| {
                        session.p3().explain_with(&query, *method, opts)
                    })
                    .map_err(|e| e.to_string())?;
                rec.span("service.encode", |_| {
                    Value::object(vec![
                        ("query", Value::from(query.clone())),
                        ("probability", Value::from(e.probability)),
                        ("num_derivations", Value::from(e.num_derivations)),
                        (
                            "polynomial",
                            Value::from(session.p3().render_polynomial(&e.polynomial)),
                        ),
                        ("text", Value::from(e.text)),
                        ("dot", Value::from(e.dot)),
                    ])
                })
            }
            p3_service::protocol::Op::Derivation {
                eps, algo, method, ..
            } => {
                let id = self.dnf_id(rec, &session, &query, opts, &mut deferred)?;
                let s = rec.span("core.derivation", |_| {
                    session.sufficient_provenance_of(id, *eps, *algo, *method)
                });
                rec.span("service.encode", |_| {
                    Value::object(vec![
                        ("query", Value::from(query.clone())),
                        ("kept", Value::from(s.polynomial.len())),
                        ("original", Value::from(s.original_len)),
                        ("probability", Value::from(s.probability)),
                        ("original_probability", Value::from(s.original_probability)),
                        ("error", Value::from(s.error)),
                        ("compression_ratio", Value::from(s.compression_ratio)),
                        (
                            "polynomial",
                            Value::from(session.p3().render_polynomial(&s.polynomial)),
                        ),
                    ])
                })
            }
            p3_service::protocol::Op::Influence {
                method,
                top_k,
                preprocess_epsilon,
                ..
            } => {
                let id = self.dnf_id(rec, &session, &query, opts, &mut deferred)?;
                let entries = rec.span("core.influence", |_| {
                    session.influence_of(
                        id,
                        &InfluenceOptions {
                            method: *method,
                            top_k: *top_k,
                            preprocess_epsilon: *preprocess_epsilon,
                            restrict_to: None,
                        },
                    )
                });
                let vars = session.p3().vars();
                entries_value(&query, entries.iter().map(|e| (e.var, e.influence)), vars)
            }
            p3_service::protocol::Op::Modification {
                target, tolerance, ..
            } => {
                let plan = rec
                    .span("core.modification", |_| {
                        session.modification(
                            &query,
                            *target,
                            &ModificationOptions {
                                tolerance: *tolerance,
                                ..Default::default()
                            },
                        )
                    })
                    .map_err(|e| e.to_string())?;
                Value::object(vec![
                    ("query", Value::from(query.clone())),
                    ("target", Value::from(*target)),
                    ("steps", Value::from(plan.steps.len())),
                    ("total_cost", Value::from(plan.total_cost)),
                    (
                        "achieved_probability",
                        Value::from(plan.achieved_probability),
                    ),
                    ("reached_target", Value::from(plan.reached_target)),
                ])
            }
            other => return Err(format!("the replay has no path for op '{}'", other.class())),
        };
        rec.span("core.accounting", |_| {
            let after = session.stats();
            let cost = session.p3().rule_cost_total().saturating_sub(cost_before);
            if cost > 0 {
                std::hint::black_box(session.p3().top_rules(p3_audit::MAX_TOP_RULES));
            }
            std::hint::black_box((after.hits - stats_before.hits, after.misses));
        });
        self.finish(rec, &request, value, started);
        Ok(deferred)
    }

    /// Audit append and response encoding, as the server ends a request.
    fn finish(&mut self, rec: &mut Recorder, request: &Request, value: Value, started: Instant) {
        let total_us = started.elapsed().as_micros() as u64;
        let record = AuditRecord {
            ts_ms: 0,
            trace: String::new(),
            class: request.op.class().to_string(),
            eval_mode: request.eval_mode.unwrap_or_default().as_str().to_string(),
            query_hash: request.op.query_text().map(p3_audit::fnv1a_64).unwrap_or(0),
            outcome: Outcome::Ok,
            queue_wait_us: 0,
            execute_us: total_us,
            total_us,
            stages: Vec::new(),
            derived_tuples: 0,
            dnf_monomials: 0,
            dnf_literals: 0,
            session_hits: 0,
            session_misses: 0,
            store_records: 0,
            extract_memo_hits: 0,
            extract_memo_misses: 0,
            rule_cost: 0,
            top_rules: Vec::new(),
        };
        let audit = &self.audit;
        let _ = rec.span("audit.append", |_| audit.append(record));
        let line = rec.span("service.encode", |_| {
            Response::ok(request.id, value).to_line()
        });
        std::hint::black_box(line);
    }

    /// The session a request with an `eval_mode` override runs on, resolved
    /// the way the server resolves it.
    fn session_for(&mut self, mode: EvalMode) -> QuerySession {
        let resolved = mode.decide(self.session.p3().program()).mode;
        if resolved == self.session.eval_mode() {
            return self.session.clone();
        }
        let base = self.session.p3().clone();
        self.by_mode
            .entry(resolved)
            .or_insert_with(|| {
                base.session_with(SessionOptions {
                    max_entries: None,
                    eval_mode: resolved,
                })
            })
            .clone()
    }

    /// The interned polynomial of `query`: a memo hit through the session,
    /// or the cold path layer by layer.
    fn dnf_id(
        &mut self,
        rec: &mut Recorder,
        session: &QuerySession,
        query: &str,
        opts: ExtractOptions,
        deferred: &mut Deferred,
    ) -> Result<DnfId, String> {
        let key = (session.eval_mode(), format!("{query}@{:?}", opts.max_depth));
        if self.dnf_memo.contains(&key) {
            return rec
                .span("core.hit", |_| session.provenance_id_with(query, opts))
                .map_err(|e| e.to_string());
        }
        let program = session.p3().program();
        let (pred, args) =
            p3_datalog::worlds::parse_ground_query(program, query).map_err(|e| e.to_string())?;
        let dnf = match session.eval_mode() {
            EvalMode::Demand => {
                let ev = rec
                    .span("datalog.demand_eval", |_| {
                        p3_provenance::evaluate_query_with_provenance(program, pred, &args)
                    })
                    .map_err(|e| e.to_string())?;
                let c = &mut self.counts;
                c.demand_evals += 1;
                c.relevant_tuples += ev.stats.relevant_tuples as u64;
                c.magic_tuples += ev.stats.magic_tuples as u64;
                for r in &ev.plan.rules {
                    c.join_candidates += r.candidates;
                    c.firings += r.firings;
                    c.new_tuples += r.new_tuples;
                }
                if let Some(m) = ev.plan.magic {
                    c.join_candidates += m.candidates;
                    c.firings += m.firings;
                    c.new_tuples += m.new_tuples;
                }
                rec.span("provenance.extract", |_| {
                    let analysis = Analysis::new(&ev.graph);
                    let tuple = ev.db.lookup(pred, &args).ok_or("query not derivable")?;
                    Ok::<_, String>(
                        Extractor::with_analysis(&ev.graph, &analysis).polynomial(tuple, opts),
                    )
                })?
            }
            _ => {
                if self.full.is_none() {
                    let (db, graph, _) = rec.span("datalog.full_eval", |_| {
                        p3_provenance::capture::evaluate_with_provenance_plan(program)
                    });
                    let analysis = rec.span("provenance.extract", |_| Analysis::new(&graph));
                    self.full = Some(FullModel {
                        db,
                        graph,
                        analysis,
                    });
                }
                let full = self.full.as_ref().expect("forced above");
                rec.span("provenance.extract", |_| {
                    let tuple = full.db.lookup(pred, &args).ok_or("query not derivable")?;
                    Ok::<_, String>(
                        Extractor::with_analysis(&full.graph, &full.analysis)
                            .polynomial(tuple, opts),
                    )
                })?
            }
        };
        self.counts.extractions += 1;
        self.counts.monomials += dnf.len() as u64;
        self.counts.literals += dnf.literal_occurrences() as u64;
        let id = rec.span("prob.intern", |_| session.p3().store().intern(dnf));
        self.dnf_memo.insert(key);
        deferred
            .dnf
            .push((session.clone(), query.to_string(), opts, id));
        Ok(id)
    }

    /// `P[id]` under `method`: a memo hit, or the backend run directly.
    fn probability(
        &mut self,
        rec: &mut Recorder,
        session: &QuerySession,
        id: DnfId,
        method: ProbMethod,
        deferred: &mut Deferred,
    ) -> f64 {
        let key = (id, format!("{method:?}"));
        if self.prob_memo.contains(&key) {
            return rec.span("core.hit", |_| session.probability_of(id, method));
        }
        let dnf = session.dnf(id);
        let vars = session.p3().vars();
        let name = match method {
            ProbMethod::Exact | ProbMethod::Bdd => "prob.exact",
            _ => "prob.mc",
        };
        let p = rec.span(name, |_| method.probability(&dnf, vars));
        self.prob_memo.insert(key);
        deferred.prob.push((session.clone(), id, method, p));
        p
    }

    /// Brings the sessions to the server's state after a cold request,
    /// checking that the replayed layers produced what the session does.
    fn settle(&mut self, deferred: Deferred) {
        for (session, query, opts, id) in deferred.dnf {
            if session.provenance_id_with(&query, opts).ok() != Some(id) {
                self.counts.mismatches += 1;
            }
        }
        for (session, id, method, p) in deferred.prob {
            if session.probability_of(id, method).to_bits() != p.to_bits() {
                self.counts.mismatches += 1;
            }
        }
    }
}

/// Session work owed after a cold request.
#[derive(Default)]
struct Deferred {
    dnf: Vec<(QuerySession, String, ExtractOptions, DnfId)>,
    prob: Vec<(QuerySession, DnfId, ProbMethod, f64)>,
}

/// Boots a program as the server does: lint gate, parse, and a session
/// whose mode the analyzer picks.
fn boot(rec: &mut Recorder, text: &str) -> Result<QuerySession, String> {
    let report = rec.span("lint", |_| p3_lint::lint_source(text));
    if report.has_errors() {
        return Err(format!(
            "program rejected by lint: {}",
            report.summary_line()
        ));
    }
    let program = rec
        .span("datalog.parse", |_| Program::parse(text))
        .map_err(|e| e.to_string())?;
    let p3 = P3::from_program(program).map_err(|e| e.to_string())?;
    Ok(rec.span("analyze", |_| {
        p3.session_with(SessionOptions {
            max_entries: None,
            eval_mode: EvalMode::Auto,
        })
    }))
}

fn entries_value(
    query: &str,
    entries: impl Iterator<Item = (VarId, f64)>,
    vars: &p3_prob::VarTable,
) -> Value {
    Value::object(vec![
        ("query", Value::from(query.to_string())),
        (
            "entries",
            Value::Array(
                entries
                    .map(|(var, inf)| {
                        Value::object(vec![
                            ("var", Value::from(vars.name(var).to_string())),
                            ("influence", Value::from(inf)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Median capture and plain evaluation times (s) of `program` over `reps`
/// runs, for the Fig 9 overhead of provenance capture.
pub fn capture_overhead(program: &Program, reps: usize) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let mut capture = Vec::new();
    let mut plain = Vec::new();
    for _ in 0..reps {
        capture.push(time(&mut || {
            std::hint::black_box(p3_provenance::capture::evaluate_with_provenance_plan(
                program,
            ));
        }));
        plain.push(time(&mut || {
            std::hint::black_box(Engine::new(program).run_plain());
        }));
    }
    (crate::stats::median(&capture), crate::stats::median(&plain))
}
