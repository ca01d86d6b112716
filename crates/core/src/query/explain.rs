//! The query EXPLAIN plane: where did this query's evaluation cost go?
//!
//! [`QueryExplain`] pairs the engine's per-rule cost attribution (an
//! [`ExplainPlan`] from the evaluation that answered the query) with the
//! provenance-side shape of the answer (DNF monomials × literals, cache
//! deltas) and the measured [`cost_recommendations`] the numbers justify.
//! It renders three ways: a rustc-style text plan for humans
//! ([`QueryExplain::render_text`]), folded `frame;frame count` lines for
//! flamegraph tooling ([`QueryExplain::to_folded`]), and JSON for the
//! service plane ([`QueryExplain::to_json_string`]).
//!
//! Explaining is **observation-only**: it runs the query through exactly
//! the session paths an unexplained query takes (same caches, same DNF
//! interning, same probabilities downstream) and reads counters the
//! engine maintains anyway.

use crate::run::RunStage;
use p3_datalog::diag::Diagnostic;
use p3_datalog::explain::ExplainPlan;
use p3_lint::cost::cost_recommendations;
use p3_prob::DnfShape;

/// One query's cost story: engine plan + answer shape + recommendations.
///
/// Built by the EXPLAIN run of `QuerySession::run` (and its projection
/// `QuerySession::explain`). The cache-delta fields sum the run's stages;
/// on a warm session they show the memo hits that made the query cheap
/// (the plan then describes the original — cached — evaluation, not new
/// work).
#[derive(Clone, Debug)]
pub struct QueryExplain {
    /// The explained ground atom.
    pub query: String,
    /// Per-rule cost attribution of the evaluation that answers this
    /// query: the naive whole-program run, or the query's demand run
    /// (projected onto source clauses). `plan.mode` says which.
    pub plan: ExplainPlan,
    /// Shape of the answer's provenance polynomial.
    pub shape: DnfShape,
    /// Session memo-table hits during this explain call.
    pub session_hits: u64,
    /// Session memo-table misses during this explain call.
    pub session_misses: u64,
    /// Hash-cons intern hits in the shared `DnfStore`.
    pub store_intern_hits: u64,
    /// Hash-cons intern misses in the shared `DnfStore`.
    pub store_intern_misses: u64,
    /// Memoized or/and/restrict hits in the shared store.
    pub store_op_hits: u64,
    /// Memoized or/and/restrict misses in the shared store.
    pub store_op_misses: u64,
    /// Clean-tuple extraction-memo hits (process-global counter).
    pub extract_memo_hits: u64,
    /// Clean-tuple extraction-memo misses (process-global counter).
    pub extract_memo_misses: u64,
    /// Measured lint recommendations (P3603/P3604) the plan justifies.
    pub recommendations: Vec<Diagnostic>,
}

impl QueryExplain {
    /// Assembles the cost story of `query` from the answering evaluation's
    /// `plan`, the answer's `shape` and the run's cache deltas so far.
    pub(crate) fn new(query: &str, plan: ExplainPlan, shape: DnfShape, caches: &RunStage) -> Self {
        let recommendations = Self::recommend(&plan);
        QueryExplain {
            query: query.to_string(),
            plan,
            shape,
            session_hits: caches.session_hits,
            session_misses: caches.session_misses,
            store_intern_hits: caches.store_intern_hits,
            store_intern_misses: caches.store_intern_misses,
            store_op_hits: caches.store_op_hits,
            store_op_misses: caches.store_op_misses,
            extract_memo_hits: caches.extract_memo_hits,
            extract_memo_misses: caches.extract_memo_misses,
            recommendations,
        }
    }

    /// Derives the recommendation list from `plan` (used by the builder;
    /// exposed so alternative front-ends can re-derive after filtering).
    pub fn recommend(plan: &ExplainPlan) -> Vec<Diagnostic> {
        cost_recommendations(plan)
    }

    /// The evaluation mode label (`naive` or `demand`).
    pub fn mode(&self) -> &'static str {
        self.plan.mode
    }

    /// Renders the plan rustc-style: a header, a rule table ranked by
    /// measured cost, the fixpoint/shape summaries, then any
    /// recommendations as rendered diagnostics.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let plan = &self.plan;
        out.push_str(&format!("explain: {} [{} mode]\n", self.query, plan.mode));
        out.push_str(&format!(
            "  evaluation: {} iterations over {} strata, {} tuples, {} rule firings, total cost {}\n",
            plan.stats.iterations,
            plan.strata.len(),
            plan.stats.tuples,
            plan.stats.firings,
            plan.total_cost(),
        ));
        if !plan.deltas.is_empty() {
            let deltas: Vec<String> = plan.deltas.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!("  delta sizes: [{}]\n", deltas.join(", ")));
        }
        if plan.rules.is_empty() {
            out.push_str("  rules: (per-rule collection disabled)\n");
        } else {
            out.push_str(
                "  rank  cost     firings  tuples   candidates  iters  probes      rule\n",
            );
            let total = plan.total_cost().max(1);
            for (i, r) in plan.rules.iter().enumerate() {
                let probes = format!("{}i/{}s", r.indexed_probes, r.scanned_probes);
                let share = 100.0 * r.cost() as f64 / total as f64;
                out.push_str(&format!(
                    "  {:>4}  {:<7} {:<8} {:<8} {:<11} {:<6} {:<11} {} :- … ({:.1}%{}{})\n",
                    i + 1,
                    r.cost(),
                    r.firings,
                    r.new_tuples,
                    r.candidates,
                    r.iterations,
                    probes,
                    r.label,
                    share,
                    if r.recursive { ", recursive" } else { "" },
                    if r.variants > 1 {
                        format!(", {} adorned variants", r.variants)
                    } else {
                        String::new()
                    },
                ));
            }
        }
        if let Some(m) = &plan.magic {
            out.push_str(&format!(
                "  magic overhead: {} transform rules, {} firings, {} tuples, cost {}\n",
                m.rules,
                m.firings,
                m.new_tuples,
                m.cost(),
            ));
        }
        out.push_str(&format!(
            "  provenance: {} monomials x {} literals (max width {}, {} distinct vars)\n",
            self.shape.monomials,
            self.shape.literals,
            self.shape.max_width,
            self.shape.distinct_vars,
        ));
        out.push_str(&format!(
            "  caches: session {}/{}  intern {}/{}  store-ops {}/{}  extract-memo {}/{} (hits/misses)\n",
            self.session_hits,
            self.session_misses,
            self.store_intern_hits,
            self.store_intern_misses,
            self.store_op_hits,
            self.store_op_misses,
            self.extract_memo_hits,
            self.extract_memo_misses,
        ));
        for d in &self.recommendations {
            out.push('\n');
            out.push_str(&d.render(None, None));
        }
        out
    }

    /// Folded-stack lines (`frame;frame;frame cost`) for flamegraph
    /// tooling: one line per rule, rooted at the query's mode, weighted
    /// by measured cost. Magic-transform overhead gets its own frame.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for r in &self.plan.rules {
            if r.cost() > 0 {
                out.push_str(&format!(
                    "p3;{};{} {}\n",
                    self.plan.mode,
                    r.label.replace([';', ' '], "_"),
                    r.cost()
                ));
            }
        }
        if let Some(m) = &self.plan.magic {
            if m.cost() > 0 {
                out.push_str(&format!("p3;{};(magic) {}\n", self.plan.mode, m.cost()));
            }
        }
        out
    }

    /// Serialises the full explain result as one JSON object (the wire
    /// form of the `explain` service op and `p3 explain --json`).
    pub fn to_json_string(&self) -> String {
        let plan = &self.plan;
        let mut s = String::with_capacity(512);
        s.push_str("{\"query\":\"");
        json_escape(&self.query, &mut s);
        s.push_str(&format!(
            "\",\"mode\":\"{}\",\"total_cost\":{},\"iterations\":{},\"tuples\":{},\"firings\":{}",
            plan.mode,
            plan.total_cost(),
            plan.stats.iterations,
            plan.stats.tuples,
            plan.stats.firings,
        ));
        s.push_str(",\"deltas\":[");
        for (i, d) in plan.deltas.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_string());
        }
        s.push_str("],\"strata\":[");
        for (i, st) in plan.strata.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"iterations\":{},\"firings\":{},\"tuples\":{}}}",
                st.iterations, st.firings, st.derived_tuples
            ));
        }
        s.push_str("],\"rules\":[");
        for (i, r) in plan.rules.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":\"");
            json_escape(&r.label, &mut s);
            s.push_str("\",\"head\":\"");
            json_escape(&r.head, &mut s);
            s.push_str(&format!(
                "\",\"recursive\":{},\"cost\":{},\"firings\":{},\"new_tuples\":{},\
                 \"candidates\":{},\"iterations\":{},\"indexed_probes\":{},\
                 \"scanned_probes\":{},\"variants\":{}}}",
                r.recursive,
                r.cost(),
                r.firings,
                r.new_tuples,
                r.candidates,
                r.iterations,
                r.indexed_probes,
                r.scanned_probes,
                r.variants,
            ));
        }
        s.push(']');
        if let Some(m) = &plan.magic {
            s.push_str(&format!(
                ",\"magic\":{{\"rules\":{},\"firings\":{},\"new_tuples\":{},\"cost\":{}}}",
                m.rules,
                m.firings,
                m.new_tuples,
                m.cost()
            ));
        }
        s.push_str(&format!(
            ",\"dnf\":{{\"monomials\":{},\"literals\":{},\"max_width\":{},\"distinct_vars\":{}}}",
            self.shape.monomials,
            self.shape.literals,
            self.shape.max_width,
            self.shape.distinct_vars
        ));
        s.push_str(&format!(
            ",\"caches\":{{\"session_hits\":{},\"session_misses\":{},\"intern_hits\":{},\
             \"intern_misses\":{},\"store_op_hits\":{},\"store_op_misses\":{},\
             \"extract_memo_hits\":{},\"extract_memo_misses\":{}}}",
            self.session_hits,
            self.session_misses,
            self.store_intern_hits,
            self.store_intern_misses,
            self.store_op_hits,
            self.store_op_misses,
            self.extract_memo_hits,
            self.extract_memo_misses,
        ));
        s.push_str(",\"recommendations\":[");
        for (i, d) in self.recommendations.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push_str("]}");
        s
    }
}

fn json_escape(value: &str, out: &mut String) {
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}
