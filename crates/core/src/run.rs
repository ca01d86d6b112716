//! The per-query run record: one pipeline, one record.
//!
//! Every query-shaped path — the five query classes of §4, the `profile`
//! breakdown and the EXPLAIN plane — goes through
//! [`QuerySession::run`](crate::QuerySession::run): resolve the atom,
//! extract `λ`, run one class computation. The [`QueryRun`] it returns is
//! the single record of that run: stage wall times with cache deltas, the
//! DNF shape, the eval mode and why it was chosen, the class answer, and
//! the cost of the one evaluation the run forced, if it forced any. The
//! service's reply, audit row, slow-request log line and `execute` span
//! are all built from it, so they cannot disagree.

use crate::eval_mode::EvalMode;
use crate::prob_method::ProbMethod;
use crate::query::derivation::{DerivationAlgo, SufficientProvenance};
use crate::query::explain::QueryExplain;
use crate::query::influence::{InfluenceEntry, InfluenceOptions};
use crate::query::modification::{ModificationOptions, ModificationPlan};
use p3_datalog::explain::ExplainPlan;
use p3_prob::store::DnfId;
use p3_prob::DnfShape;
use std::sync::Arc;

/// Which query class a [`QuerySession::run`](crate::QuerySession::run)
/// executes, with its parameters.
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// `P[query]` under a probability backend.
    Probability(ProbMethod),
    /// Explanation Query: probability plus derivation-tree rendering.
    Explanation(ProbMethod),
    /// Derivation Query: ε-sufficient provenance.
    Derivation {
        /// Error bound ε.
        eps: f64,
        /// Search algorithm.
        algo: DerivationAlgo,
        /// Probability backend.
        method: ProbMethod,
    },
    /// Influence Query: ranked influential clauses.
    Influence(InfluenceOptions),
    /// Modification Query: reach `target` at minimal cost.
    Modification {
        /// Target probability.
        target: f64,
        /// Search options.
        opts: ModificationOptions,
    },
    /// EXPLAIN plane: the per-rule cost of the evaluation that answers the
    /// query (see [`QueryExplain`]).
    Explain,
}

impl QuerySpec {
    /// The query-class name (matches the service op classes).
    pub fn class(&self) -> &'static str {
        match self {
            QuerySpec::Probability(_) => "probability",
            QuerySpec::Explanation(_) => "explanation",
            QuerySpec::Derivation { .. } => "derivation",
            QuerySpec::Influence(_) => "influence",
            QuerySpec::Modification { .. } => "modification",
            QuerySpec::Explain => "explain",
        }
    }

    /// Whether the class reads the answering evaluation itself (its graph
    /// or plan), not just the polynomial — those runs always resolve the
    /// atom, even when the warm layer knows the polynomial.
    pub(crate) fn reads_evaluation(&self) -> bool {
        matches!(self, QuerySpec::Explanation(_) | QuerySpec::Explain)
    }
}

/// One pipeline stage of a run: wall time plus cache hit/miss deltas taken
/// around the stage.
///
/// Session deltas count only this session's memo tables; store and
/// extraction-memo deltas read shared (store-wide / process-global)
/// counters, so under concurrent load they can include other queries'
/// traffic — attribution is exact when the session is driven serially.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStage {
    /// Stage name: `warm` (only while a persistent store's warm layer is
    /// populated), `parse`, `transform` (demand mode only), `extract`,
    /// then the class stage (`probability`, `derivation`, `influence`,
    /// `modification` or `explain`; explanations add `render`).
    pub name: &'static str,
    /// Wall-clock time spent in the stage, microseconds.
    pub wall_us: u64,
    /// Session memo-table hits during the stage.
    pub session_hits: u64,
    /// Session memo-table misses during the stage.
    pub session_misses: u64,
    /// Hash-cons intern hits in the shared [`DnfStore`](p3_prob::store::DnfStore).
    pub store_intern_hits: u64,
    /// Hash-cons intern misses in the shared store.
    pub store_intern_misses: u64,
    /// Memoized or/and/restrict hits in the shared store.
    pub store_op_hits: u64,
    /// Memoized or/and/restrict misses in the shared store.
    pub store_op_misses: u64,
    /// Clean-tuple extraction-memo hits (process-global counter).
    pub extract_memo_hits: u64,
    /// Clean-tuple extraction-memo misses (process-global counter).
    pub extract_memo_misses: u64,
}

impl RunStage {
    /// The counters of `after` minus those of `before` (counter readings
    /// are themselves `RunStage`s), named `name` and timed `wall_us`.
    pub(crate) fn delta(name: &'static str, wall_us: u64, before: &Self, after: &Self) -> Self {
        RunStage {
            name,
            wall_us,
            ..after.zip(before, u64::saturating_sub)
        }
    }

    /// Every stage's time and counters summed, named `total`.
    pub(crate) fn total(stages: &[RunStage]) -> RunStage {
        let total = RunStage {
            name: "total",
            ..RunStage::default()
        };
        stages
            .iter()
            .fold(total, |acc, s| acc.zip(s, u64::saturating_add))
    }

    /// Combines two stages field by field (keeping `self`'s name).
    fn zip(&self, other: &Self, f: fn(u64, u64) -> u64) -> Self {
        RunStage {
            name: self.name,
            wall_us: f(self.wall_us, other.wall_us),
            session_hits: f(self.session_hits, other.session_hits),
            session_misses: f(self.session_misses, other.session_misses),
            store_intern_hits: f(self.store_intern_hits, other.store_intern_hits),
            store_intern_misses: f(self.store_intern_misses, other.store_intern_misses),
            store_op_hits: f(self.store_op_hits, other.store_op_hits),
            store_op_misses: f(self.store_op_misses, other.store_op_misses),
            extract_memo_hits: f(self.extract_memo_hits, other.extract_memo_hits),
            extract_memo_misses: f(self.extract_memo_misses, other.extract_memo_misses),
        }
    }
}

/// The cost of one evaluation a run forced: the naive whole-model run or
/// the query's demand run, measured by the engine as it ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForcedEvaluation {
    /// Total rule cost (candidates + firings + new tuples, magic included).
    pub rule_cost: u64,
    /// Source rules with a non-zero cost, costliest first, as
    /// `(label, cost)`.
    pub top_rules: Vec<(String, u64)>,
    /// Tuples the evaluation derived (magic tuples included in demand mode).
    pub derived_tuples: u64,
}

impl ForcedEvaluation {
    pub(crate) fn of(plan: &ExplainPlan) -> Self {
        Self {
            rule_cost: plan.total_cost(),
            // Plans rank their rules by descending cost already.
            top_rules: plan
                .rules
                .iter()
                .filter(|r| r.cost() > 0)
                .map(|r| (r.label.clone(), r.cost()))
                .collect(),
            derived_tuples: plan.strata.iter().map(|s| s.derived_tuples as u64).sum(),
        }
    }
}

/// The class answer of a run.
#[derive(Clone, Debug)]
pub enum RunAnswer {
    /// `P[λ]`.
    Probability(f64),
    /// `P[λ]` plus the derivation tree rendered from whichever evaluation
    /// answered the query (the demand core in demand mode).
    Explanation {
        /// `P[λ]`.
        probability: f64,
        /// Indented textual rendering of the derivation tree.
        text: String,
        /// Graphviz rendering of the provenance subgraph.
        dot: String,
    },
    /// The ε-sufficient provenance.
    Derivation(SufficientProvenance),
    /// The ranked influence entries.
    Influence(Vec<InfluenceEntry>),
    /// The minimal-cost modification plan.
    Modification(ModificationPlan),
    /// The EXPLAIN plane's cost story.
    Explain(Box<QueryExplain>),
}

/// The one record of one query run; see the module docs.
#[derive(Clone, Debug)]
pub struct QueryRun {
    /// The ground atom as given.
    pub query: String,
    /// The query class that ran (see [`QuerySpec::class`]).
    pub class: &'static str,
    /// The evaluation mode that answered (never [`EvalMode::Auto`]).
    pub mode: EvalMode,
    /// Why that mode was chosen.
    pub mode_reason: Arc<str>,
    /// End-to-end wall time, microseconds.
    pub total_us: u64,
    /// The stages, in execution order.
    pub stages: Vec<RunStage>,
    /// The interned polynomial the class stage answered from.
    pub dnf: DnfId,
    /// Its shape.
    pub shape: DnfShape,
    /// The class answer.
    pub answer: RunAnswer,
    /// The evaluation this run forced, if it forced one (a cold demand
    /// core, or the first whole-model evaluation in naive mode).
    pub forced: Option<ForcedEvaluation>,
}

impl QueryRun {
    /// The resulting probability, when the class produces one (`None` for
    /// influence rankings and EXPLAIN).
    pub fn probability(&self) -> Option<f64> {
        match &self.answer {
            RunAnswer::Probability(p) | RunAnswer::Explanation { probability: p, .. } => Some(*p),
            RunAnswer::Derivation(s) => Some(s.probability),
            RunAnswer::Modification(plan) => Some(plan.achieved_probability),
            RunAnswer::Influence(_) | RunAnswer::Explain(_) => None,
        }
    }

    /// Every stage's time and counters summed.
    pub fn totals(&self) -> RunStage {
        RunStage::total(&self.stages)
    }
}
