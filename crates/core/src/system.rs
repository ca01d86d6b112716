//! The P3 system facade: evaluate lazily with provenance, query many times.
//!
//! [`P3`] is split into cheap-to-clone `Arc` handles over an immutable
//! program plus two lazily-forced evaluation cores:
//!
//! * the **full core** — one naive bottom-up evaluation of the whole
//!   program (database, provenance graph, extraction [`Analysis`]), forced
//!   on first use by any whole-model consumer ([`P3::database`],
//!   [`P3::graph`], [`P3::explain`], …) and then shared forever;
//! * the **demand cores** — one magic-transformed, query-directed
//!   evaluation per queried atom (see [`p3_provenance::demand`]), cached by
//!   `(predicate, arguments)` and used by sessions running in
//!   [`EvalMode::Demand`].
//!
//! Both cores are probability-independent, so they survive what-if updates
//! ([`P3::with_probabilities`]) intact, as do the shared structural caches
//! (the hash-consed [`DnfStore`]). Everything behind the `Arc`s is
//! immutable or internally synchronised, so `P3` is `Send + Sync`: clone it
//! into threads, or use [`P3::session`] / [`P3::batch_probabilities`] for
//! memoized concurrent querying.

use crate::error::P3Error;
use crate::eval_mode::EvalMode;
use crate::prob_method::ProbMethod;
use crate::query::explanation::Explanation;
use crate::session::{QuerySession, SessionOptions};
use p3_datalog::ast::Const;
use p3_datalog::engine::{Database, TupleId};
use p3_datalog::explain::ExplainPlan;
use p3_datalog::program::Program;
use p3_datalog::symbol::Symbol;
use p3_datalog::transform::TransformError;
use p3_datalog::worlds;
use p3_prob::store::DnfStore;
use p3_prob::{Dnf, VarTable};
use p3_provenance::extract::{Analysis, ExtractOptions, Extractor};
use p3_provenance::graph::ProvGraph;
use p3_provenance::{capture, clause_vars, dot, explain};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// The naive whole-program evaluation: database, provenance graph and
/// extraction analysis, forced at most once per [`P3`] lineage.
pub(crate) struct FullCore {
    pub(crate) db: Database,
    pub(crate) graph: ProvGraph,
    pub(crate) analysis: Analysis,
    /// Per-rule cost attribution for the one naive evaluation.
    pub(crate) plan: ExplainPlan,
}

/// One query-directed evaluation: the demanded fragment of the model with
/// provenance already projected back onto the source program.
pub(crate) struct DemandCore {
    pub(crate) db: Database,
    pub(crate) graph: ProvGraph,
    pub(crate) analysis: Analysis,
    /// The queried tuple, when derivable.
    pub(crate) tuple: Option<TupleId>,
    /// Per-rule cost attribution, projected onto source clauses.
    pub(crate) plan: ExplainPlan,
}

/// Demand evaluations are cached per ground query atom.
type DemandKey = (Symbol, Box<[Const]>);

/// A loaded PLP program with lazily-forced provenance, ready for querying.
///
/// Cloning is cheap (a handful of `Arc` bumps) and clones share the
/// evaluation cores and structural caches; see the module docs.
#[derive(Clone)]
pub struct P3 {
    pub(crate) program: Arc<Program>,
    pub(crate) vars: Arc<VarTable>,
    /// Hash-consed formula store; probability-independent.
    pub(crate) store: Arc<DnfStore>,
    /// Lazily-forced naive evaluation; probability-independent, shared
    /// across what-if copies.
    full: Arc<OnceLock<FullCore>>,
    /// Per-query demand evaluations; probability-independent, shared
    /// across what-if copies.
    demand: Arc<RwLock<HashMap<DemandKey, Arc<DemandCore>>>>,
}

impl P3 {
    /// Parses and validates `src`; evaluation is deferred to first use.
    pub fn from_source(src: &str) -> Result<Self, P3Error> {
        Self::from_program(Program::parse(src)?)
    }

    /// Wraps an already-validated program; evaluation is deferred to first
    /// use (whole-model accessors force one naive evaluation, demand-mode
    /// sessions evaluate per query).
    ///
    /// Programs using stratified negation are rejected: the engine can
    /// evaluate them, but the P3 provenance model (monotone DNF polynomials
    /// over clause variables) is only defined for negation-free programs —
    /// supporting negation is the paper's stated future work.
    pub fn from_program(program: Program) -> Result<Self, P3Error> {
        if program.has_negation() {
            return Err(P3Error::UnsupportedNegation);
        }
        let vars = clause_vars(&program);
        Ok(Self {
            program: Arc::new(program),
            vars: Arc::new(vars),
            store: Arc::new(DnfStore::new()),
            full: Arc::new(OnceLock::new()),
            demand: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// Forces (or retrieves) the naive whole-program evaluation.
    pub(crate) fn full(&self) -> &FullCore {
        self.force_full().0
    }

    /// Like [`Self::full`], also telling whether this call ran the
    /// evaluation.
    pub(crate) fn force_full(&self) -> (&FullCore, bool) {
        let mut forced = false;
        let core = self.full.get_or_init(|| {
            forced = true;
            let (db, graph, plan) = capture::evaluate_with_provenance_plan(&self.program);
            let analysis = Analysis::new(&graph);
            FullCore {
                db,
                graph,
                analysis,
                plan,
            }
        });
        (core, forced)
    }

    /// Forces (or retrieves) the demand evaluation for one ground query.
    #[cfg(test)]
    pub(crate) fn demand_core(
        &self,
        pred: Symbol,
        args: &[Const],
    ) -> Result<Arc<DemandCore>, P3Error> {
        self.force_demand(pred, args).map(|(core, _)| core)
    }

    /// Like [`Self::demand_core`], also telling whether this call ran the
    /// evaluation.
    pub(crate) fn force_demand(
        &self,
        pred: Symbol,
        args: &[Const],
    ) -> Result<(Arc<DemandCore>, bool), P3Error> {
        let key: DemandKey = (pred, args.to_vec().into_boxed_slice());
        if let Some(core) = self.demand.read().unwrap().get(&key) {
            return Ok((Arc::clone(core), false));
        }
        let eval = p3_provenance::evaluate_query_with_provenance(&self.program, pred, args)
            .map_err(|e| match e {
                TransformError::Negation => P3Error::UnsupportedNegation,
                other => P3Error::BadQuery(other.to_string()),
            })?;
        let analysis = Analysis::new(&eval.graph);
        let tuple = eval.db.lookup(pred, args);
        let core = Arc::new(DemandCore {
            db: eval.db,
            graph: eval.graph,
            analysis,
            tuple,
            plan: eval.plan,
        });
        // Two threads may race to evaluate the same query; the first insert
        // wins and both observe one core (and both ran an evaluation).
        Ok((
            Arc::clone(self.demand.write().unwrap().entry(key).or_insert(core)),
            true,
        ))
    }

    /// How many distinct queries have been demand-evaluated on this system.
    pub fn demand_evaluations(&self) -> usize {
        self.demand.read().unwrap().len()
    }

    /// Whether the naive whole-program evaluation has been forced yet.
    pub fn fully_evaluated(&self) -> bool {
        self.full.get().is_some()
    }

    /// Snapshots the [`ExplainPlan`] of every evaluation forced so far:
    /// the naive full core (if forced) followed by the demand cores.
    /// Evaluation is never forced here — an unqueried system returns an
    /// empty vector.
    pub fn explain_plans(&self) -> Vec<ExplainPlan> {
        let mut out = Vec::new();
        if let Some(full) = self.full.get() {
            out.push(full.plan.clone());
        }
        for core in self.demand.read().unwrap().values() {
            out.push(core.plan.clone());
        }
        out
    }

    /// Total measured rule cost (candidates + firings + new tuples)
    /// across every forced evaluation. Monotone over a system's lifetime,
    /// so deltas around a request attribute evaluation cost to it: cold
    /// evaluations move this counter, memo hits don't.
    pub fn rule_cost_total(&self) -> u64 {
        let mut total = 0;
        if let Some(full) = self.full.get() {
            total += full.plan.total_cost();
        }
        for core in self.demand.read().unwrap().values() {
            total += core.plan.total_cost();
        }
        total
    }

    /// The `n` costliest source rules aggregated across every forced
    /// evaluation, as `(label, cost)` pairs sorted by descending cost
    /// (ties broken by label).
    pub fn top_rules(&self, n: usize) -> Vec<(String, u64)> {
        let mut by_label: HashMap<String, u64> = HashMap::new();
        let mut add = |plan: &ExplainPlan| {
            for rule in &plan.rules {
                *by_label.entry(rule.label.clone()).or_insert(0) += rule.cost();
            }
        };
        if let Some(full) = self.full.get() {
            add(&full.plan);
        }
        for core in self.demand.read().unwrap().values() {
            add(&core.plan);
        }
        let mut out: Vec<(String, u64)> = by_label.into_iter().filter(|&(_, c)| c > 0).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out.truncate(n);
        out
    }

    /// Opens a query session: a cheap handle with memo tables for
    /// extraction results, probabilities and whole query answers, all keyed
    /// through the shared [`DnfStore`]. Sessions can be cloned into threads
    /// (clones share their caches) and never need invalidation — the core
    /// they cache over is immutable.
    pub fn session(&self) -> QuerySession {
        QuerySession::new(self.clone())
    }

    /// Like [`P3::session`], but with explicit [`SessionOptions`] — e.g. a
    /// `max_entries` cap so a long-lived session's memo tables stay
    /// bounded, or an explicit [`EvalMode`] (the default, `auto`, picks
    /// demand evaluation for recursive programs).
    pub fn session_with(&self, opts: SessionOptions) -> QuerySession {
        QuerySession::with_options(self.clone(), opts)
    }

    /// Answers many probability queries concurrently using scoped worker
    /// threads over one shared session. Results are in query order; each
    /// query fails or succeeds independently.
    ///
    /// `threads = 0` means "auto" — the `P3_THREADS` environment variable
    /// if set (itself honouring the same `0 = auto` convention; non-numeric
    /// values are rejected), else the available cores capped at 16. See
    /// [`p3_prob::parallel::default_threads`].
    pub fn batch_probabilities(
        &self,
        queries: &[&str],
        method: ProbMethod,
        threads: usize,
    ) -> Vec<Result<f64, P3Error>> {
        self.session().batch_probabilities(queries, method, threads)
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The evaluated database (all derivable tuples). Forces the full
    /// naive evaluation.
    pub fn database(&self) -> &Database {
        &self.full().db
    }

    /// The captured provenance graph. Forces the full naive evaluation.
    pub fn graph(&self) -> &ProvGraph {
        &self.full().graph
    }

    /// The clause-variable table (one Boolean variable per clause).
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// Resolves a ground-atom query string (e.g. `know("Ben","Elena")`) to
    /// the tuple id it denotes in the full database.
    pub fn tuple(&self, query: &str) -> Result<TupleId, P3Error> {
        let (pred, args) = worlds::parse_ground_query(&self.program, query)?;
        self.tuple_of(pred, &args)
            .ok_or_else(|| P3Error::NotDerivable(query.to_string()))
    }

    /// Resolves a predicate + constant arguments to a full-database tuple
    /// id.
    pub fn tuple_of(&self, pred: Symbol, args: &[Const]) -> Option<TupleId> {
        self.full().db.lookup(pred, args)
    }

    /// Extracts the provenance polynomial of a queried tuple (unbounded
    /// depth; use [`Self::provenance_with`] for hop limits).
    pub fn provenance(&self, query: &str) -> Result<Dnf, P3Error> {
        self.provenance_with(query, ExtractOptions::unbounded())
    }

    /// Extracts the provenance polynomial with explicit extraction options.
    pub fn provenance_with(&self, query: &str, opts: ExtractOptions) -> Result<Dnf, P3Error> {
        let tuple = self.tuple(query)?;
        Ok(self.extractor().polynomial(tuple, opts))
    }

    /// Builds an extractor sharing this system's [`Analysis`], so repeated
    /// polynomial extraction — across extractors, sessions and threads —
    /// hits the same memo caches. Forces the full naive evaluation.
    pub fn extractor(&self) -> Extractor<'_> {
        let full = self.full();
        Extractor::with_analysis(&full.graph, &full.analysis)
    }

    /// The shared hash-consed formula store.
    pub fn store(&self) -> &DnfStore {
        &self.store
    }

    /// The shared extraction analysis (cycle structure + memo caches).
    /// Forces the full naive evaluation.
    pub fn analysis(&self) -> &Analysis {
        &self.full().analysis
    }

    /// The evaluation mode [`EvalMode::Auto`] resolves to for this program.
    pub fn auto_eval_mode(&self) -> EvalMode {
        EvalMode::Auto.resolve(&self.program)
    }

    /// The success probability of a queried tuple, using `method`.
    pub fn probability(&self, query: &str, method: ProbMethod) -> Result<f64, P3Error> {
        let dnf = self.provenance(query)?;
        Ok(method.probability(&dnf, &self.vars))
    }

    /// Runs an **Explanation Query** (§4.1): the complete derivations of
    /// the queried tuple plus its success probability.
    ///
    /// Uses exact probability (the polynomials users explain are small); use
    /// [`Self::explain_with`] to choose another method or a hop limit.
    pub fn explain(&self, query: &str) -> Result<Explanation, P3Error> {
        self.explain_with(query, ProbMethod::Exact, ExtractOptions::unbounded())
    }

    /// Explanation query with explicit probability method and extraction
    /// options.
    pub fn explain_with(
        &self,
        query: &str,
        method: ProbMethod,
        opts: ExtractOptions,
    ) -> Result<Explanation, P3Error> {
        let tuple = self.tuple(query)?;
        let polynomial = self.extractor().polynomial(tuple, opts);
        let probability = method.probability(&polynomial, &self.vars);
        let full = self.full();
        let text = explain::explain(&full.graph, &full.db, &self.program, tuple, opts.max_depth);
        let dot = dot::to_dot(&full.graph, &full.db, &self.program, tuple);
        Ok(Explanation {
            query: query.to_string(),
            tuple,
            num_derivations: polynomial.len(),
            polynomial,
            probability,
            text,
            dot,
        })
    }

    /// Renders the polynomial with clause labels (debugging aid).
    pub fn render_polynomial(&self, dnf: &Dnf) -> String {
        format!("{}", dnf.display(&self.vars))
    }

    /// What-if analysis: returns a copy of this system with some clause
    /// probabilities replaced, **without re-evaluating the program**.
    ///
    /// Sound because derivability (and hence the provenance graph) does not
    /// depend on probabilities — only the variable table changes. This is
    /// how a Modification Query's plan is applied cheaply; compare with
    /// re-parsing and re-running the modified program, which produces the
    /// same probabilities at fixpoint cost.
    pub fn with_probabilities(&self, changes: &[(p3_prob::VarId, f64)]) -> Result<Self, P3Error> {
        let mut program = (*self.program).clone();
        let mut vars = (*self.vars).clone();
        for &(var, prob) in changes {
            program = program.with_probability(p3_provenance::vars::clause_of(var), prob)?;
            vars.set_prob(var, prob);
        }
        // The evaluation cores and formula store are all
        // probability-independent, so the copy shares them.
        Ok(Self {
            program: Arc::new(program),
            vars: Arc::new(vars),
            store: Arc::clone(&self.store),
            full: Arc::clone(&self.full),
            demand: Arc::clone(&self.demand),
        })
    }

    /// Applies a [`crate::ModificationPlan`]'s steps as a what-if update.
    pub fn apply_plan(&self, plan: &crate::ModificationPlan) -> Result<Self, P3Error> {
        let changes: Vec<(p3_prob::VarId, f64)> =
            plan.steps.iter().map(|s| (s.var, s.to)).collect();
        self.with_probabilities(&changes)
    }

    /// The success probability of **every** tuple of a relation, sorted by
    /// descending probability — the "set of answers with confidence
    /// scores" view the VQA case study ranks over (§5.1).
    ///
    /// Returns `(tuple, rendered atom, probability)` triples. Extraction is
    /// shared across tuples via one [`Extractor`]. Forces the full naive
    /// evaluation (the query names a whole relation, not one atom).
    pub fn relation_probabilities(
        &self,
        pred_name: &str,
        method: ProbMethod,
        opts: ExtractOptions,
    ) -> Vec<(TupleId, String, f64)> {
        let Some(pred) = self.program.symbols().get(pred_name) else {
            return Vec::new();
        };
        let full = self.full();
        let Some(rel) = full.db.relation(pred) else {
            return Vec::new();
        };
        let extractor = self.extractor();
        let syms = self.program.symbols();
        let mut out: Vec<(TupleId, String, f64)> = rel
            .tuples()
            .iter()
            .map(|&t| {
                let dnf = extractor.polynomial(t, opts);
                let p = method.probability(&dnf, &self.vars);
                (t, format!("{}", full.db.display_tuple(t, syms)), p)
            })
            .collect();
        out.sort_by(|a, b| {
            b.2.partial_cmp(&a.2)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACQ: &str = r#"
        r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
        r2 0.4: know(P1,P2) :- like(P1,L), like(P2,L), P1 != P2.
        r3 0.2: know(P1,P3) :- know(P1,P2), know(P2,P3), P1 != P3.
        t1 1.0: live("Steve","DC").
        t2 1.0: live("Elena","DC").
        t3 1.0: live("Mary","NYC").
        t4 0.4: like("Steve","Veggies").
        t5 0.6: like("Elena","Veggies").
        t6 1.0: know("Ben","Steve").
    "#;

    #[test]
    fn probability_of_the_running_example() {
        let p3 = P3::from_source(ACQ).unwrap();
        let p = p3
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p - 0.16384).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn evaluation_is_lazy_and_forced_once() {
        let p3 = P3::from_source(ACQ).unwrap();
        assert!(!p3.fully_evaluated(), "loading must not evaluate");
        let copy = p3.clone();
        let _ = p3.database();
        assert!(p3.fully_evaluated());
        assert!(copy.fully_evaluated(), "clones share the forced core");
        // Demand evaluations are independent of the full core.
        assert_eq!(p3.demand_evaluations(), 0);
        let (pred, args) =
            worlds::parse_ground_query(p3.program(), r#"know("Ben","Elena")"#).unwrap();
        let core = p3.demand_core(pred, &args).unwrap();
        assert!(core.tuple.is_some());
        assert_eq!(p3.demand_evaluations(), 1);
        // Repeating the query hits the cache.
        let again = p3.demand_core(pred, &args).unwrap();
        assert!(Arc::ptr_eq(&core, &again));
        assert_eq!(copy.demand_evaluations(), 1, "cache is shared");
    }

    #[test]
    fn explain_plans_accumulate_per_forced_evaluation() {
        let p3 = P3::from_source(ACQ).unwrap();
        assert!(p3.explain_plans().is_empty(), "nothing forced yet");
        assert_eq!(p3.rule_cost_total(), 0);
        let _ = p3.database();
        let plans = p3.explain_plans();
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].mode, "naive");
        let naive_cost = p3.rule_cost_total();
        assert!(naive_cost > 0);
        let (pred, args) =
            worlds::parse_ground_query(p3.program(), r#"know("Ben","Elena")"#).unwrap();
        p3.demand_core(pred, &args).unwrap();
        assert_eq!(p3.explain_plans().len(), 2);
        assert!(p3.rule_cost_total() > naive_cost);
        // The recursive closure rule r3 does the joins; it must appear in
        // the aggregated top rules.
        let top = p3.top_rules(3);
        assert!(top.iter().any(|(l, _)| l == "r3"), "{top:?}");
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn unknown_tuple_is_reported() {
        let p3 = P3::from_source(ACQ).unwrap();
        let err = p3
            .probability(r#"know("Mary","Elena")"#, ProbMethod::Exact)
            .unwrap_err();
        assert!(matches!(err, P3Error::NotDerivable(_)), "{err}");
    }

    #[test]
    fn malformed_query_is_reported() {
        let p3 = P3::from_source(ACQ).unwrap();
        let err = p3.probability("know(", ProbMethod::Exact).unwrap_err();
        assert!(matches!(err, P3Error::BadQuery(_)), "{err}");
    }

    #[test]
    fn polynomial_renders_with_labels() {
        let p3 = P3::from_source(ACQ).unwrap();
        let dnf = p3.provenance(r#"know("Ben","Elena")"#).unwrap();
        let rendered = p3.render_polynomial(&dnf);
        assert!(rendered.contains("r3"), "{rendered}");
        assert!(rendered.contains(" + "), "two derivations: {rendered}");
    }

    #[test]
    fn relation_probabilities_rank_all_tuples() {
        let p3 = P3::from_source(ACQ).unwrap();
        let ranked =
            p3.relation_probabilities("know", ProbMethod::Exact, ExtractOptions::unbounded());
        assert!(ranked.len() >= 3, "{ranked:?}");
        // Sorted descending; know(Ben,Steve) is a certain base tuple.
        assert!(ranked.windows(2).all(|w| w[0].2 >= w[1].2));
        assert_eq!(ranked[0].1, "know(\"Ben\",\"Steve\")");
        assert!((ranked[0].2 - 1.0).abs() < 1e-12);
        // Unknown relations yield empty.
        assert!(p3
            .relation_probabilities("nothing", ProbMethod::Exact, ExtractOptions::unbounded())
            .is_empty());
    }

    #[test]
    fn what_if_update_matches_full_reevaluation() {
        let p3 = P3::from_source(ACQ).unwrap();
        let r3 = p3.program().clause_by_label("r3").unwrap();
        let var = p3_provenance::vars::var_of(r3);
        let cheap = p3.with_probabilities(&[(var, 0.6104)]).unwrap();
        let p_cheap = cheap
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        // Full re-evaluation of the modified program.
        let full = P3::from_program(p3.program().with_probability(r3, 0.6104).unwrap()).unwrap();
        let p_full = full
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p_cheap - p_full).abs() < 1e-12);
        // The original system is untouched.
        let p_orig = p3
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p_orig - 0.16384).abs() < 1e-12);
    }

    #[test]
    fn apply_plan_reaches_the_planned_probability() {
        let p3 = P3::from_source(ACQ).unwrap();
        let dnf = p3.provenance(r#"know("Ben","Elena")"#).unwrap();
        let plan = crate::query::modification::modification_query(
            &dnf,
            p3.vars(),
            0.5,
            &crate::query::modification::ModificationOptions {
                tolerance: 1e-9,
                ..Default::default()
            },
        );
        let fixed = p3.apply_plan(&plan).unwrap();
        let p = fixed
            .probability(r#"know("Ben","Elena")"#, ProbMethod::Exact)
            .unwrap();
        assert!((p - 0.5).abs() < 1e-9, "got {p}");
    }

    #[test]
    fn hop_limited_provenance_drops_derivations() {
        let p3 = P3::from_source(ACQ).unwrap();
        // know(Ben,Elena) needs depth 2 (r3 over r1/r2).
        let full = p3
            .provenance_with(r#"know("Ben","Elena")"#, ExtractOptions::with_max_depth(2))
            .unwrap();
        assert_eq!(full.len(), 2);
        let cut = p3
            .provenance_with(r#"know("Ben","Elena")"#, ExtractOptions::with_max_depth(1))
            .unwrap();
        assert!(cut.is_false());
    }
}
