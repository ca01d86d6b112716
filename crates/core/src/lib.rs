//! # p3-core
//!
//! The P3 query suite (§4 of the paper): the [`P3`] system facade plus the
//! four provenance query types of Table 1.
//!
//! | Query | Operation | Module |
//! |-------|-----------|--------|
//! | Explanation | derivation graph + polynomial + success probability | [`query::explanation`] |
//! | Derivation | smallest sufficient provenance within an error ε | [`query::derivation`] |
//! | Influence | (top-K) most influential clauses | [`query::influence`] |
//! | Modification | reach a target probability at minimal cost | [`query::modification`] |
//!
//! ```
//! use p3_core::P3;
//!
//! let p3 = P3::from_source(r#"
//!     r1 0.8: know(P1,P2) :- live(P1,C), live(P2,C), P1 != P2.
//!     t1 1.0: live("Steve","DC").
//!     t2 1.0: live("Elena","DC").
//! "#).unwrap();
//! let exp = p3.explain(r#"know("Steve","Elena")"#).unwrap();
//! assert!((exp.probability - 0.8).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod clock_cache;
pub mod error;
pub mod eval_mode;
pub mod persist;
pub mod prob_method;
pub mod query;
pub mod run;
pub mod session;
pub mod system;

pub use error::P3Error;
pub use eval_mode::{EvalMode, ModeDecision};
pub use p3_analyze::{rank_correlation, AnalyzePlan, PredictedRuleCost};
pub use persist::WarmRestore;
pub use prob_method::ProbMethod;
pub use query::derivation::{
    sufficient_provenance, sufficient_provenance_with, DerivationAlgo, SufficientProvenance,
};
pub use query::explain::QueryExplain;
pub use query::explanation::Explanation;
pub use query::influence::{influence_query, InfluenceEntry, InfluenceMethod, InfluenceOptions};
pub use query::modification::{
    modification_query, modification_query_with, EvalMethod, ModificationEval, ModificationOptions,
    ModificationPlan, ModificationStep, Strategy,
};
pub use run::{ForcedEvaluation, QueryRun, QuerySpec, RunAnswer, RunStage};
pub use session::{LoadOptions, QuerySession, SessionOptions, SessionStats};
pub use system::P3;
