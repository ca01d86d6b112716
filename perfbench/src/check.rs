//! Answer checks.
//!
//! Every served answer is reduced to a digest of the fields that carry
//! its meaning (probabilities as exact bit patterns) and compared with the
//! digest of an in-process oracle's answer to the same request:
//!
//! * `paper-interactive`: a query session of the same evaluation mode over
//!   the same program, plus the paper's pinned numbers;
//! * `trust-cold`: a naive-mode session (the served side runs demand), so
//!   demand answers must be bit-identical to naive ones;
//! * `trust-wide`: `influence_query`, `sufficient_provenance`, Shannon and
//!   seeded Monte Carlo run directly on the hop-limited polynomial.

use crate::workload::{Op, Spec, Workload};
use p3_core::{
    influence_query, sufficient_provenance, DerivationAlgo, EvalMode, InfluenceMethod,
    InfluenceOptions, ModificationOptions, ProbMethod, QuerySession, SessionOptions, P3,
};
use p3_prob::Dnf;
use p3_provenance::extract::ExtractOptions;
use p3_service::json::Value;
use p3_workloads::{acquaintance, trust, vqa};
use std::collections::HashMap;
use std::fmt::Write as _;

/// How the oracle answers.
#[derive(Clone, Copy, PartialEq)]
enum Style {
    /// Through a query session of this mode.
    Session(EvalMode),
    /// Directly on the hop-limited polynomial.
    Polynomial,
}

/// Expected answers, memoized per distinct request.
pub struct Checker {
    style: Style,
    hop: Option<usize>,
    sessions: Vec<QuerySession>,
    expected: HashMap<String, String>,
}

impl Checker {
    /// An oracle for `w`'s programs.
    pub fn new(w: &Workload) -> Checker {
        let style = match w.name {
            "trust-cold" => Style::Session(EvalMode::Naive),
            "trust-wide" => Style::Polynomial,
            _ => Style::Session(EvalMode::Auto),
        };
        let mode = match style {
            Style::Session(m) => m,
            Style::Polynomial => EvalMode::Naive,
        };
        let sessions = w
            .programs
            .iter()
            .map(|src| {
                P3::from_source(src)
                    .expect("generated program loads")
                    .session_with(SessionOptions {
                        max_entries: None,
                        eval_mode: mode,
                    })
            })
            .collect();
        Checker {
            style,
            hop: w.hop_limit,
            sessions,
            expected: HashMap::new(),
        }
    }

    fn opts(&self) -> ExtractOptions {
        self.hop
            .map_or(ExtractOptions::unbounded(), ExtractOptions::with_max_depth)
    }

    /// Checks one served response line against the oracle.
    pub fn check(&mut self, spec: &Spec, response: &str) -> Result<(), String> {
        let v = Value::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
        match v.get("status").and_then(Value::as_str) {
            Some("ok") => {}
            _ => return Err(format!("request failed: {response}")),
        }
        let result = v.get("result").ok_or("ok response without a result")?;
        let served = served_digest(&spec.op, result)
            .ok_or_else(|| format!("response lacks expected fields: {response}"))?;
        let key = format!("{}|{:?}", spec.program, spec.op);
        if !self.expected.contains_key(&key) {
            let expected = self.expected_digest(spec)?;
            self.expected.insert(key.clone(), expected);
        }
        let expected = &self.expected[&key];
        if &served == expected {
            Ok(())
        } else {
            Err(format!(
                "wrong answer to {:?}: served {served}, expected {expected}",
                spec.op
            ))
        }
    }

    fn expected_digest(&self, spec: &Spec) -> Result<String, String> {
        let session = &self.sessions[spec.program];
        let p3 = session.p3();
        let err = |e: p3_core::P3Error| e.to_string();
        if let Op::Load { .. } = spec.op {
            return Ok(format!("clauses={}", p3.program().len()));
        }
        let query = query_of(&spec.op);
        let dnf: Dnf = match self.style {
            Style::Polynomial => p3.provenance_with(query, self.opts()).map_err(err)?,
            Style::Session(_) => (*session.dnf(
                session
                    .provenance_id_with(query, self.opts())
                    .map_err(err)?,
            ))
            .clone(),
        };
        let vars = p3.vars();
        let direct = self.style == Style::Polynomial;
        Ok(match &spec.op {
            Op::Probability { method, .. } => {
                let m = method.prob_method();
                let p = if direct {
                    m.probability(&dnf, vars)
                } else {
                    session.probability_of(p3.store().intern(dnf.clone()), m)
                };
                probability_digest(p, dnf.len() as u64)
            }
            Op::Explanation { .. } => {
                let e = p3
                    .explain_with(query, ProbMethod::Exact, self.opts())
                    .map_err(err)?;
                format!(
                    "p={} n={} poly={}",
                    e.probability.to_bits(),
                    e.num_derivations,
                    p3.render_polynomial(&e.polynomial)
                )
            }
            Op::Derivation { eps, .. } => {
                let s = if direct {
                    sufficient_provenance(
                        &dnf,
                        vars,
                        *eps,
                        DerivationAlgo::NaiveGreedy,
                        ProbMethod::Exact,
                    )
                } else {
                    session.sufficient_provenance_of(
                        p3.store().intern(dnf.clone()),
                        *eps,
                        DerivationAlgo::NaiveGreedy,
                        ProbMethod::Exact,
                    )
                };
                derivation_digest(
                    s.polynomial.len() as u64,
                    s.probability,
                    s.original_probability,
                )
            }
            Op::Influence {
                top_k,
                preprocess_epsilon,
                ..
            } => {
                let opts = InfluenceOptions {
                    method: InfluenceMethod::Exact,
                    top_k: top_k.map(|k| k as usize),
                    preprocess_epsilon: *preprocess_epsilon,
                    restrict_to: None,
                };
                let entries = if direct {
                    influence_query(&dnf, vars, &opts)
                } else {
                    session.influence_of(p3.store().intern(dnf.clone()), &opts)
                };
                let mut d = String::new();
                for e in entries {
                    let _ = write!(d, "{}={};", vars.name(e.var), e.influence.to_bits());
                }
                d
            }
            Op::Modification { target, .. } => {
                let plan = session
                    .modification(
                        query,
                        *target,
                        &ModificationOptions {
                            tolerance: 1e-6,
                            ..Default::default()
                        },
                    )
                    .map_err(err)?;
                modification_digest(
                    plan.steps.len() as u64,
                    plan.achieved_probability,
                    plan.total_cost,
                    plan.reached_target,
                )
            }
            Op::Load { .. } => unreachable!("handled above"),
        })
    }

    /// The paper's pinned numbers, checked on the oracle (served answers
    /// are then held bit-identical to it): P[know("Ben","Elena")] =
    /// 0.16384; P[mutualTrustPath(1,6)] = 0.354942 with trust(6,2) the
    /// most influential trust tuple; barn wins on buggy VQA, church on
    /// fixed VQA.
    pub fn paper_facts(w: &Workload) -> Result<(), String> {
        if w.name != "paper-interactive" {
            return Ok(());
        }
        let session_of = |i: usize| P3::from_source(&w.programs[i]).expect("loads").session();
        let exact = |s: &QuerySession, q: &str| {
            s.probability(q, ProbMethod::Exact)
                .map_err(|e| e.to_string())
        };
        let acq = session_of(0);
        let p = exact(&acq, acquaintance::QUERY)?;
        if (p - 0.16384).abs() > 1e-12 {
            return Err(format!("P[know(Ben,Elena)] = {p}, paper: 0.16384"));
        }
        for (i, winner, loser) in [
            (1, vqa::ANS_BARN, vqa::ANS_CHURCH),
            (2, vqa::ANS_CHURCH, vqa::ANS_BARN),
        ] {
            let s = session_of(i);
            let (pw, pl) = (exact(&s, winner)?, exact(&s, loser)?);
            if pw <= pl {
                return Err(format!(
                    "VQA program {i}: P[{winner}]={pw} ≤ P[{loser}]={pl}"
                ));
            }
        }
        let case = session_of(3);
        let p = exact(&case, trust::CASE_STUDY_QUERY)?;
        if (p - 0.354942).abs() > 5e-7 {
            return Err(format!("P[mutualTrustPath(1,6)] = {p}, paper: 0.354942"));
        }
        let entries = case
            .influence(trust::CASE_STUDY_QUERY, &InfluenceOptions::default())
            .map_err(|e| e.to_string())?;
        let vars = case.p3().vars();
        let top_trust = entries
            .iter()
            .map(|e| vars.name(e.var))
            .find(|name| name.starts_with('t'))
            .unwrap_or("none");
        // The clause label of trust(6,2) in the case-study source.
        let t62 = w.programs[3]
            .lines()
            .find(|l| l.contains("trust(6,2)."))
            .and_then(|l| l.split_whitespace().next())
            .unwrap_or_default();
        if top_trust != t62 {
            return Err(format!(
                "top trust influence is {top_trust}, paper: trust(6,2) ({t62})"
            ));
        }
        Ok(())
    }
}

/// The query atom of a query op.
pub fn query_of(op: &Op) -> &str {
    match op {
        Op::Probability { query, .. }
        | Op::Explanation { query }
        | Op::Derivation { query, .. }
        | Op::Influence { query, .. }
        | Op::Modification { query, .. } => query,
        Op::Load { .. } => "",
    }
}

fn probability_digest(p: f64, derivations: u64) -> String {
    format!("p={} n={derivations}", p.to_bits())
}

fn derivation_digest(kept: u64, p: f64, original: f64) -> String {
    format!("kept={kept} p={} p0={}", p.to_bits(), original.to_bits())
}

fn modification_digest(steps: u64, achieved: f64, cost: f64, reached: bool) -> String {
    format!(
        "steps={steps} p={} cost={} reached={reached}",
        achieved.to_bits(),
        cost.to_bits()
    )
}

/// The digest of a served result, or `None` when a field is missing.
fn served_digest(op: &Op, r: &Value) -> Option<String> {
    let f = |k: &str| r.get(k).and_then(Value::as_f64);
    let u = |k: &str| r.get(k).and_then(Value::as_u64);
    Some(match op {
        Op::Probability { .. } => probability_digest(f("probability")?, u("derivations")?),
        Op::Explanation { .. } => format!(
            "p={} n={} poly={}",
            f("probability")?.to_bits(),
            u("num_derivations")?,
            r.get("polynomial")?.as_str()?
        ),
        Op::Derivation { .. } => {
            derivation_digest(u("kept")?, f("probability")?, f("original_probability")?)
        }
        Op::Influence { .. } => {
            let mut d = String::new();
            for e in r.get("entries")?.as_array()? {
                let _ = write!(
                    d,
                    "{}={};",
                    e.get("var")?.as_str()?,
                    e.get("influence")?.as_f64()?.to_bits()
                );
            }
            d
        }
        Op::Modification { .. } => modification_digest(
            r.get("steps")?.as_array()?.len() as u64,
            f("achieved_probability")?,
            f("total_cost")?,
            r.get("reached_target")?.as_bool()?,
        ),
        Op::Load { .. } => format!("clauses={}", u("clauses")?),
    })
}

/// The probability response the server would send.
#[cfg(test)]
fn probability_response(id: u64, p: f64, derivations: u64) -> String {
    p3_service::protocol::Response::ok(
        Some(id),
        Value::object(vec![
            ("query", Value::from("q".to_string())),
            ("probability", Value::from(p)),
            ("derivations", Value::from(derivations)),
        ]),
    )
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::error_rate_upper_bound;
    use crate::workload::Method;

    fn flagship() -> (Workload, Spec) {
        let w = Workload::generate("paper-interactive", 1).unwrap();
        let spec = Spec {
            program: 0,
            op: Op::Probability {
                query: acquaintance::QUERY.to_string(),
                method: Method::Exact,
            },
        };
        (w, spec)
    }

    #[test]
    fn paper_facts_hold() {
        let (w, _) = flagship();
        Checker::paper_facts(&w).unwrap();
    }

    #[test]
    fn an_injected_wrong_answer_counts_in_the_error_rate() {
        let (w, spec) = flagship();
        let mut checker = Checker::new(&w);
        let right = probability_response(1, 0.16384, 2);
        let wrong = probability_response(2, 0.16385, 2);
        let failed_error = r#"{"id":3,"status":"error","error":"boom"}"#;
        let outcomes: Vec<bool> = [right.as_str(), wrong.as_str(), failed_error]
            .iter()
            .map(|r| checker.check(&spec, r).is_ok())
            .collect();
        assert_eq!(outcomes, vec![true, false, false]);
        let failed = outcomes.iter().filter(|ok| !**ok).count();
        assert!(error_rate_upper_bound(failed, 3) > error_rate_upper_bound(0, 3));
    }
}
