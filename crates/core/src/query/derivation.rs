//! Derivation Query (§4.2): sufficient provenance.
//!
//! Given a polynomial `λ` and an error limit `ε`, find a subset `λS` of its
//! monomials with `|P[λ] − P[λS]| ≤ ε` — ideally the smallest such subset
//! (NP-hard, per Ré–Suciu). Two algorithms are provided:
//!
//! * **Naive greedy** (the paper's baseline, which "performs surprisingly
//!   well"): sort monomials by probability descending and drop from the
//!   cheap end while the error allows.
//! * **Ré–Suciu** (the paper's Steps 1–4, adapted from approximate lineage
//!   for probabilistic databases): find a *match* — an independent
//!   (pairwise-disjoint) sub-family whose probability is cheap to compute;
//!   if it is already an ε-approximation, return it; otherwise factor the
//!   polynomial on a shared literal and recurse on the (k−1)-literal
//!   residual.
//!
//! Because provenance is monotone and `λS`'s monomials are a subset of
//! `λ`'s, `P[λS] ≤ P[λ]` always; the error is simply `P[λ] − P[λS]`.

use crate::prob_method::ProbMethod;
use p3_prob::{Dnf, Monomial, VarId, VarTable};
use std::collections::HashMap;

/// Algorithm choice for the Derivation Query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DerivationAlgo {
    /// Drop lowest-probability monomials while the error allows.
    #[default]
    NaiveGreedy,
    /// The recursive match/factor algorithm of Ré–Suciu.
    ReSuciu,
}

impl std::str::FromStr for DerivationAlgo {
    type Err = String;

    /// Parses the CLI/wire spelling: `greedy` or `resuciu`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(DerivationAlgo::NaiveGreedy),
            "resuciu" => Ok(DerivationAlgo::ReSuciu),
            other => Err(format!("unknown algo '{other}' (expected greedy|resuciu)")),
        }
    }
}

/// The result of a Derivation Query.
#[derive(Debug, Clone)]
pub struct SufficientProvenance {
    /// The sufficient polynomial `λS` (a subset of the input's monomials).
    pub polynomial: Dnf,
    /// Monomials in the original polynomial.
    pub original_len: usize,
    /// `P[λ]` of the original polynomial.
    pub original_probability: f64,
    /// `P[λS]`.
    pub probability: f64,
    /// The achieved error `P[λ] − P[λS]` (non-negative).
    pub error: f64,
    /// `λS` monomial count divided by `λ` monomial count (Fig 11's metric).
    pub compression_ratio: f64,
}

/// Runs a Derivation Query: a sufficient provenance of `dnf` within `eps`.
pub fn sufficient_provenance(
    dnf: &Dnf,
    vars: &VarTable,
    eps: f64,
    algo: DerivationAlgo,
    method: ProbMethod,
) -> SufficientProvenance {
    sufficient_provenance_with(dnf, vars, eps, algo, &|d| method.probability(d, vars))
}

/// Like [`sufficient_provenance`], but probabilities of candidate
/// sub-polynomials are computed by `prob` (over the same variable table as
/// `vars`). Query sessions pass a memoizing evaluator here so repeated
/// Derivation Queries — and the probability evaluations they share with
/// other query classes — hit the session cache.
///
/// `vars` is still consulted directly for the closed-form monomial
/// arithmetic inside [`DerivationAlgo::ReSuciu`]; `prob` must be consistent
/// with it.
pub fn sufficient_provenance_with(
    dnf: &Dnf,
    vars: &VarTable,
    eps: f64,
    algo: DerivationAlgo,
    prob: &dyn Fn(&Dnf) -> f64,
) -> SufficientProvenance {
    let original_probability = prob(dnf);
    let polynomial = match algo {
        DerivationAlgo::NaiveGreedy => naive_greedy(dnf, vars, eps, prob, original_probability),
        DerivationAlgo::ReSuciu => re_suciu(dnf, vars, eps),
    };
    let probability = prob(&polynomial);
    let error = (original_probability - probability).max(0.0);
    let compression_ratio = if dnf.is_empty() {
        1.0
    } else {
        polynomial.len() as f64 / dnf.len() as f64
    };
    SufficientProvenance {
        polynomial,
        original_len: dnf.len(),
        original_probability,
        probability,
        error,
        compression_ratio,
    }
}

/// The paper's naive approach: sort by monomial probability descending,
/// drop from the tail while `P[λ] − P[λS] ≤ ε`.
fn naive_greedy(
    dnf: &Dnf,
    vars: &VarTable,
    eps: f64,
    prob: &dyn Fn(&Dnf) -> f64,
    p_full: f64,
) -> Dnf {
    if dnf.len() <= 1 {
        return dnf.clone();
    }
    let mut order: Vec<usize> = (0..dnf.len()).collect();
    // Descending monomial probability; stable tie-break on index.
    order.sort_by(|&a, &b| {
        let pa = dnf.monomials()[a].probability(vars);
        let pb = dnf.monomials()[b].probability(vars);
        pb.partial_cmp(&pa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    // Binary search over the kept-prefix length: P[prefix] is monotone in
    // the prefix, so the smallest admissible prefix is well-defined. This
    // replaces the paper's linear remove-one-recheck loop with the same
    // result in O(log n) probability evaluations.
    let admissible = |keep: usize| -> bool {
        let kept = dnf.select(&order[..keep]);
        p_full - prob(&kept) <= eps
    };
    let (mut lo, mut hi) = (1usize, dnf.len());
    if admissible(0) {
        return Dnf::zero();
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if admissible(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    dnf.select(&order[..lo])
}

/// The Ré–Suciu recursive algorithm (§4.2 Steps 1–4).
///
/// Probabilities of matches (independent monomial families) are computed in
/// closed form; the recursion factors on the most frequent literal and
/// splits the error budget between the factored group (scaled by the
/// literal's probability) and the remainder.
fn re_suciu(dnf: &Dnf, vars: &VarTable, eps: f64) -> Dnf {
    if dnf.len() <= 1 {
        return dnf.clone();
    }

    // Step 1: a (greedy maximal, highest-probability-first) match.
    let matched = greedy_match(dnf, vars);
    // Step 2: is the match already an ε-approximation? Both sides exact:
    // the match in closed form, the full formula via Shannon (falling back
    // to the match-only bound when the formula is too tangled).
    let p_match = match_probability(&matched, vars);
    let p_full = p3_prob::exact::try_probability(dnf, vars, 1 << 20).unwrap_or(f64::NAN);
    if !p_full.is_nan() && p_full - p_match <= eps {
        // The match may over-satisfy the budget; return the smallest subset
        // of it that still ε-approximates (errors of a disjoint family are
        // closed-form, so this pruning is exact and cheap).
        return Dnf::new(prune_match(matched, vars, p_full, eps));
    }

    // Step 3: factor on the literal shared by the most monomials.
    let Some(lit) = most_shared_literal(dnf) else {
        // No shared literal: all monomials are pairwise disjoint — the match
        // is the whole formula.
        return dnf.clone();
    };
    let mut group: Vec<Monomial> = Vec::new();
    let mut rest: Vec<Monomial> = Vec::new();
    for m in dnf.monomials() {
        if m.contains(lit) {
            group.push(strip(m, lit));
        } else {
            rest.push(m.clone());
        }
    }

    // Step 4: recurse. λ = lit·G′ + H; the error of keeping lit·G″ + H″ is
    // at most p(lit)·err(G′) + err(H), so give each branch half the budget
    // (the group's half inflated by 1/p(lit)).
    let p_lit = vars.prob(lit).max(f64::MIN_POSITIVE);
    let g_budget = (eps / 2.0) / p_lit;
    let g_suff = re_suciu(&Dnf::new(group), vars, g_budget);
    let h_suff = re_suciu(&Dnf::new(rest), vars, eps / 2.0);

    let mut out: Vec<Monomial> = h_suff.monomials().to_vec();
    for m in g_suff.monomials() {
        let mut lits = m.literals().to_vec();
        lits.push(lit);
        out.push(Monomial::new(lits));
    }
    Dnf::new(out)
}

/// Greedy maximal independent family, highest-probability monomials first.
fn greedy_match(dnf: &Dnf, vars: &VarTable) -> Vec<Monomial> {
    let mut order: Vec<&Monomial> = dnf.monomials().iter().collect();
    order.sort_by(|a, b| {
        let pa = a.probability(vars);
        let pb = b.probability(vars);
        pb.partial_cmp(&pa)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    let mut matched: Vec<Monomial> = Vec::new();
    for m in order {
        if matched.iter().all(|k| k.disjoint(m)) {
            matched.push(m.clone());
        }
    }
    matched
}

/// `P[⋃ m_i]` for pairwise-disjoint monomials: `1 − Π(1 − P[m_i])`.
fn match_probability(matched: &[Monomial], vars: &VarTable) -> f64 {
    1.0 - matched
        .iter()
        .map(|m| 1.0 - m.probability(vars))
        .product::<f64>()
}

/// Drops the lowest-probability monomials from a disjoint family while the
/// remainder still ε-approximates `p_full`.
fn prune_match(
    mut matched: Vec<Monomial>,
    vars: &VarTable,
    p_full: f64,
    eps: f64,
) -> Vec<Monomial> {
    // Ascending probability, so the cheapest candidates are at the tail's
    // mirror; pop from the front after sorting ascending.
    matched.sort_by(|a, b| {
        let pa = a.probability(vars);
        let pb = b.probability(vars);
        pa.partial_cmp(&pb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(b))
    });
    while !matched.is_empty() {
        let without_first = &matched[1..];
        if p_full - match_probability(without_first, vars) <= eps {
            matched.remove(0);
        } else {
            break;
        }
    }
    matched
}

/// The literal occurring in the most monomials, provided it is shared by at
/// least two.
fn most_shared_literal(dnf: &Dnf) -> Option<VarId> {
    let mut counts: HashMap<VarId, usize> = HashMap::new();
    for m in dnf.monomials() {
        for &l in m.literals() {
            *counts.entry(l).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .filter(|&(_, c)| c >= 2)
        .max_by_key(|&(v, c)| (c, std::cmp::Reverse(v)))
        .map(|(v, _)| v)
}

fn strip(m: &Monomial, lit: VarId) -> Monomial {
    Monomial::new(m.literals().iter().copied().filter(|&l| l != lit).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_prob::exact;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    fn m(lits: &[u32]) -> Monomial {
        Monomial::new(lits.iter().map(|&i| v(i)).collect())
    }

    fn table(probs: &[f64]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &p) in probs.iter().enumerate() {
            t.add(format!("x{i}"), p);
        }
        t
    }

    /// The acquaintance polynomial: r3·t6·r1·t1·t2 + r3·t6·r2·t4·t5.
    fn acquaintance() -> (Dnf, VarTable) {
        let vars = table(&[0.8, 0.4, 0.2, 1.0, 1.0, 0.4, 0.6, 1.0]);
        let dnf = Dnf::new(vec![m(&[2, 7, 0, 3, 4]), m(&[2, 7, 1, 5, 6])]);
        (dnf, vars)
    }

    #[test]
    fn tiny_epsilon_keeps_everything() {
        // The paper's Query 2 with ε = 0.001: both derivations stay.
        let (dnf, vars) = acquaintance();
        for algo in [DerivationAlgo::NaiveGreedy, DerivationAlgo::ReSuciu] {
            let s = sufficient_provenance(&dnf, &vars, 0.001, algo, ProbMethod::Exact);
            assert_eq!(s.polynomial.len(), 2, "{algo:?}");
            assert!(s.error <= 0.001);
        }
    }

    #[test]
    fn looser_epsilon_keeps_only_the_strong_derivation() {
        // The paper's Query 2 with ε = 0.01: only the live-in-DC derivation
        // remains. (Removing the r2 monomial changes P by
        // 0.16384 − 0.16 = 0.00384 ≤ 0.01.)
        let (dnf, vars) = acquaintance();
        let s = sufficient_provenance(
            &dnf,
            &vars,
            0.01,
            DerivationAlgo::NaiveGreedy,
            ProbMethod::Exact,
        );
        assert_eq!(s.polynomial.len(), 1);
        let kept = &s.polynomial.monomials()[0];
        assert!(kept.contains(v(0)), "the r1 derivation is the one kept");
        assert!(s.error <= 0.01);
        assert!((s.original_probability - 0.16384).abs() < 1e-12);
        assert!((s.probability - 0.16).abs() < 1e-12);
        assert!((s.compression_ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_bound_holds_on_random_formulas() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..30 {
            let nvars = rng.random_range(3..8usize);
            let probs: Vec<f64> = (0..nvars).map(|_| rng.random::<f64>()).collect();
            let vars = table(&probs);
            let nmono = rng.random_range(2..8usize);
            let monomials: Vec<Monomial> = (0..nmono)
                .map(|_| {
                    let len = rng.random_range(1..=3usize);
                    Monomial::new(
                        (0..len)
                            .map(|_| v(rng.random_range(0..nvars) as u32))
                            .collect(),
                    )
                })
                .collect();
            let dnf = Dnf::new(monomials);
            let eps = rng.random::<f64>() * 0.2;
            for algo in [DerivationAlgo::NaiveGreedy, DerivationAlgo::ReSuciu] {
                let s = sufficient_provenance(&dnf, &vars, eps, algo, ProbMethod::Exact);
                assert!(
                    s.error <= eps + 1e-9,
                    "trial {trial} {algo:?}: err {} > eps {eps}",
                    s.error
                );
                // λS must be a sub-formula: every kept monomial appears in λ.
                for kept in s.polynomial.monomials() {
                    assert!(dnf.monomials().contains(kept), "trial {trial} {algo:?}");
                }
            }
        }
    }

    #[test]
    fn epsilon_one_allows_dropping_everything() {
        let (dnf, vars) = acquaintance();
        let s = sufficient_provenance(
            &dnf,
            &vars,
            1.0,
            DerivationAlgo::NaiveGreedy,
            ProbMethod::Exact,
        );
        assert!(s.polynomial.is_false());
        assert_eq!(s.compression_ratio, 0.0);
    }

    #[test]
    fn match_of_disjoint_formula_is_exact() {
        // Pairwise-disjoint monomials: the match is everything; Ré–Suciu
        // should return it unchanged for eps=0.
        let vars = table(&[0.5, 0.4, 0.3, 0.2]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[2, 3])]);
        let s = sufficient_provenance(&dnf, &vars, 0.0, DerivationAlgo::ReSuciu, ProbMethod::Exact);
        assert_eq!(s.polynomial.len(), 2);
        assert!(
            (match_probability(&greedy_match(&dnf, &vars), &vars)
                - exact::probability(&dnf, &vars))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn re_suciu_factors_shared_literals() {
        // x0 shared by all monomials; with generous eps the match (a single
        // monomial) suffices and the result is small.
        let vars = table(&[0.9, 0.5, 0.5, 0.5]);
        let dnf = Dnf::new(vec![m(&[0, 1]), m(&[0, 2]), m(&[0, 3])]);
        let s = sufficient_provenance(&dnf, &vars, 0.3, DerivationAlgo::ReSuciu, ProbMethod::Exact);
        assert!(s.polynomial.len() < 3, "some reduction expected");
        assert!(s.error <= 0.3 + 1e-12);
    }

    #[test]
    fn single_monomial_is_returned_as_is() {
        let vars = table(&[0.5, 0.4]);
        let dnf = Dnf::new(vec![m(&[0, 1])]);
        for algo in [DerivationAlgo::NaiveGreedy, DerivationAlgo::ReSuciu] {
            let s = sufficient_provenance(&dnf, &vars, 0.05, algo, ProbMethod::Exact);
            assert_eq!(s.polynomial, dnf, "{algo:?}");
        }
    }
}
