//! Selecting how `P[λ]` is computed.
//!
//! The paper evaluates polynomial probabilities by Monte-Carlo simulation
//! (the general case is #P-hard); this crate additionally offers the exact
//! Shannon/BDD backends, which double as test oracles and as fast paths for
//! small formulas.

use p3_prob::{bdd::Bdd, exact, mc, parallel, Dnf, McConfig, VarTable};

/// A probability computation strategy.
///
/// `Eq`/`Hash` hold because every variant's payload is integral; query
/// sessions key probability memo tables on `(DnfId, ProbMethod)`. This is
/// sound for the Monte-Carlo variants because estimates are deterministic
/// per [`McConfig::seed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbMethod {
    /// Shannon expansion with independence factoring. Exact; may be
    /// expensive on large, tangled formulas.
    Exact,
    /// Compile to a reduced ordered BDD and weighted-model-count. Exact.
    Bdd,
    /// Naive Monte-Carlo sampling.
    MonteCarlo(McConfig),
    /// The Karp–Luby coverage estimator (better relative error for small
    /// probabilities).
    KarpLuby(McConfig),
    /// Naive Monte-Carlo split across the given number of threads.
    ParallelMc(McConfig, usize),
}

impl Default for ProbMethod {
    fn default() -> Self {
        ProbMethod::MonteCarlo(McConfig::default())
    }
}

impl ProbMethod {
    /// Parses a backend name — `exact`, `bdd`, `mc`, `kl` or `pmc` — the
    /// one spelling shared by the CLI and the wire protocol. The sampling
    /// backends take `cfg`; `pmc` also takes `threads` (`0` = auto).
    pub fn parse(name: &str, cfg: McConfig, threads: usize) -> Result<Self, String> {
        match name {
            "exact" => Ok(ProbMethod::Exact),
            "bdd" => Ok(ProbMethod::Bdd),
            "mc" => Ok(ProbMethod::MonteCarlo(cfg)),
            "kl" => Ok(ProbMethod::KarpLuby(cfg)),
            "pmc" => Ok(ProbMethod::ParallelMc(cfg, threads)),
            other => Err(format!(
                "unknown method '{other}' (expected exact|bdd|mc|kl|pmc)"
            )),
        }
    }

    /// Computes `P[λ]` with this strategy.
    pub fn probability(self, dnf: &Dnf, vars: &VarTable) -> f64 {
        match self {
            ProbMethod::Exact => exact::probability(dnf, vars),
            ProbMethod::Bdd => {
                let mut bdd = Bdd::new();
                let node = bdd.from_dnf(dnf);
                bdd.wmc(node, vars)
            }
            ProbMethod::MonteCarlo(cfg) => mc::estimate(dnf, vars, cfg),
            ProbMethod::KarpLuby(cfg) => mc::karp_luby(dnf, vars, cfg),
            ProbMethod::ParallelMc(cfg, threads) => parallel::estimate(dnf, vars, cfg, threads),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_prob::Monomial;

    fn setup() -> (Dnf, VarTable) {
        let mut vars = VarTable::new();
        let a = vars.add("a", 0.5);
        let b = vars.add("b", 0.4);
        let c = vars.add("c", 0.2);
        let dnf = Dnf::new(vec![Monomial::new(vec![a, b]), Monomial::new(vec![a, c])]);
        (dnf, vars)
    }

    #[test]
    fn all_methods_agree_within_tolerance() {
        let (dnf, vars) = setup();
        let exact = ProbMethod::Exact.probability(&dnf, &vars);
        let bdd = ProbMethod::Bdd.probability(&dnf, &vars);
        assert!((exact - bdd).abs() < 1e-12);
        let cfg = McConfig {
            samples: 200_000,
            seed: 1,
        };
        for m in [
            ProbMethod::MonteCarlo(cfg),
            ProbMethod::KarpLuby(cfg),
            ProbMethod::ParallelMc(cfg, 4),
        ] {
            let est = m.probability(&dnf, &vars);
            assert!((est - exact).abs() < 0.01, "{m:?}: {est} vs {exact}");
        }
    }

    #[test]
    fn default_is_monte_carlo() {
        assert!(matches!(ProbMethod::default(), ProbMethod::MonteCarlo(_)));
    }
}
