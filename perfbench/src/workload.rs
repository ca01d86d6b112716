//! Seeded workload generation.
//!
//! The seed fixes everything a run sends: the trust network, the BFS
//! sample, the atom order, the warm-up set and every request line. The
//! server only ever receives the generated program text and the request
//! lines; the in-process systems built here are used to pick atoms by
//! measured polynomial width and, later, as answer oracles.

use p3_core::{EvalMode, ProbMethod, SessionOptions, P3};
use p3_datalog::engine::TupleId;
use p3_prob::Dnf;
use p3_provenance::extract::ExtractOptions;
use p3_service::json::Value;
use p3_workloads::{acquaintance, trust, vqa};
use std::collections::HashSet;
use std::ops::Range;

/// The hop limit of the trust workloads (the Fig 10 setting).
pub const HOP_LIMIT: usize = 4;
/// Nodes per trust BFS sample (the Fig 9/10 size used here).
pub const SAMPLE_NODES: usize = 300;
/// Accepted edge counts of a trust sample. BFS samples of the same node
/// count vary in density, and density sets both the per-query demand cost
/// and the polynomial widths; holding it in a band keeps runs with
/// different seeds comparable.
pub const SAMPLE_EDGES: std::ops::RangeInclusive<usize> = 470..=530;
/// Widths (monomials) of the hop-limited polynomials `trust-wide` asks
/// about. The widest polynomial of a sample ranges from under 20 to over
/// 700 monomials between seeds; a fixed band keeps seeds comparable.
pub const WIDE_BAND: std::ops::RangeInclusive<usize> = 16..=64;
/// The Fig 11 ε sweep, as shares of the query's probability.
const EPS_SWEEP: [f64; 8] = [0.001, 0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.1];
/// BFS samples side by side in the `trust-wide` program.
const WIDE_SAMPLES: usize = 4;
/// Polynomials `trust-wide` asks about, drawn at random from the band.
const POOL_MAX: usize = 32;
/// `trust-cold` asks only atoms whose hop-limited polynomial has at most
/// this many monomials, so exact answers stay cheap and every request
/// costs about one demand evaluation.
const COLD_MAX_WIDTH: usize = 24;
/// BFS samples a `trust-cold` run covers, one per segment of its timed
/// phase, each against its own server. On the reference box the speed of
/// one server process over a segment varied by up to half between
/// processes, whatever the sample; a run over many processes and samples
/// averages that out.
pub const COLD_SAMPLES: usize = 8;
/// Distinct atoms prepared per `trust-cold` sample; a run stops early (and
/// says so) if a segment ever exhausts them.
const COLD_POOL: usize = 2_000;
/// Cold atoms of each sample answered during warm-up (never asked again in
/// the run).
const COLD_WARMUP: usize = 16;
/// Requests per `paper-interactive` phase; a program load separates
/// phases.
pub const PHASE_LEN: u64 = 3000;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["paper-interactive", "trust-cold", "trust-wide"];

/// SplitMix64: the benchmark's only source of randomness.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Probability backend of a request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Method {
    /// Shannon expansion.
    Exact,
    /// Seeded Monte Carlo.
    Mc { samples: u64, seed: u64 },
    /// Seeded Monte Carlo over a fixed number of threads.
    Pmc {
        samples: u64,
        seed: u64,
        threads: u64,
    },
}

impl Method {
    /// The `p3_core` backend the server parses the same request into.
    pub fn prob_method(self) -> ProbMethod {
        match self {
            Method::Exact => ProbMethod::Exact,
            Method::Mc { samples, seed } => ProbMethod::MonteCarlo(p3_prob::McConfig {
                samples: samples as usize,
                seed,
            }),
            Method::Pmc {
                samples,
                seed,
                threads,
            } => ProbMethod::ParallelMc(
                p3_prob::McConfig {
                    samples: samples as usize,
                    seed,
                },
                threads as usize,
            ),
        }
    }
}

/// What one request asks.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// `probability`.
    Probability { query: String, method: Method },
    /// `explanation` (exact).
    Explanation { query: String },
    /// `derivation` (greedy, exact) within `eps`.
    Derivation { query: String, eps: f64 },
    /// `influence` (exact).
    Influence {
        query: String,
        top_k: Option<u64>,
        preprocess_epsilon: Option<f64>,
    },
    /// `modification` towards `target`.
    Modification { query: String, target: f64 },
    /// `load-program` of the workload's program `index`.
    Load { index: usize },
}

impl Op {
    /// The op's wire name, with the backend for probabilities.
    pub fn class(&self) -> &'static str {
        match self {
            Op::Probability {
                method: Method::Exact,
                ..
            } => "probability",
            Op::Probability {
                method: Method::Mc { .. },
                ..
            } => "probability/mc",
            Op::Probability {
                method: Method::Pmc { .. },
                ..
            } => "probability/pmc",
            Op::Explanation { .. } => "explanation",
            Op::Derivation { .. } => "derivation",
            Op::Influence { .. } => "influence",
            Op::Modification { .. } => "modification",
            Op::Load { .. } => "load-program",
        }
    }
}

/// One request: the program it runs against and what it asks.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Index into [`Workload::programs`] of the program it is answered on.
    pub program: usize,
    /// The operation.
    pub op: Op,
}

/// A generated workload.
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// The seed everything was derived from.
    pub seed: u64,
    /// Program sources; `programs[0]` is what the server boots with.
    pub programs: Vec<String>,
    /// `hop_limit` sent with every query.
    pub hop_limit: Option<usize>,
    /// `eval_mode` override sent with every query.
    pub eval_mode: Option<EvalMode>,
    /// Requests answered after boot and before timing starts.
    pub warmup: Vec<Spec>,
    kind: Kind,
}

enum Kind {
    /// Phases of [`PHASE_LEN`] requests, each drawn from the current
    /// program's pool; phase `p` runs program `p % programs.len()`.
    Phased { pools: Vec<Vec<Op>> },
    /// Request `i` asks about `atoms[i]`, each atom once; sample `s`'s
    /// atoms are `atoms[starts[s]..starts[s + 1]]`.
    Cold {
        atoms: Vec<ColdAtom>,
        starts: Vec<u64>,
    },
    /// Requests drawn from a pool of in-band polynomials.
    Wide { pool: Vec<WideAtom> },
}

/// A `trust-cold` atom of sample (program) `program`, with its exact
/// probability (for ε).
struct ColdAtom {
    program: usize,
    query: String,
    probability: f64,
}

/// A `trust-wide` atom: its exact probability (for ε), width, and the
/// Monte-Carlo sample count that buys [`MC_WORK`] units of sampling work.
struct WideAtom {
    query: String,
    probability: f64,
    monomials: usize,
    mc_samples: u64,
}

/// Sampling work one `trust-wide` Monte-Carlo request asks for, in
/// variable draws plus literal tests (see [`work_per_sample`]). Sizing the
/// sample count to the polynomial keeps the request's cost independent of
/// which polynomials a seed's sample happens to hold.
const MC_WORK: f64 = 400_000.0;

/// Variable draws plus literal tests one naive Monte-Carlo sample of `dnf`
/// costs on average: every variable is drawn, then monomials are tested in
/// order until one holds, each until its first false literal. Averaged
/// over a fixed-seed simulation, so it is deterministic.
fn work_per_sample(dnf: &Dnf, vars: &p3_prob::VarTable) -> f64 {
    const ROUNDS: u64 = 256;
    let order = dnf.vars();
    let mut value = vec![false; order.len()];
    let slot = |v: p3_prob::VarId| order.binary_search(&v).expect("own variable");
    let mut tests = 0u64;
    for round in 0..ROUNDS {
        for (k, &v) in order.iter().enumerate() {
            let u = (mix(round, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
            value[k] = u < vars.prob(v);
        }
        for m in dnf.monomials() {
            let mut holds = true;
            for &l in m.literals() {
                tests += 1;
                if !value[slot(l)] {
                    holds = false;
                    break;
                }
            }
            if holds {
                break;
            }
        }
    }
    order.len() as f64 + tests as f64 / ROUNDS as f64
}

impl Workload {
    /// Generates workload `name` from `seed`.
    pub fn generate(name: &str, seed: u64) -> Result<Workload, String> {
        match name {
            "paper-interactive" => Ok(paper_interactive(seed)),
            "trust-cold" => Ok(trust_cold(seed)),
            "trust-wide" => Ok(trust_wide(seed)),
            other => Err(format!(
                "unknown workload '{other}' (expected one of {})",
                NAMES.join(", ")
            )),
        }
    }

    /// Requests per phase, for workloads with program loads between phases.
    pub fn phase_len(&self) -> Option<u64> {
        matches!(self.kind, Kind::Phased { .. }).then_some(PHASE_LEN)
    }

    /// The timed phase's segments: the request indices each may claim.
    /// Segment `s` runs against a server booted with `programs[s]`. Only
    /// `trust-cold` has more than one, one per sample; the others run one
    /// unbounded segment.
    pub fn segments(&self) -> Vec<Range<u64>> {
        match &self.kind {
            Kind::Cold { starts, .. } => starts.windows(2).map(|w| w[0]..w[1]).collect(),
            _ => vec![0..u64::MAX],
        }
    }

    /// The warm-up of a server booted with `programs[program]`.
    pub fn warmup_of(&self, program: usize) -> impl Iterator<Item = &Spec> {
        self.warmup.iter().filter(move |s| s.program == program)
    }

    /// The load that opens phase `phase` (none for phase 0: the server
    /// booted with that program).
    pub fn phase_load(&self, phase: u64) -> Option<Spec> {
        let n = self.programs.len() as u64;
        let phased = matches!(self.kind, Kind::Phased { .. });
        (phased && phase > 0 && n > 1).then(|| {
            let index = (phase % n) as usize;
            Spec {
                program: index,
                op: Op::Load { index },
            }
        })
    }

    /// The `i`-th timed request.
    pub fn request(&self, i: u64) -> Spec {
        let r = mix(self.seed, i);
        match &self.kind {
            Kind::Phased { pools } => {
                let program = ((i / PHASE_LEN) % pools.len() as u64) as usize;
                let pool = &pools[program];
                Spec {
                    program,
                    op: pool[(r % pool.len() as u64) as usize].clone(),
                }
            }
            Kind::Cold { atoms, .. } => {
                let atom = &atoms[i as usize];
                let query = atom.query.clone();
                let op = match r % 100 {
                    0..=79 => Op::Probability {
                        query,
                        method: Method::Exact,
                    },
                    80..=87 => Op::Derivation {
                        query,
                        eps: 0.05 * atom.probability,
                    },
                    88..=94 => Op::Influence {
                        query,
                        top_k: Some(5),
                        preprocess_epsilon: None,
                    },
                    _ => Op::Explanation { query },
                };
                Spec {
                    program: atom.program,
                    op,
                }
            }
            Kind::Wide { pool } => {
                let atom = &pool[((r >> 8) % pool.len() as u64) as usize];
                // Derivation and influence run Shannon expansion many
                // times per request: they ask about the pool's narrowest
                // quarter (plain influence is answered in warm-up), so
                // their first, unmemoized answers stay few and cheap
                // enough not to set the tail.
                let narrow = &pool[((r >> 8) % narrow_len(pool)) as usize];
                // The Fig 11 ε sweep, as a share of P.
                let sweep = EPS_SWEEP[((r >> 40) % EPS_SWEEP.len() as u64) as usize];
                let query = atom.query.clone();
                let op = match r % 100 {
                    0..=66 => Op::Probability {
                        query,
                        method: Method::Mc {
                            samples: atom.mc_samples,
                            seed: i,
                        },
                    },
                    // A tighter estimate: eight times the samples. Its
                    // work, not scheduling noise, sets the p99.
                    67..=69 => Op::Probability {
                        query,
                        method: Method::Mc {
                            samples: 8 * atom.mc_samples,
                            seed: i,
                        },
                    },
                    70..=74 => Op::Probability {
                        query,
                        method: Method::Pmc {
                            samples: 2 * atom.mc_samples,
                            seed: i,
                            threads: 2,
                        },
                    },
                    75..=84 => Op::Probability {
                        query,
                        method: Method::Exact,
                    },
                    85..=94 => Op::Derivation {
                        query: narrow.query.clone(),
                        eps: narrow.probability * sweep,
                    },
                    95..=97 => Op::Influence {
                        query: narrow.query.clone(),
                        top_k: Some(5),
                        preprocess_epsilon: None,
                    },
                    _ => Op::Influence {
                        query: narrow.query.clone(),
                        top_k: Some(5),
                        preprocess_epsilon: Some(narrow.probability * sweep),
                    },
                };
                Spec { program: 0, op }
            }
        }
    }

    /// The request line for `spec` with correlation id `id`.
    pub fn line(&self, spec: &Spec, id: u64) -> String {
        let mut pairs: Vec<(&str, Value)> = vec![("id", Value::from(id))];
        let query_op = |pairs: &mut Vec<(&str, Value)>, op: &str, query: &str| {
            pairs.push(("op", Value::from(op.to_string())));
            pairs.push(("query", Value::from(query.to_string())));
            if let Some(h) = self.hop_limit {
                pairs.push(("hop_limit", Value::from(h)));
            }
            if let Some(m) = self.eval_mode {
                pairs.push(("eval_mode", Value::from(m.as_str().to_string())));
            }
        };
        match &spec.op {
            Op::Probability { query, method } => {
                query_op(&mut pairs, "probability", query);
                push_method(&mut pairs, *method);
            }
            Op::Explanation { query } => query_op(&mut pairs, "explanation", query),
            Op::Derivation { query, eps } => {
                query_op(&mut pairs, "derivation", query);
                pairs.push(("eps", Value::from(*eps)));
            }
            Op::Influence {
                query,
                top_k,
                preprocess_epsilon,
            } => {
                query_op(&mut pairs, "influence", query);
                if let Some(k) = top_k {
                    pairs.push(("top_k", Value::from(*k)));
                }
                if let Some(e) = preprocess_epsilon {
                    pairs.push(("preprocess_epsilon", Value::from(*e)));
                }
            }
            Op::Modification { query, target } => {
                query_op(&mut pairs, "modification", query);
                pairs.push(("target", Value::from(*target)));
            }
            Op::Load { index } => {
                pairs.push(("op", Value::from("load-program".to_string())));
                pairs.push(("source", Value::from(self.programs[*index].clone())));
            }
        }
        Value::object(pairs).to_json()
    }
}

fn push_method(pairs: &mut Vec<(&str, Value)>, method: Method) {
    match method {
        Method::Exact => {}
        Method::Mc { samples, seed } => {
            pairs.push(("method", Value::from("mc".to_string())));
            pairs.push(("samples", Value::from(samples)));
            pairs.push(("seed", Value::from(seed)));
        }
        Method::Pmc {
            samples,
            seed,
            threads,
        } => {
            pairs.push(("method", Value::from("pmc".to_string())));
            pairs.push(("samples", Value::from(samples)));
            pairs.push(("seed", Value::from(seed)));
            pairs.push(("threads", Value::from(threads)));
        }
    }
}

/// Rendered tuples of `pred` in `p3`'s naive model, in insertion order.
fn atoms_of(p3: &P3, pred: &str) -> Vec<(TupleId, String)> {
    let db = p3.database();
    let Some(sym) = p3.program().symbols().get(pred) else {
        return Vec::new();
    };
    db.relation(sym)
        .map(|rel| {
            rel.tuples()
                .iter()
                .map(|&t| (t, db.display_tuple(t, p3.program().symbols()).to_string()))
                .collect()
        })
        .unwrap_or_default()
}

/// The §4.4 / §5.1 / §5.2 programs with their answer predicate and the
/// paper's modification target for the flagship atom.
fn paper_programs() -> Vec<(String, &'static str, &'static str, Option<f64>)> {
    vec![
        (
            acquaintance::SOURCE.to_string(),
            "know",
            acquaintance::QUERY,
            Some(0.5),
        ),
        // Buggy VQA: the fix raises P[church] to P[barn] (Query 1C).
        (
            vqa::church_image_buggy().to_source(),
            "ans",
            vqa::ANS_CHURCH,
            None,
        ),
        (
            vqa::church_image_fixed().to_source(),
            "ans",
            vqa::ANS_CHURCH,
            None,
        ),
        (
            trust::case_study_source(),
            "mutualTrustPath",
            trust::CASE_STUDY_QUERY,
            Some(0.7),
        ),
    ]
}

fn paper_interactive(seed: u64) -> Workload {
    let mut programs = Vec::new();
    let mut pools = Vec::new();
    for (source, pred, flagship, target) in paper_programs() {
        let p3 = P3::from_source(&source).expect("paper program loads");
        let session = p3.session();
        let exact = |q: &str| session.probability(q, ProbMethod::Exact).expect("answer");
        let barn = p3
            .tuple(vqa::ANS_BARN)
            .is_ok()
            .then(|| exact(vqa::ANS_BARN));
        let mut pool = Vec::new();
        for (_, query) in atoms_of(&p3, pred) {
            let p = exact(&query);
            let target = match (query == flagship, target, barn) {
                (true, Some(t), _) => t,
                (true, None, Some(b)) => b,
                _ => p + (1.0 - p) / 2.0,
            };
            // A debugging session mostly re-asks probabilities, sometimes
            // drills into derivations, influence and explanations, and
            // now and then asks for a fix.
            let ops = [
                (
                    8,
                    Op::Probability {
                        query: query.clone(),
                        method: Method::Exact,
                    },
                ),
                (
                    3,
                    Op::Derivation {
                        query: query.clone(),
                        eps: 0.05 * p,
                    },
                ),
                (
                    3,
                    Op::Influence {
                        query: query.clone(),
                        top_k: None,
                        preprocess_epsilon: None,
                    },
                ),
                (
                    2,
                    Op::Explanation {
                        query: query.clone(),
                    },
                ),
                (1, Op::Modification { query, target }),
            ];
            for (weight, op) in ops {
                pool.extend(std::iter::repeat_n(op, weight));
            }
        }
        programs.push(source);
        pools.push(pool);
    }
    let mut warmup: Vec<Spec> = Vec::new();
    for op in &pools[0] {
        let spec = Spec {
            program: 0,
            op: op.clone(),
        };
        if !warmup.contains(&spec) {
            warmup.push(spec);
        }
    }
    Workload {
        name: "paper-interactive",
        seed,
        programs,
        hop_limit: None,
        eval_mode: None,
        warmup,
        kind: Kind::Phased { pools },
    }
}

/// Seeded 300-node BFS samples of a seeded OTC-size network whose edge
/// count lies in [`SAMPLE_EDGES`], in attempt order.
fn trust_samples(seed: u64) -> impl Iterator<Item = trust::TrustNetwork> {
    let net = trust::generate(trust::NetworkConfig {
        seed: mix(seed, 0x0c0),
        ..trust::NetworkConfig::default()
    });
    (1u64..).filter_map(move |attempt| {
        let sample = net.sample_bfs(SAMPLE_NODES, mix(seed, attempt));
        SAMPLE_EDGES.contains(&sample.edges.len()).then_some(sample)
    })
}

/// How many of a width-sorted `trust-wide` pool count as narrow.
fn narrow_len(pool: &[WideAtom]) -> u64 {
    (pool.len() as u64 / 4).max(1)
}

/// `P3` with hop-limited polynomial extraction over its naive model.
fn hop_polynomial(p3: &P3, tuple: TupleId) -> Dnf {
    p3.extractor()
        .polynomial(tuple, ExtractOptions::with_max_depth(HOP_LIMIT))
}

fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    for i in (1..items.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

fn trust_cold(seed: u64) -> Workload {
    let mut programs = Vec::new();
    let mut warmup = Vec::new();
    let mut atoms = Vec::new();
    let mut starts = vec![0];
    for (program, sample) in trust_samples(seed).take(COLD_SAMPLES).enumerate() {
        let source = sample.to_source();
        let p3 = P3::from_source(&source).expect("trust sample loads");
        let mut candidates = atoms_of(&p3, "mutualTrustPath");
        candidates.extend(atoms_of(&p3, "trustPath"));
        let session = p3.session_with(SessionOptions {
            max_entries: None,
            eval_mode: EvalMode::Naive,
        });
        let mut pool = Vec::new();
        for (tuple, query) in shuffled(candidates, mix(seed, 0xa70 + program as u64)) {
            if pool.len() == COLD_POOL + COLD_WARMUP {
                break;
            }
            let dnf = hop_polynomial(&p3, tuple);
            if dnf.is_false() || dnf.len() > COLD_MAX_WIDTH {
                continue;
            }
            let probability =
                session.probability_of(session.p3().store().intern(dnf), ProbMethod::Exact);
            pool.push(ColdAtom {
                program,
                query,
                probability,
            });
        }
        let timed = pool.split_off(COLD_WARMUP.min(pool.len()));
        // The first explanation forces the whole naive model (a known
        // defect), so warm-up asks one: the forcing lands in `setup_s`, not
        // in one request of each segment's timed phase.
        warmup.push(Spec {
            program,
            op: Op::Explanation {
                query: pool[0].query.clone(),
            },
        });
        warmup.extend(pool.into_iter().map(|a| Spec {
            program,
            op: Op::Probability {
                query: a.query,
                method: Method::Exact,
            },
        }));
        atoms.extend(timed);
        starts.push(atoms.len() as u64);
        programs.push(source);
    }
    Workload {
        name: "trust-cold",
        seed,
        programs,
        hop_limit: Some(HOP_LIMIT),
        eval_mode: None,
        warmup,
        kind: Kind::Cold { atoms, starts },
    }
}

fn trust_wide(seed: u64) -> Workload {
    // Several samples side by side (node ids kept apart), as Figs 11-14
    // average over samples: one sample's polynomials share its structure,
    // so a pool drawn from one sample is only a few shapes deep. Samples
    // are added until the band holds enough distinct polynomials.
    let mut edges = Vec::new();
    let mut num_nodes = 0;
    let mut band: Vec<String> = Vec::new();
    for (k, sample) in trust_samples(seed).enumerate() {
        let offset = 1_000_000 * k as u32;
        let sample = trust::TrustNetwork {
            edges: sample
                .edges
                .iter()
                .map(|&(a, b, p)| (a + offset, b + offset, p))
                .collect(),
            num_nodes: sample.num_nodes,
        };
        let p3 = P3::from_source(&sample.to_source()).expect("trust sample loads");
        // Every fourth atom is enough to fill the pool; extracting all of
        // them costs seconds.
        let mut seen: HashSet<Dnf> = HashSet::new();
        for (t, query) in atoms_of(&p3, "mutualTrustPath").into_iter().step_by(4) {
            let dnf = hop_polynomial(&p3, t);
            if WIDE_BAND.contains(&dnf.len()) && seen.insert(dnf) {
                band.push(query);
            }
        }
        edges.extend(sample.edges);
        num_nodes += sample.num_nodes;
        if k + 1 >= WIDE_SAMPLES && band.len() >= POOL_MAX {
            break;
        }
    }
    let source = trust::TrustNetwork { edges, num_nodes }.to_source();
    let p3 = P3::from_source(&source).expect("trust samples load");
    let mut pool: Vec<WideAtom> = shuffled(band, mix(seed, 0x1de))
        .into_iter()
        .take(POOL_MAX)
        .map(|query| {
            let tuple = p3.tuple(&query).expect("sampled atom is derived");
            let dnf = hop_polynomial(&p3, tuple);
            WideAtom {
                probability: p3_prob::exact::probability(&dnf, p3.vars()),
                monomials: dnf.len(),
                mc_samples: (MC_WORK / work_per_sample(&dnf, p3.vars())).round() as u64,
                query,
            }
        })
        .collect();
    // Narrowest first, so influence can draw from the front.
    pool.sort_by(|a, b| {
        a.monomials
            .cmp(&b.monomials)
            .then_with(|| a.query.cmp(&b.query))
    });
    eprintln!(
        "p3-perfbench: trust-wide pool: {} polynomials of {}..={} monomials",
        pool.len(),
        pool[0].monomials,
        pool[pool.len() - 1].monomials
    );
    // Warm-up forces the naive model and every polynomial's extraction,
    // and answers plain influence on the narrow quarter once.
    let mut warmup: Vec<Spec> = pool
        .iter()
        .map(|a| Spec {
            program: 0,
            op: Op::Probability {
                query: a.query.clone(),
                method: Method::Exact,
            },
        })
        .collect();
    warmup.extend(pool[..narrow_len(&pool) as usize].iter().map(|a| Spec {
        program: 0,
        op: Op::Influence {
            query: a.query.clone(),
            top_k: Some(5),
            preprocess_epsilon: None,
        },
    }));
    Workload {
        name: "trust-wide",
        seed,
        programs: vec![source],
        hop_limit: Some(HOP_LIMIT),
        eval_mode: Some(EvalMode::Naive),
        warmup,
        kind: Kind::Wide { pool },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(w: &Workload, n: u64) -> Vec<String> {
        let mut out: Vec<String> = w.warmup.iter().map(|s| w.line(s, 0)).collect();
        out.extend((0..n).map(|i| w.line(&w.request(i), i)));
        out
    }

    #[test]
    fn the_same_seed_gives_byte_identical_request_lines() {
        for name in NAMES {
            let a = Workload::generate(name, 7).unwrap();
            let b = Workload::generate(name, 7).unwrap();
            assert_eq!(a.programs, b.programs, "{name}");
            assert_eq!(lines(&a, 2000), lines(&b, 2000), "{name}");
            let c = Workload::generate(name, 8).unwrap();
            assert_ne!(lines(&a, 2000), lines(&c, 2000), "{name}: seed matters");
        }
    }

    #[test]
    fn paper_interactive_cycles_programs_at_phase_boundaries() {
        let w = Workload::generate("paper-interactive", 1).unwrap();
        assert_eq!(w.programs.len(), 4);
        assert!(w.phase_load(0).is_none());
        assert_eq!(w.phase_load(1).unwrap().op, Op::Load { index: 1 });
        assert_eq!(w.phase_load(4).unwrap().op, Op::Load { index: 0 });
        assert_eq!(w.request(PHASE_LEN - 1).program, 0);
        assert_eq!(w.request(PHASE_LEN).program, 1);
        let line = w.line(&w.phase_load(3).unwrap(), 5);
        assert!(line.contains("\"op\":\"load-program\"") && line.contains("mutualTrustPath"));
    }

    #[test]
    fn trust_cold_never_repeats_an_atom_within_a_sample() {
        let w = Workload::generate("trust-cold", 3).unwrap();
        let segments = w.segments();
        assert_eq!(segments.len(), COLD_SAMPLES);
        assert_eq!(w.programs.len(), COLD_SAMPLES);
        let mut seen = HashSet::new();
        for s in &w.warmup {
            match &s.op {
                Op::Probability { query, .. } => assert!(seen.insert((s.program, query.clone()))),
                Op::Explanation { .. } => {}
                op => panic!("warm-up asks {op:?}"),
            }
        }
        for (segment, range) in segments.into_iter().enumerate() {
            assert!(range.end - range.start >= 1500, "segment {segment} is short");
            for i in range {
                let spec = w.request(i);
                assert_eq!(spec.program, segment, "request {i} leaves its sample");
                let query = match spec.op {
                Op::Probability { query, .. }
                | Op::Explanation { query }
                | Op::Derivation { query, .. }
                | Op::Influence { query, .. }
                | Op::Modification { query, .. } => query,
                    Op::Load { .. } => panic!("no loads"),
                };
                assert!(seen.insert((segment, query)), "atom repeated at request {i}");
            }
        }
    }
}

