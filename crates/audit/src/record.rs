//! The audit record: one structured row per service request, with a
//! binary codec over `p3-store`'s shared frame layer and a canonical
//! JSON exposition.
//!
//! The binary payload starts with a one-byte version tag; all integers
//! are little-endian and all strings are `u32` length-prefixed UTF-8.
//! Client-controlled text (the trace id) is stored as opaque bytes
//! inside the checksummed frame — newlines, quotes, or arbitrary
//! unicode in it can never desynchronise the log — and is escaped
//! per RFC 8259 on the JSON side. Query text itself is never stored:
//! only its FNV-1a-64 hash, so the audit log leaks no query contents
//! and hostile query text cannot reach the exposition at all.

pub use p3_store::frame::fnv1a_64;
use std::borrow::Cow;

/// First payload layout (PR: audit plane). Still decodable; `rule_cost`
/// and `top_rules` default to empty on V1 records.
const TAG_V1: u8 = 1;

/// Current payload layout: V1 plus per-rule cost attribution (the total
/// measured rule cost this request triggered and the top rules by cost).
const TAG_V2: u8 = 2;

/// Cap on `top_rules` entries stored per record — the audit log records
/// the headline, `GET /explain` has the full ranking.
pub const MAX_TOP_RULES: usize = 3;

/// How a request ended, from the operator's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered successfully.
    Ok,
    /// Hit its deadline before the worker finished.
    Timeout,
    /// Rejected by the lint gate before evaluation.
    LintReject,
    /// Any other failure (parse error, unknown op, evaluation error).
    Error,
}

impl Outcome {
    /// Stable lowercase label used in JSON and metrics.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Timeout => "timeout",
            Outcome::LintReject => "lint-reject",
            Outcome::Error => "error",
        }
    }

    fn code(self) -> u8 {
        match self {
            Outcome::Ok => 0,
            Outcome::Timeout => 1,
            Outcome::LintReject => 2,
            Outcome::Error => 3,
        }
    }

    fn from_code(code: u8) -> Option<Outcome> {
        Some(match code {
            0 => Outcome::Ok,
            1 => Outcome::Timeout,
            2 => Outcome::LintReject,
            3 => Outcome::Error,
            _ => return None,
        })
    }
}

/// One named stage timing: a stage of the request's query run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// Stage name (`parse`, `transform`, `extract`, `probability`, ...).
    /// Borrowed when written (stage names are static), owned when decoded,
    /// so the in-memory ring holds no per-stage allocation.
    pub name: Cow<'static, str>,
    /// Wall time spent in the stage, microseconds.
    pub wall_us: u64,
}

/// One request's full cost accounting. Counter fields are deltas over
/// the request, read from process-global counters before and after the
/// worker ran; under concurrency they are attributions, not exact
/// isolations (same caveat as the `profile` op).
#[derive(Clone, Debug, PartialEq)]
pub struct AuditRecord {
    /// Unix milliseconds when the request finished.
    pub ts_ms: u64,
    /// Trace id — client-supplied and therefore hostile text.
    pub trace: String,
    /// Request class (`probability`, `provenance`, ... or `malformed`).
    pub class: String,
    /// Evaluation mode the request ran under (`naive` / `demand`).
    pub eval_mode: String,
    /// FNV-1a-64 of the query text; 0 when the op carries no query.
    pub query_hash: u64,
    /// How the request ended.
    pub outcome: Outcome,
    /// Time spent waiting in the job queue, microseconds.
    pub queue_wait_us: u64,
    /// Time spent executing in a worker, microseconds.
    pub execute_us: u64,
    /// End-to-end handler time, microseconds.
    pub total_us: u64,
    /// Per-stage wall-time split of `execute_us`.
    pub stages: Vec<StageTiming>,
    /// Tuples derived by rule evaluation during this request.
    pub derived_tuples: u64,
    /// Monomials in the answer's DNF provenance (0 if none computed).
    pub dnf_monomials: u64,
    /// Total literals across those monomials — the DNF "width".
    pub dnf_literals: u64,
    /// Session memo hits during this request.
    pub session_hits: u64,
    /// Session memo misses during this request.
    pub session_misses: u64,
    /// Provenance records flushed to the durable store by this request.
    pub store_records: u64,
    /// Extraction-memo hits during this request.
    pub extract_memo_hits: u64,
    /// Extraction-memo misses during this request.
    pub extract_memo_misses: u64,
    /// Measured rule cost (join candidates + firings + derived tuples)
    /// this request added — nonzero only when the request forced an
    /// evaluation, so cold queries rank high under `--by rule_cost`.
    pub rule_cost: u64,
    /// The costliest source rules of the evaluations this request forced,
    /// as `(label, cost)` pairs, at most [`MAX_TOP_RULES`].
    pub top_rules: Vec<(String, u64)>,
}

impl Default for AuditRecord {
    fn default() -> Self {
        AuditRecord {
            ts_ms: 0,
            trace: String::new(),
            class: String::new(),
            eval_mode: String::new(),
            query_hash: 0,
            outcome: Outcome::Error,
            queue_wait_us: 0,
            execute_us: 0,
            total_us: 0,
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
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

impl AuditRecord {
    /// Encodes the record into the shared frame payload format.
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::with_capacity(128);
        self.encode_payload_into(&mut p);
        p
    }

    /// Appends the encoded payload to `p` — the allocation-free form the
    /// log's hot append path uses with a reusable scratch buffer.
    pub fn encode_payload_into(&self, p: &mut Vec<u8>) {
        p.push(TAG_V2);
        put_u64(p, self.ts_ms);
        put_u64(p, self.query_hash);
        p.push(self.outcome.code());
        put_u64(p, self.queue_wait_us);
        put_u64(p, self.execute_us);
        put_u64(p, self.total_us);
        put_u64(p, self.derived_tuples);
        put_u64(p, self.dnf_monomials);
        put_u64(p, self.dnf_literals);
        put_u64(p, self.session_hits);
        put_u64(p, self.session_misses);
        put_u64(p, self.store_records);
        put_u64(p, self.extract_memo_hits);
        put_u64(p, self.extract_memo_misses);
        put_str(p, &self.trace);
        put_str(p, &self.class);
        put_str(p, &self.eval_mode);
        put_u32(p, self.stages.len() as u32);
        for stage in &self.stages {
            put_str(p, &stage.name);
            put_u64(p, stage.wall_us);
        }
        // V2 extension: rule-cost attribution.
        put_u64(p, self.rule_cost);
        put_u32(p, self.top_rules.len().min(MAX_TOP_RULES) as u32);
        for (label, cost) in self.top_rules.iter().take(MAX_TOP_RULES) {
            put_str(p, label);
            put_u64(p, *cost);
        }
    }

    /// Decodes a payload produced by [`AuditRecord::encode_payload`].
    /// `None` on any malformation (wrong tag, truncation, bad UTF-8,
    /// trailing garbage).
    pub fn decode_payload(payload: &[u8]) -> Option<AuditRecord> {
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let tag = r.u8()?;
        if tag != TAG_V1 && tag != TAG_V2 {
            return None;
        }
        let ts_ms = r.u64()?;
        let query_hash = r.u64()?;
        let outcome = Outcome::from_code(r.u8()?)?;
        let queue_wait_us = r.u64()?;
        let execute_us = r.u64()?;
        let total_us = r.u64()?;
        let derived_tuples = r.u64()?;
        let dnf_monomials = r.u64()?;
        let dnf_literals = r.u64()?;
        let session_hits = r.u64()?;
        let session_misses = r.u64()?;
        let store_records = r.u64()?;
        let extract_memo_hits = r.u64()?;
        let extract_memo_misses = r.u64()?;
        let trace = r.string()?;
        let class = r.string()?;
        let eval_mode = r.string()?;
        let n = r.u32()? as usize;
        let mut stages = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let name = r.string()?;
            let wall_us = r.u64()?;
            stages.push(StageTiming {
                name: name.into(),
                wall_us,
            });
        }
        let (rule_cost, top_rules) = if tag >= TAG_V2 {
            let rule_cost = r.u64()?;
            let n = r.u32()? as usize;
            if n > MAX_TOP_RULES {
                return None;
            }
            let mut top_rules = Vec::with_capacity(n);
            for _ in 0..n {
                let label = r.string()?;
                let cost = r.u64()?;
                top_rules.push((label, cost));
            }
            (rule_cost, top_rules)
        } else {
            (0, Vec::new())
        };
        let record = AuditRecord {
            ts_ms,
            trace,
            class,
            eval_mode,
            query_hash,
            outcome,
            queue_wait_us,
            execute_us,
            total_us,
            stages,
            derived_tuples,
            dnf_monomials,
            dnf_literals,
            session_hits,
            session_misses,
            store_records,
            extract_memo_hits,
            extract_memo_misses,
            rule_cost,
            top_rules,
        };
        r.done().then_some(record)
    }

    /// Canonical JSON object for this record — the exact shape served by
    /// `GET /audit` and the `audit-tail` op. All strings are escaped per
    /// RFC 8259, so hostile trace text cannot break the emitted JSON.
    pub fn to_json_string(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"ts_ms\":{}", self.ts_ms));
        out.push_str(&format!(",\"trace\":{}", json_escape(&self.trace)));
        out.push_str(&format!(",\"class\":{}", json_escape(&self.class)));
        out.push_str(&format!(",\"eval_mode\":{}", json_escape(&self.eval_mode)));
        out.push_str(&format!(",\"query_hash\":\"{:016x}\"", self.query_hash));
        out.push_str(&format!(",\"outcome\":\"{}\"", self.outcome.label()));
        out.push_str(&format!(",\"queue_wait_us\":{}", self.queue_wait_us));
        out.push_str(&format!(",\"execute_us\":{}", self.execute_us));
        out.push_str(&format!(",\"total_us\":{}", self.total_us));
        out.push_str(",\"stages\":[");
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"wall_us\":{}}}",
                json_escape(&stage.name),
                stage.wall_us
            ));
        }
        out.push(']');
        out.push_str(&format!(",\"derived_tuples\":{}", self.derived_tuples));
        out.push_str(&format!(",\"dnf_monomials\":{}", self.dnf_monomials));
        out.push_str(&format!(",\"dnf_literals\":{}", self.dnf_literals));
        out.push_str(&format!(",\"session_hits\":{}", self.session_hits));
        out.push_str(&format!(",\"session_misses\":{}", self.session_misses));
        out.push_str(&format!(",\"store_records\":{}", self.store_records));
        out.push_str(&format!(
            ",\"extract_memo_hits\":{}",
            self.extract_memo_hits
        ));
        out.push_str(&format!(
            ",\"extract_memo_misses\":{}",
            self.extract_memo_misses
        ));
        out.push_str(&format!(",\"rule_cost\":{}", self.rule_cost));
        out.push_str(",\"top_rules\":[");
        for (i, (label, cost)) in self.top_rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"cost\":{}}}",
                json_escape(label),
                cost
            ));
        }
        out.push_str("]}");
        out
    }
}

/// JSON string literal (including surrounding quotes) per RFC 8259:
/// quote, backslash, and all control characters below 0x20 escaped.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
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
    out.push('"');
    out
}

/// Little-endian reader with bounds checks; `None` means truncated/corrupt.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample() -> AuditRecord {
        AuditRecord {
            ts_ms: 1_700_000_000_123,
            trace: "tr-0042".into(),
            class: "probability".into(),
            eval_mode: "demand".into(),
            query_hash: fnv1a_64(r#"know("Ben","Elena")"#),
            outcome: Outcome::Ok,
            queue_wait_us: 85,
            execute_us: 1200,
            total_us: 1402,
            stages: vec![
                StageTiming {
                    name: "extract".into(),
                    wall_us: 900,
                },
                StageTiming {
                    name: "probability".into(),
                    wall_us: 300,
                },
            ],
            derived_tuples: 57,
            dnf_monomials: 3,
            dnf_literals: 8,
            session_hits: 1,
            session_misses: 2,
            store_records: 4,
            extract_memo_hits: 10,
            extract_memo_misses: 5,
            rule_cost: 312,
            top_rules: vec![("r3".into(), 200), ("r1".into(), 80)],
        }
    }

    #[test]
    fn payload_round_trips() {
        let record = sample();
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn hostile_trace_round_trips() {
        let mut record = sample();
        record.trace = "line1\nline2\t\"quoted\\\" \u{1F4A3} \u{0000}bell\u{0007}".into();
        record.outcome = Outcome::Timeout;
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded, record);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let payload = sample().encode_payload();
        for cut in 0..payload.len() {
            assert!(
                AuditRecord::decode_payload(&payload[..cut]).is_none(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn v1_payloads_still_decode_with_default_rule_cost() {
        // Re-encode the sample in the V1 layout by hand: V2 minus the
        // trailing rule-cost block, with a V1 tag.
        let record = sample();
        let v2 = record.encode_payload();
        let mut rule_block = Vec::new();
        put_u64(&mut rule_block, record.rule_cost);
        put_u32(&mut rule_block, record.top_rules.len() as u32);
        for (label, cost) in &record.top_rules {
            put_str(&mut rule_block, label);
            put_u64(&mut rule_block, *cost);
        }
        let mut v1 = v2[..v2.len() - rule_block.len()].to_vec();
        v1[0] = TAG_V1;
        let decoded = AuditRecord::decode_payload(&v1).unwrap();
        assert_eq!(decoded.rule_cost, 0);
        assert!(decoded.top_rules.is_empty());
        assert_eq!(decoded.class, record.class);
        assert_eq!(decoded.stages, record.stages);
    }

    #[test]
    fn oversized_top_rules_list_is_rejected_and_encode_caps() {
        let mut record = sample();
        record.top_rules = (0..10).map(|i| (format!("r{i}"), i as u64)).collect();
        let decoded = AuditRecord::decode_payload(&record.encode_payload()).unwrap();
        assert_eq!(decoded.top_rules.len(), MAX_TOP_RULES, "encode caps");
        // A payload claiming more than MAX_TOP_RULES entries is corrupt.
        let mut payload = sample().encode_payload();
        let count_at = payload.len()
            - sample()
                .top_rules
                .iter()
                .map(|(l, _)| 4 + l.len() + 8)
                .sum::<usize>()
            - 4;
        payload[count_at..count_at + 4].copy_from_slice(&(MAX_TOP_RULES as u32 + 1).to_le_bytes());
        assert!(AuditRecord::decode_payload(&payload).is_none());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = sample().encode_payload();
        payload.push(0);
        assert!(AuditRecord::decode_payload(&payload).is_none());
    }

    #[test]
    fn json_is_escaped_and_parseable_shape() {
        let mut record = sample();
        record.trace = "a\"b\\c\nd\u{0001}e".into();
        let json = record.to_json_string();
        assert!(json.contains(r#""trace":"a\"b\\c\nd\u0001e""#), "{json}");
        // No raw control characters may survive into the JSON text.
        assert!(json.chars().all(|c| (c as u32) >= 0x20), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(Outcome::Ok.label(), "ok");
        assert_eq!(Outcome::Timeout.label(), "timeout");
        assert_eq!(Outcome::LintReject.label(), "lint-reject");
        assert_eq!(Outcome::Error.label(), "error");
        for code in 0..4 {
            let o = Outcome::from_code(code).unwrap();
            assert_eq!(o.code(), code);
        }
        assert!(Outcome::from_code(9).is_none());
    }
}
