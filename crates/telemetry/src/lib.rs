//! # dpbfl-telemetry — deterministic run metrics and timing spans
//!
//! The paper's defense is defined by *per-round dynamics*: how many uploads
//! the first stage rejects and why, how the second-stage scores concentrate,
//! how much of the (ε, δ) budget each round spends. This crate is the
//! dependency-free observability layer that carries those signals out of the
//! round loop without perturbing it:
//!
//! * [`RoundMetrics`] — per-round **deterministic counters** (cohort size,
//!   stage-1 accept/reject breakdown, KS fast-path vs exact-fallback counts,
//!   score summary in fixed accumulation order, retained bytes, cumulative
//!   achieved ε). Producers accumulate them sequentially in cohort order
//!   *after* the fold's shard merge, so they are bit-identical at any thread
//!   count — exactly like the fold itself.
//! * [`Span`] / [`Event`] — wall-clock timings and one-off occurrences
//!   (e.g. a rejected serving client). Inherently non-deterministic; sinks
//!   keep them in a separate ledger section excluded from parity checks.
//! * [`TelemetrySink`] — where records go: [`MemorySink`] (tests,
//!   in-process consumers) or [`JsonlSink`] (the `metrics.jsonl` run
//!   ledger). Recording nothing needs no sink: [`Telemetry::null`] holds
//!   none.
//!
//! ## The "never perturb the run" contract
//!
//! A [`Telemetry`] handle built with [`Telemetry::null`] holds no sink at
//! all: every producer gates its collection on [`Telemetry::enabled`], so
//! the disabled path performs **zero allocations and zero RNG draws** and
//! run summaries are byte-identical with telemetry on or off. Sinks only
//! *receive* finished records — they must never reorder the accumulation
//! that produced them and have no access to any RNG stream.
//!
//! ## Ledger format
//!
//! One JSON object per line. Deterministic lines carry `"kind":"round"` and
//! are written first, in round order; timing lines (`"kind":"span"`,
//! `"kind":"event"`) follow. Filtering the file to its `"kind":"round"`
//! lines therefore yields the parity-comparable section:
//!
//! ```text
//! grep '"kind":"round"' metrics.jsonl   # byte-identical at any thread count
//! ```

use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

/// Summary statistics of the round's second-stage scores, accumulated
/// **sequentially in cohort order** (the producer's obligation; see the
/// crate docs). With `count == 0` every statistic is `0.0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreSummary {
    /// Number of scores observed.
    pub count: u64,
    /// Running sum, accumulated in observation order.
    pub sum: f64,
    /// `sum / count` (0.0 when empty), recomputed on every observation.
    pub mean: f64,
    /// Smallest observed score (0.0 when empty).
    pub min: f64,
    /// Largest observed score (0.0 when empty).
    pub max: f64,
}

impl Default for ScoreSummary {
    fn default() -> Self {
        ScoreSummary { count: 0, sum: 0.0, mean: 0.0, min: 0.0, max: 0.0 }
    }
}

impl ScoreSummary {
    /// Folds one score in. Callers must observe scores in cohort order for
    /// `sum`/`mean` to be bit-stable across thread counts.
    pub fn observe(&mut self, score: f64) {
        if self.count == 0 {
            self.min = score;
            self.max = score;
        } else {
            self.min = self.min.min(score);
            self.max = self.max.max(score);
        }
        self.count += 1;
        self.sum += score;
        self.mean = self.sum / self.count as f64;
    }
}

/// One round's deterministic counters — the parity-checked section of the
/// ledger. All counters are exact; floating-point fields are accumulated in
/// a fixed order, so serialized records are bit-identical at any thread
/// count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundMetrics {
    /// 0-based round index.
    pub round: u64,
    /// Participants drawn this round.
    pub cohort: u64,
    /// Stage-1 survivors (uploads that entered second-stage scoring).
    pub accepted: u64,
    /// Stage-1 rejections: upload contained a non-finite value.
    pub rejected_non_finite: u64,
    /// Stage-1 rejections: L2 norm outside the Theorem-2 interval.
    pub rejected_norm: u64,
    /// Stage-1 rejections: Kolmogorov–Smirnov test rejected Gaussianity.
    pub rejected_ks: u64,
    /// Uploads that never arrived (serving deadline miss / dead connection),
    /// folded in as deterministic rejections.
    pub rejected_dropped: u64,
    /// KS evaluations decided by the bucketed fast-path envelope alone.
    pub ks_fast_path: u64,
    /// KS evaluations that fell back to the exact sorted statistic
    /// (borderline band, or the always-sort reference path).
    pub ks_exact_fallback: u64,
    /// Second-stage score summary over the full cohort (rejected uploads
    /// contribute their literal `+0.0` scores).
    pub scores: ScoreSummary,
    /// Uploads the second stage selected into the aggregate.
    pub selected: u64,
    /// Bytes retained verbatim for the update (`4 · d` per exact survivor).
    pub retained_exact_bytes: u64,
    /// Bytes retained as `i16` codes (`2 · d` per quantized survivor, plus
    /// the per-vector scale).
    pub retained_quantized_bytes: u64,
    /// Cumulative achieved ε after this round, from the RDP accountant;
    /// `None` for non-private runs (σ = 0 or δ = 0).
    pub achieved_epsilon: Option<f64>,
    /// The scale a stateful attacker used this round (recorded *before* its
    /// post-round feedback step advances it); `None` when the attack carries
    /// no tunable scale.
    pub attack_scale: Option<f64>,
}

impl RoundMetrics {
    /// A zeroed record for round `round` over `cohort` participants.
    pub fn new(round: u64, cohort: u64) -> Self {
        RoundMetrics {
            round,
            cohort,
            accepted: 0,
            rejected_non_finite: 0,
            rejected_norm: 0,
            rejected_ks: 0,
            rejected_dropped: 0,
            ks_fast_path: 0,
            ks_exact_fallback: 0,
            scores: ScoreSummary::default(),
            selected: 0,
            retained_exact_bytes: 0,
            retained_quantized_bytes: 0,
            achieved_epsilon: None,
            attack_scale: None,
        }
    }

    /// Total stage-1 rejections across all reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_non_finite + self.rejected_norm + self.rejected_ks + self.rejected_dropped
    }

    /// `accepted / cohort` (0.0 for an empty cohort).
    pub fn acceptance_rate(&self) -> f64 {
        if self.cohort == 0 {
            0.0
        } else {
            self.accepted as f64 / self.cohort as f64
        }
    }
}

/// One wall-clock timing measurement (non-deterministic ledger section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// What was timed (`"stage1"`, `"eval"`, `"serving_round"`, …).
    pub name: String,
    /// The round it belongs to, when per-round.
    pub round: Option<u64>,
    /// Elapsed wall-clock microseconds.
    pub micros: u64,
}

/// One structured occurrence (non-deterministic ledger section) — e.g. a
/// serving client rejected at admission, or an upload discarded as stale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Event name (`"client_rejected"`, `"upload_dropped"`, …).
    pub name: String,
    /// The round it belongs to, when per-round.
    pub round: Option<u64>,
    /// Human-readable detail (peer address, drop reason, …).
    pub detail: String,
}

/// One ledger line: exactly one of `round`/`span`/`event` is populated, and
/// `kind` names which, so consumers can filter lines without parsing the
/// payload (`grep '"kind":"round"'` extracts the deterministic section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerRecord {
    /// `"round"`, `"span"`, or `"event"`.
    pub kind: String,
    /// The metrics payload when `kind == "round"`.
    pub round: Option<RoundMetrics>,
    /// The timing payload when `kind == "span"`.
    pub span: Option<Span>,
    /// The event payload when `kind == "event"`.
    pub event: Option<Event>,
}

impl LedgerRecord {
    /// Wraps per-round metrics as a `"round"` ledger line.
    pub fn from_round(m: RoundMetrics) -> Self {
        LedgerRecord { kind: "round".into(), round: Some(m), span: None, event: None }
    }

    /// Wraps a timing span as a `"span"` ledger line.
    pub fn from_span(s: Span) -> Self {
        LedgerRecord { kind: "span".into(), round: None, span: Some(s), event: None }
    }

    /// Wraps an event as an `"event"` ledger line.
    pub fn from_event(e: Event) -> Self {
        LedgerRecord { kind: "event".into(), round: None, span: None, event: Some(e) }
    }
}

/// Where telemetry records go.
///
/// Implementations only receive finished records: they must never draw from
/// any RNG or feed anything back into the run (the determinism contract in
/// the crate docs). `Send` because the harness runs cells in parallel, one
/// sink per cell.
pub trait TelemetrySink: Send {
    /// Receives one round's deterministic counters.
    fn record_round(&mut self, metrics: RoundMetrics);
    /// Receives one timing span.
    fn record_span(&mut self, span: Span);
    /// Receives one event.
    fn record_event(&mut self, event: Event);
    /// Persists buffered records (no-op for non-file sinks).
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Buffers records in memory — tests and in-process consumers.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Recorded rounds, in record order.
    pub rounds: Vec<RoundMetrics>,
    /// Recorded spans, in record order.
    pub spans: Vec<Span>,
    /// Recorded events, in record order.
    pub events: Vec<Event>,
}

impl TelemetrySink for MemorySink {
    fn record_round(&mut self, metrics: RoundMetrics) {
        self.rounds.push(metrics);
    }
    fn record_span(&mut self, span: Span) {
        self.spans.push(span);
    }
    fn record_event(&mut self, event: Event) {
        self.events.push(event);
    }
}

/// Delegates through the lock, so a consumer can keep a clone of the
/// `Arc` and inspect the sink after the run — the pattern the parity tests
/// use with [`MemorySink`].
impl<S: TelemetrySink> TelemetrySink for std::sync::Arc<Mutex<S>> {
    fn record_round(&mut self, metrics: RoundMetrics) {
        self.lock().expect("shared sink lock").record_round(metrics);
    }
    fn record_span(&mut self, span: Span) {
        self.lock().expect("shared sink lock").record_span(span);
    }
    fn record_event(&mut self, event: Event) {
        self.lock().expect("shared sink lock").record_event(event);
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.lock().expect("shared sink lock").flush()
    }
}

/// Writes the run ledger as JSON lines: all `"round"` lines first (the
/// deterministic section, in round order), then `"span"`/`"event"` lines in
/// record order. Records are buffered in memory and the file is rewritten
/// atomically-enough (truncate + full write) on [`TelemetrySink::flush`] and
/// on drop, so a ledger on disk always has its sections in order.
#[derive(Debug)]
pub struct JsonlSink {
    path: PathBuf,
    round_lines: Vec<String>,
    timing_lines: Vec<String>,
}

impl JsonlSink {
    /// A sink that will write to `path` (parent directory must exist).
    pub fn new(path: PathBuf) -> Self {
        JsonlSink { path, round_lines: Vec::new(), timing_lines: Vec::new() }
    }

    /// The ledger path this sink writes to.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl TelemetrySink for JsonlSink {
    fn record_round(&mut self, metrics: RoundMetrics) {
        let line = serde_json::to_string(&LedgerRecord::from_round(metrics))
            .expect("ledger records always serialize");
        self.round_lines.push(line);
    }

    fn record_span(&mut self, span: Span) {
        let line = serde_json::to_string(&LedgerRecord::from_span(span))
            .expect("ledger records always serialize");
        self.timing_lines.push(line);
    }

    fn record_event(&mut self, event: Event) {
        let line = serde_json::to_string(&LedgerRecord::from_event(event))
            .expect("ledger records always serialize");
        self.timing_lines.push(line);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut out =
            String::with_capacity(self.round_lines.len() * 64 + self.timing_lines.len() * 64);
        for line in self.round_lines.iter().chain(&self.timing_lines) {
            out.push_str(line);
            out.push('\n');
        }
        let mut f = std::fs::File::create(&self.path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = TelemetrySink::flush(self);
    }
}

/// The handle producers hold: either disabled ([`Telemetry::null`] — no
/// sink, no work) or wrapping one [`TelemetrySink`] behind a mutex so a
/// transport and the round loop can share it.
///
/// Every producer must gate record *construction* on [`Telemetry::enabled`];
/// the methods here only lock when a sink is present, so the disabled path
/// costs one branch.
pub struct Telemetry {
    sink: Option<Mutex<Box<dyn TelemetrySink>>>,
}

impl Telemetry {
    /// The disabled handle: no sink, zero allocations, byte-identical runs.
    pub fn null() -> Self {
        Telemetry { sink: None }
    }

    /// A handle recording into `sink`.
    pub fn new(sink: Box<dyn TelemetrySink>) -> Self {
        Telemetry { sink: Some(Mutex::new(sink)) }
    }

    /// Whether a sink is attached. Producers skip all collection work —
    /// counter structs, timers, string formatting — when this is false.
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one round's deterministic counters.
    pub fn round(&self, metrics: RoundMetrics) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink lock").record_round(metrics);
        }
    }

    /// Records a timing span.
    pub fn span(&self, name: &str, round: Option<u64>, micros: u64) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink lock").record_span(Span {
                name: name.to_string(),
                round,
                micros,
            });
        }
    }

    /// Records an event.
    pub fn event(&self, name: &str, round: Option<u64>, detail: String) {
        if let Some(sink) = &self.sink {
            sink.lock().expect("telemetry sink lock").record_event(Event {
                name: name.to_string(),
                round,
                detail,
            });
        }
    }

    /// Starts a wall-clock timer — a no-op (`None` inside) when disabled,
    /// so the disabled path never reads the clock.
    pub fn start(&self) -> SpanTimer {
        SpanTimer { start: if self.enabled() { Some(Instant::now()) } else { None } }
    }

    /// Ends `timer` and records it as a span named `name`.
    pub fn stop(&self, timer: SpanTimer, name: &str, round: Option<u64>) {
        if let Some(start) = timer.start {
            self.span(name, round, start.elapsed().as_micros() as u64);
        }
    }

    /// Flushes the sink (writes the ledger file for [`JsonlSink`]).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.sink {
            Some(sink) => sink.lock().expect("telemetry sink lock").flush(),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.enabled()).finish()
    }
}

/// An in-flight wall-clock measurement from [`Telemetry::start`]. Holds
/// `None` when telemetry is disabled, so dropping it is free.
#[derive(Debug)]
pub struct SpanTimer {
    start: Option<Instant>,
}

/// Parses a ledger file's lines back into [`LedgerRecord`]s, skipping blank
/// lines. Errors carry the 1-based line number.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec: LedgerRecord =
            serde_json::from_str(line).map_err(|e| format!("ledger line {}: {}", i + 1, e.0))?;
        records.push(rec);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_round(round: u64) -> RoundMetrics {
        let mut m = RoundMetrics::new(round, 10);
        m.accepted = 8;
        m.rejected_ks = 1;
        m.rejected_dropped = 1;
        m.ks_fast_path = 7;
        m.ks_exact_fallback = 2;
        m.scores.observe(0.5);
        m.scores.observe(-1.25);
        m.scores.observe(2.0);
        m.selected = 6;
        m.retained_exact_bytes = 8 * 4 * 100;
        m.achieved_epsilon = Some(1.5);
        m
    }

    #[test]
    fn score_summary_accumulates_in_order() {
        let mut s = ScoreSummary::default();
        for x in [3.0, -1.0, 2.0] {
            s.observe(x);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 4.0);
        assert_eq!(s.mean, 4.0 / 3.0);
        assert_eq!(s.min, -1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(ScoreSummary::default().mean, 0.0);
    }

    #[test]
    fn rejected_and_acceptance_rate() {
        let m = sample_round(0);
        assert_eq!(m.rejected(), 2);
        assert_eq!(m.acceptance_rate(), 0.8);
        assert_eq!(RoundMetrics::new(0, 0).acceptance_rate(), 0.0);
    }

    #[test]
    fn ledger_record_roundtrips_through_json() {
        let rec = LedgerRecord::from_round(sample_round(3));
        let line = serde_json::to_string(&rec).unwrap();
        assert!(line.starts_with("{\"kind\":\"round\""), "kind leads the line: {line}");
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);

        let span = LedgerRecord::from_span(Span { name: "eval".into(), round: None, micros: 42 });
        let line = serde_json::to_string(&span).unwrap();
        assert!(line.contains("\"kind\":\"span\""));
        let back: LedgerRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, span);
    }

    #[test]
    fn null_telemetry_is_disabled_and_inert() {
        let tel = Telemetry::null();
        assert!(!tel.enabled());
        tel.round(sample_round(0)); // must not panic
        tel.span("x", None, 1);
        tel.event("x", None, "detail".into());
        let timer = tel.start();
        tel.stop(timer, "x", Some(0));
        tel.flush().unwrap();
    }

    #[test]
    fn jsonl_sink_writes_rounds_before_timing_lines() {
        let dir = std::env::temp_dir().join(format!("dpbfl-telemetry-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.jsonl");
        {
            let tel = Telemetry::new(Box::new(JsonlSink::new(path.clone())));
            assert!(tel.enabled());
            tel.span("stage1", Some(0), 123); // recorded first …
            tel.round(sample_round(0)); // … but rounds serialize first
            tel.round(sample_round(1));
            tel.event("client_rejected", None, "bad handshake".into());
            tel.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let kinds: Vec<&str> = text
            .lines()
            .map(|l| if l.contains("\"kind\":\"round\"") { "round" } else { "timing" })
            .collect();
        assert_eq!(kinds, ["round", "round", "timing", "timing"]);
        let records = parse_ledger(&text).unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].round.as_ref().unwrap().round, 0);
        assert_eq!(records[1].round.as_ref().unwrap().round, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn memory_sink_collects_everything() {
        let mut sink = MemorySink::default();
        sink.record_round(sample_round(0));
        sink.record_span(Span { name: "eval".into(), round: Some(0), micros: 7 });
        sink.record_event(Event { name: "e".into(), round: None, detail: "d".into() });
        assert_eq!(sink.rounds.len(), 1);
        assert_eq!(sink.spans.len(), 1);
        assert_eq!(sink.events.len(), 1);
    }
}
