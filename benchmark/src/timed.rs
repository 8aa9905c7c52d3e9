//! `TimedTransport`: a [`Transport`] decorator that timestamps every
//! `round_trip` from outside and, in traced mode, times the upload fold.

use dpbfl::prelude::{Collected, KsScratch, RunSummary, Transport};
use dpbfl::round::UploadFold;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// What the traced fold wrapper observed over a run. The counters are
/// statistics only, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct FoldTrace {
    /// Nanoseconds inside the wrapped fold closure, summed over calls.
    pub fold_ns: AtomicU64,
    /// Fold calls.
    pub folds: AtomicU64,
    /// Nanoseconds a thread spent producing an upload: from the previous
    /// fold's exit on that thread, within the same round, to this fold's
    /// entry. A thread's first upload of a round has no such sample (when
    /// the thread began is not visible from outside).
    pub client_gaps_ns: Mutex<Vec<u64>>,
}

thread_local! {
    /// When this thread last left a traced fold.
    static LAST_FOLD_EXIT: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Wraps a transport; records `round_trip` entry and exit instants.
pub struct TimedTransport<T: Transport> {
    inner: T,
    /// Entry instant of every `round_trip`, in round order.
    pub entries: Vec<Instant>,
    /// Exit instant of every `round_trip`, in round order.
    pub exits: Vec<Instant>,
    /// Present in traced mode only.
    pub trace: Option<FoldTrace>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`; `traced` additionally times every fold call.
    pub fn new(inner: T, traced: bool) -> Self {
        TimedTransport {
            inner,
            entries: Vec::new(),
            exits: Vec::new(),
            trace: traced.then(FoldTrace::default),
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn round_trip(
        &mut self,
        round: usize,
        members: &[usize],
        params: &[f32],
        fold: &UploadFold<'_>,
    ) -> Vec<Collected> {
        let entry = Instant::now();
        self.entries.push(entry);
        let out = match &self.trace {
            None => self.inner.round_trip(round, members, params, fold),
            Some(trace) => {
                let timed = |upload: Vec<f32>, scratch: &mut KsScratch| {
                    let fold_entry = Instant::now();
                    // A pool thread may outlive the round, so an exit stamp
                    // older than this round's entry belongs to another round.
                    if let Some(exit) = LAST_FOLD_EXIT.get().filter(|&exit| exit > entry) {
                        let mut gaps = trace.client_gaps_ns.lock().expect("gap list lock");
                        gaps.push(nanos(exit, fold_entry));
                    }
                    let out = fold(upload, scratch);
                    let fold_exit = Instant::now();
                    LAST_FOLD_EXIT.set(Some(fold_exit));
                    trace.fold_ns.fetch_add(nanos(fold_entry, fold_exit), Ordering::Relaxed);
                    trace.folds.fetch_add(1, Ordering::Relaxed);
                    out
                };
                self.inner.round_trip(round, members, params, &timed)
            }
        };
        self.exits.push(Instant::now());
        out
    }

    fn publish_summary(&mut self, summary: &RunSummary) {
        self.inner.publish_summary(summary);
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use crate::unit::run_in_process;
    use crate::workloads;

    #[test]
    fn a_run_through_the_decorator_is_byte_identical_to_simulation_run() {
        let cfg = workloads::scaled_down(&workloads::headline_inproc(7), 16.0);
        let reference = serde_json::to_string(&dpbfl::simulation::run(&cfg).summary())
            .expect("summary serializes");
        for traced in [false, true] {
            let unit = run_in_process(&cfg, traced);
            assert_eq!(unit.summary_json, reference, "traced = {traced}");
            assert_eq!(unit.rounds, cfg.iterations());
            let expected = (cfg.iterations() * cfg.n_total()) as u64;
            assert_eq!(unit.trace.map(|t| t.folds), traced.then_some(expected));
        }
    }
}
