//! The round desk: what becomes of every served upload and every claim.
//!
//! A pure state machine, with no socket, thread or clock: the serving shells
//! do the I/O and tell it what happened, time included as a value (a reader
//! stamps each upload with the instant it was read and its [`digest`]). It
//! keeps the claim map, each connection's liveness, the replay window, the
//! open round's slots and the [`ServingReport`] counters; the reasoned
//! events behind its decisions collect in [`Desk::events`] for the shell to
//! record. The tests check it exhaustively against an adversary's moves.

use super::{ServingReport, REPLAY_ROUNDS};
use dpbfl_transport::ParamsBlock;
use std::cmp::Ordering;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Digest of an upload's values: their `f32` bit patterns hashed in 16
/// independent lanes of word-wise 32-bit FNV-1a (so the lanes vectorise),
/// folded with the length into 64 bits. It tells two copies apart; it does
/// not authenticate their sender.
pub(super) fn digest(data: &[f32]) -> u64 {
    let mut lanes = [0x811c_9dc5_u32; 16];
    let rest = &data[data.len() / 16 * 16..];
    for chunk in data.chunks_exact(16).chain([rest]) {
        for (lane, x) in lanes.iter_mut().zip(chunk) {
            *lane = (*lane ^ x.to_bits()).wrapping_mul(0x0100_0193);
        }
    }
    lanes.iter().fold(0xcbf2_9ce4_8422_2325 ^ data.len() as u64, |h, &lane| {
        (h ^ u64::from(lane)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One upload as its connection's reader saw it (the values stay with the
/// shell): how many values it carries, their digest, and when it was read.
#[derive(Clone, Copy)]
pub(super) struct Arrival {
    pub conn: usize,
    pub worker: u32,
    pub round: u32,
    pub len: usize,
    pub digest: u64,
    pub at: Instant,
}

/// What becomes of one arriving upload. A member's first copy is placed
/// (folded into slot `pos`), or malformed when of the wrong length; a later
/// copy is a resend when identical and equivocates otherwise. An upload may
/// also be stale (tagged with another round), for a worker the open round
/// does not name, late (read after the deadline: it counts for nothing),
/// or forged (for a worker its connection never claimed: nothing that
/// connection sends counts any more, and the shell ends it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arrived {
    Place(usize),
    Resend,
    Equivocated,
    Stale,
    NotAMember,
    Forged,
    Late,
    Malformed,
}

/// What a closed round made of one member: its one upload (or identical
/// copies of it) folds, or it is dropped for one reason — a straggler on a
/// live connection (`Deadline`) or one whose connection is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Decision {
    Placed,
    Malformed,
    Equivocated,
    Deadline,
    DeadConnection,
}

/// One round as broadcast, or as one connection is sent it (the members it
/// serves). `deadline` is set while the round is open; `None` replays it.
#[derive(Debug, Clone)]
pub(super) struct Round {
    pub round: u32,
    pub members: Vec<u32>,
    /// Encoded once, shared by every `RoundBegin` and every later replay.
    pub params: Arc<ParamsBlock>,
    pub deadline: Option<Instant>,
}

impl Round {
    /// This round as the connection serving `claim` (sorted) is sent it;
    /// `None` if it serves none of its members.
    fn for_claim(&self, claim: &[u32]) -> Option<Round> {
        let members: Vec<u32> =
            self.members.iter().copied().filter(|m| claim.binary_search(m).is_ok()).collect();
        let (round, params, deadline) = (self.round, Arc::clone(&self.params), self.deadline);
        (!members.is_empty()).then_some(Round { round, members, params, deadline })
    }
}

/// An admitted claim: its connection, the retained rounds to send it (closed
/// ones from the watermark on, then the open one), and whether it re-binds
/// workers of connections that are gone.
pub(super) type Admitted = (usize, Vec<Round>, bool);

/// A member's first in-time copy's digest and what it has made of the member
/// so far; `None` until one arrives.
type Slot = Option<(u64, Decision)>;

/// The serving state that decides every upload's and every claim's fate.
#[derive(Debug, Clone, Default)]
pub(super) struct Desk {
    /// Clients claim the worker indices `0..workers` and upload `dim` values.
    workers: u32,
    dim: usize,
    /// Whether members carry state from round to round, so that a claim
    /// needs every round since its watermark that named one of its workers.
    pooled: bool,
    /// Every admitted connection: its sorted claim (emptied once it forges)
    /// and whether it is live.
    conns: Vec<(Vec<u32>, bool)>,
    /// Worker index → the connection serving it (a reconnect re-binds).
    claimed: BTreeMap<u32, usize>,
    /// The last [`REPLAY_ROUNDS`] closed rounds, oldest first.
    closed: VecDeque<Round>,
    /// Worker index → the last round naming it that has left the window.
    last_evicted: BTreeMap<u32, u32>,
    /// The open round and its members' slots.
    open: Option<(Round, Vec<Slot>)>,
    /// The counters a served run reports.
    pub report: ServingReport,
    /// `(name, round, detail)` of the events the shell has yet to record.
    pub events: Vec<(&'static str, u32, String)>,
}

impl Desk {
    pub fn new(workers: u32, dim: usize, pooled: bool) -> Desk {
        Desk { workers, dim, pooled, ..Desk::default() }
    }
    /// True once every worker index is claimed.
    pub fn covered(&self) -> bool {
        self.claimed.len() == self.workers as usize
    }
    pub fn open_round(&self) -> Option<u32> {
        self.open.as_ref().map(|(round, _)| round.round)
    }
    /// True while a member of the open round has no in-time upload.
    pub fn waiting(&self) -> bool {
        self.open.as_ref().is_some_and(|(_, slots)| slots.contains(&None))
    }

    /// Registers a claim from a client that has stepped every round before
    /// `watermark`, or says why it is refused.
    pub fn admit(&mut self, claim: &[u32], watermark: u32) -> Result<Admitted, String> {
        if claim.is_empty() {
            return Err("client claimed no workers".into());
        }
        if let Some(w) = claim.iter().find(|&&w| w >= self.workers) {
            return Err(format!("worker {w} is not a data-holding index of this run"));
        }
        // A claim may overlap earlier bindings only where their connections
        // are gone: then it is a reconnect, and the workers re-bind.
        let live = |w: &&u32| self.claimed.get(w).is_some_and(|&c| self.conns[c].1);
        if let Some(w) = claim.iter().find(live) {
            return Err(format!("worker {w} is claimed by a live connection"));
        }
        let reconnect = claim.iter().any(|w| self.claimed.contains_key(w));
        // A pooled member must step every round it was a member of: a claim
        // whose worker was in an evicted round at or after the watermark
        // cannot be brought up to date. Rounds without its members it needs
        // nothing from, however many have left the window.
        let evicted = claim.iter().filter_map(|w| Some((*w, *self.last_evicted.get(w)?)));
        let missed = evicted.filter(|&(_, r)| self.pooled && r >= watermark).max_by_key(|p| p.1);
        if let Some((w, r)) = missed {
            let first = self.closed.front().map_or(0, |rec| rec.round);
            return Err(format!(
                "watermark {watermark} predates the replay window, which starts at round \
                 {first}: worker {w} was a member of evicted round {r}"
            ));
        }
        let conn = self.conns.len();
        let mut claim = claim.to_vec();
        claim.sort_unstable();
        for &w in &claim {
            self.claimed.insert(w, conn);
        }
        self.report.reconnects += u64::from(reconnect);
        let open = self.open.as_ref().map(|(round, _)| round);
        let retained = self.closed.iter().filter(|r| r.round >= watermark).chain(open);
        let replay = retained.filter_map(|r| r.for_claim(&claim)).collect();
        self.conns.push((claim, true));
        Ok((conn, replay, reconnect))
    }

    /// Opens `round` (members sorted, deadline set), returning what each
    /// live connection serving some of its members is sent.
    pub fn open(&mut self, round: Round) -> Vec<(usize, Round)> {
        let held: usize = self.closed.iter().chain([&round]).map(|r| r.params.byte_len()).sum();
        self.report.history_bytes = self.report.history_bytes.max(held as u64);
        let live = self.conns.iter().enumerate().filter(|(_, (_, live))| *live);
        let sends = live.filter_map(|(c, (claim, _))| Some((c, round.for_claim(claim)?)));
        let sends = sends.collect();
        let slots = vec![None; round.members.len()];
        self.open = Some((round, slots));
        sends
    }

    /// Decides one upload, handed over while a round is open. Its stamp, not
    /// when it is handed over, decides whether it came in time.
    pub fn arrive(&mut self, a: &Arrival) -> Arrived {
        if self.conns[a.conn].0.binary_search(&a.worker).is_err() {
            // Cut: nothing it sends counts any more, and it is sent no rounds.
            self.conns[a.conn] = (Vec::new(), false);
            return Arrived::Forged;
        }
        let (open, slots) = self.open.as_mut().expect("uploads are decided while a round is open");
        let round = open.round;
        let found = open.members.binary_search(&a.worker).ok().filter(|_| a.round == round);
        let Some(pos) = found else {
            let (arrived, which, why) = match a.round.cmp(&round) {
                Ordering::Less => (Arrived::Stale, "closed ", ""),
                Ordering::Greater => (Arrived::Stale, "future ", ""),
                Ordering::Equal => (Arrived::NotAMember, "", ", which does not name it,"),
            };
            let detail =
                format!("worker {}: upload for {which}round {}{why} discarded", a.worker, a.round);
            self.report.discarded_stale += 1;
            self.events.push(("upload_stale", round, detail));
            return arrived;
        };
        if open.deadline.is_some_and(|deadline| a.at > deadline) {
            return Arrived::Late;
        }
        let slot = &mut slots[pos];
        let (arrived, name, detail) = match slot {
            Some((first, _)) if *first == a.digest => return Arrived::Resend,
            // Dropped already: the member's one reason is on record.
            Some((_, decision)) if *decision != Decision::Placed => return Arrived::Equivocated,
            Some((first, decision)) => {
                *decision = Decision::Equivocated;
                let (w, second) = (a.worker, a.digest);
                let why = format!(
                    "worker {w}: upload {second:016x} differs from the first, {first:016x}"
                );
                (Arrived::Equivocated, "upload_equivocated", why)
            }
            None if a.len == self.dim => {
                *slot = Some((a.digest, Decision::Placed));
                return Arrived::Place(pos);
            }
            None => {
                *slot = Some((a.digest, Decision::Malformed));
                let why = format!("worker {}: {} values, model has {}", a.worker, a.len, self.dim);
                (Arrived::Malformed, "upload_malformed", why)
            }
        };
        self.events.push((name, round, detail));
        arrived
    }

    /// Records that a connection's reader or writer has stopped.
    pub fn conn_closed(&mut self, conn: usize) {
        self.conns[conn].1 = false;
    }

    /// Closes the open round: one decision per member, in member order. A
    /// member with no in-time upload is a straggler while the connection
    /// serving it is live, and lost with it otherwise.
    pub fn close(&mut self) -> Vec<Decision> {
        use Decision::{DeadConnection, Deadline, Equivocated, Malformed, Placed};
        let (round, slots) = self.open.take().expect("a round is open");
        let mut decisions = Vec::with_capacity(slots.len());
        for (&w, slot) in round.members.iter().zip(slots) {
            let live = self.claimed.get(&w).is_some_and(|&c| self.conns[c].1);
            let decision = slot.map_or(if live { Deadline } else { DeadConnection }, |s| s.1);
            decisions.push(decision);
            let r = &mut self.report;
            let (count, reason) = match decision {
                Placed | Malformed => continue,
                Equivocated => (&mut r.dropped_equivocated, None),
                Deadline => (&mut r.dropped_deadline, Some("deadline")),
                DeadConnection => (&mut r.dropped_dead_connection, Some("dead-connection")),
            };
            *count += 1;
            if let Some(reason) = reason {
                self.events.push(("upload_dropped", round.round, format!("worker {w}: {reason}")));
            }
        }
        let r = &mut self.report;
        r.dropped_uploads = r.dropped_deadline + r.dropped_dead_connection + r.dropped_equivocated;
        self.closed.push_back(Round { deadline: None, ..round });
        while self.closed.len() > REPLAY_ROUNDS {
            let old = self.closed.pop_front().expect("the window is over-full");
            for w in old.members {
                self.last_evicted.insert(w, old.round);
            }
        }
        decisions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const DIM: usize = 4;

    /// A desk with connection 0 claiming worker 0 and connection 1 claiming
    /// workers 1 and 2, and the instant round deadlines count from.
    fn desk() -> (Desk, Instant) {
        let mut desk = Desk::new(3, DIM, true);
        assert_eq!(desk.admit(&[0], 0).map(|a| a.0), Ok(0));
        assert_eq!(desk.admit(&[2, 1], 0).map(|a| a.0), Ok(1));
        (desk, Instant::now())
    }

    fn round(round: u32, members: &[u32], deadline: Instant) -> Round {
        let params = Arc::new(ParamsBlock::encode(&[0.0; DIM]));
        Round { round, members: members.to_vec(), params, deadline: Some(deadline) }
    }

    fn upload(conn: usize, worker: u32, round: u32, digest: u64, at: Instant) -> Arrival {
        Arrival { conn, worker, round, len: DIM, digest, at }
    }

    fn events(desk: &mut Desk) -> Vec<(&'static str, u32, String)> {
        std::mem::take(&mut desk.events)
    }

    #[test]
    fn digest_tells_copies_apart() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.25).collect();
        assert_eq!(digest(&data), digest(&data.clone()));
        let mut flipped = data.clone();
        flipped[37] = f32::from_bits(flipped[37].to_bits() ^ 1);
        assert_ne!(digest(&data), digest(&flipped), "one bit of one value");
        assert_ne!(digest(&data), digest(&data[..99]), "a value fewer");
        assert_ne!(digest(&[0.0; 16]), digest(&[0.0; 17]), "the length is hashed");
        assert_ne!(digest(&[0.0]), digest(&[-0.0]), "bit patterns, not values");
    }

    #[test]
    fn an_identical_copy_is_a_resend_and_a_different_one_equivocates() {
        let (mut desk, t0) = desk();
        let deadline = t0 + Duration::from_secs(1);
        desk.open(round(0, &[0, 1, 2], deadline));
        let at = t0 + Duration::from_millis(10);
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xaa, at)), Arrived::Place(1));
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xaa, at)), Arrived::Resend);
        assert!(events(&mut desk).is_empty(), "a resend leaves no trace");
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xbb, at)), Arrived::Equivocated);
        let detail = "worker 1: upload 00000000000000bb differs from the first, 00000000000000aa";
        assert_eq!(events(&mut desk), [("upload_equivocated", 0, detail.to_string())]);
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xcc, at)), Arrived::Equivocated);
        assert!(events(&mut desk).is_empty(), "the member's one reason is on record");
        assert_eq!(desk.arrive(&upload(0, 0, 0, 0x11, at)), Arrived::Place(0));
        assert_eq!(desk.arrive(&upload(1, 2, 0, 0x22, at)), Arrived::Place(2));
        let decisions = desk.close();
        assert_eq!(decisions, [Decision::Placed, Decision::Equivocated, Decision::Placed]);
        assert_eq!((desk.report.dropped_equivocated, desk.report.dropped_uploads), (1, 1));
    }

    #[test]
    fn an_upload_read_in_time_is_placed_however_late_it_is_handed_over() {
        // The desk sees no clock: an upload read before the deadline but
        // handed over after one read past it (as a fold would delay it) is
        // placed, and the one read past it is late.
        let (mut desk, t0) = desk();
        let deadline = t0 + Duration::from_millis(5);
        desk.open(round(0, &[0, 1, 2], deadline));
        let late = upload(1, 2, 0, 0x22, deadline + Duration::from_nanos(1));
        assert_eq!(desk.arrive(&late), Arrived::Late);
        assert_eq!(desk.arrive(&upload(0, 0, 0, 0x11, deadline)), Arrived::Place(0));
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0x12, t0)), Arrived::Place(1));
        assert!(desk.waiting(), "a late upload fills no slot");
        let decisions = desk.close();
        assert_eq!(decisions, [Decision::Placed, Decision::Placed, Decision::Deadline]);
        assert_eq!(events(&mut desk), [("upload_dropped", 0, "worker 2: deadline".to_string())]);
    }

    #[test]
    fn an_upload_for_a_future_round_is_stale_with_its_reason() {
        let (mut desk, t0) = desk();
        desk.open(round(3, &[0, 1, 2], t0 + Duration::from_secs(1)));
        assert_eq!(desk.arrive(&upload(1, 1, 4, 0xaa, t0)), Arrived::Stale);
        assert_eq!(desk.arrive(&upload(1, 1, 2, 0xaa, t0)), Arrived::Stale);
        let stale = |r: &str| format!("worker 1: upload for {r} discarded");
        assert_eq!(
            events(&mut desk),
            [
                ("upload_stale", 3, stale("future round 4")),
                ("upload_stale", 3, stale("closed round 2"))
            ]
        );
        assert_eq!(desk.report.discarded_stale, 2);
    }

    #[test]
    fn an_upload_for_a_member_the_round_does_not_name_is_stale_with_its_reason() {
        let (mut desk, t0) = desk();
        desk.open(round(0, &[0, 2], t0 + Duration::from_secs(1)));
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xaa, t0)), Arrived::NotAMember);
        let detail = "worker 1: upload for round 0, which does not name it, discarded";
        assert_eq!(events(&mut desk), [("upload_stale", 0, detail.to_string())]);
        assert_eq!(desk.report.discarded_stale, 1);
        assert!(desk.waiting(), "it fills no slot");
    }

    #[test]
    fn a_forger_is_cut_and_its_members_lost_with_it() {
        let (mut desk, t0) = desk();
        let at = t0 + Duration::from_millis(1);
        desk.open(round(0, &[0, 1, 2], t0 + Duration::from_secs(1)));
        assert_eq!(desk.arrive(&upload(1, 0, 0, 0xaa, at)), Arrived::Forged);
        assert_eq!(desk.arrive(&upload(1, 1, 0, 0xbb, at)), Arrived::Forged, "cut for good");
        assert_eq!(desk.arrive(&upload(0, 0, 0, 0x11, at)), Arrived::Place(0));
        let decisions = desk.close();
        let lost = Decision::DeadConnection;
        assert_eq!(decisions, [Decision::Placed, lost, lost]);
        let sends = desk.open(round(1, &[0, 1, 2], t0 + Duration::from_secs(2)));
        assert_eq!(
            sends.iter().map(|(c, r)| (*c, r.members.clone())).collect::<Vec<_>>(),
            [(0, vec![0])]
        );
    }

    #[test]
    fn history_stays_bounded_over_many_rounds() {
        let (mut desk, t0) = desk();
        let block = ParamsBlock::encode(&[0.0; DIM]).byte_len() as u64;
        for r in 0..40 {
            desk.open(round(r, &[0, 1, 2], t0));
            desk.close();
            assert!(desk.closed.len() <= REPLAY_ROUNDS);
            assert_eq!(desk.last_evicted.len(), if r as usize >= REPLAY_ROUNDS { 3 } else { 0 });
        }
        assert_eq!(desk.report.history_bytes, (REPLAY_ROUNDS as u64 + 1) * block);
        // A pooled claim needing an evicted round is refused with the reason;
        // one from a watermark inside the window is admitted as a reconnect.
        desk.conn_closed(1);
        let refused = desk.admit(&[1], 0).map(|a| a.0);
        let window = "watermark 0 predates the replay window, which starts at round 32";
        assert_eq!(refused, Err(format!("{window}: worker 1 was a member of evicted round 31")));
        let (conn, replay, reconnect) = desk.admit(&[1], 35).expect("inside the window");
        assert_eq!((conn, replay.len(), reconnect), (2, 5, true));
        assert!(replay.iter().all(|r| r.deadline.is_none() && r.members == [1]));
    }

    /// The adversary's moves (after Aura's `Adversary.lean`), made through
    /// the Byzantine connection 1, which claims workers 1 and 2. Withholding
    /// a member's upload is its selective drop: every sequence that never
    /// sends one is explored too.
    #[derive(Debug, Clone, Copy)]
    enum Move {
        /// Its member's upload, computed honestly.
        Send(u32),
        /// A copy that differs from the honest one.
        Equivocate(u32),
        /// An upload read after the deadline.
        Delay(u32),
        /// An upload tagged with the previous round (`true`) or the next.
        ReplayStale(u32, bool),
        /// An upload of the wrong length.
        Malform(u32),
        /// An upload for the honest connection's worker 0.
        Forge,
        /// A claim of worker 0 from a new connection.
        ForgeClaim,
        /// Its connection closes.
        Disconnect,
    }

    const MOVES: [Move; 15] = [
        Move::Send(1),
        Move::Send(2),
        Move::Equivocate(1),
        Move::Equivocate(2),
        Move::Delay(1),
        Move::Delay(2),
        Move::ReplayStale(1, true),
        Move::ReplayStale(2, false),
        Move::ReplayStale(2, true),
        Move::ReplayStale(1, false),
        Move::Malform(1),
        Move::Malform(2),
        Move::Forge,
        Move::ForgeClaim,
        Move::Disconnect,
    ];

    /// The members of the checker's two rounds: worker 1 sits round 1 out.
    const MEMBERS: [&[u32]; 2] = [&[0, 1, 2], &[0, 2]];

    /// An honest upload's digest; an equivocating copy's adds 50.
    fn honest(worker: u32, round: u32) -> u64 {
        100 * u64::from(round) + u64::from(worker)
    }

    /// One explored state: the desk, the open round, and what the checker
    /// saw happen in it.
    #[derive(Clone)]
    struct World {
        desk: Desk,
        t0: Instant,
        round: u32,
        honest_sent: bool,
        budget: usize,
        gone: bool,
        cut: bool,
        /// Per member of the open round: the in-time copies' `(digest, len)`
        /// the desk accepted as its own, and the slots it placed.
        copies: Vec<Vec<(u64, usize)>>,
        placed: Vec<usize>,
        events: Vec<(&'static str, u32, String)>,
        trace: Vec<String>,
    }

    impl World {
        fn deadline(&self) -> Instant {
            self.t0 + Duration::from_secs(u64::from(self.round) + 1)
        }

        fn members(&self) -> &'static [u32] {
            MEMBERS[self.round as usize]
        }

        fn fail(&self, invariant: &str, what: String) -> ! {
            panic!("{invariant}: {what}\n  after {:?}", self.trace)
        }

        /// Hands one upload to the desk and checks its verdict.
        fn arrive(
            &mut self,
            conn: usize,
            worker: u32,
            tag: u32,
            len: usize,
            digest: u64,
            late: bool,
        ) {
            let off = Duration::from_millis(1);
            let at = if late { self.deadline() + off } else { self.deadline() - off };
            let before = self.desk.open.clone().expect("a round is open").1;
            let verdict = self.desk.arrive(&Arrival { conn, worker, round: tag, len, digest, at });
            self.events.append(&mut self.desk.events);
            self.trace.push(format!(
                "{conn}:{worker}@{tag}/{len}/{digest}{} → {verdict:?}",
                if late { " late" } else { "" }
            ));
            let after = &self.desk.open.as_ref().expect("still open").1;
            let own = conn == 0 && worker == 0 || conn == 1 && !self.cut && worker != 0;
            let pos = self.members().iter().position(|&m| m == worker);
            if !own {
                if verdict != Arrived::Forged || *after != before {
                    self.fail(
                        "byzantine_cannot_forge",
                        format!("{verdict:?} changed {before:?} to {after:?}"),
                    );
                }
                self.cut |= conn == 1;
                return;
            }
            let Some(pos) = pos.filter(|_| tag == self.round) else {
                let want = if tag == self.round { Arrived::NotAMember } else { Arrived::Stale };
                if verdict != want || *after != before {
                    self.fail(
                        "slot_decided_once",
                        format!("{verdict:?} for another round's upload"),
                    );
                }
                return;
            };
            if late {
                if verdict != Arrived::Late || *after != before {
                    self.fail("arrival_decides_deadline", format!("a late upload was {verdict:?}"));
                }
                return;
            }
            let first = self.copies[pos].first().copied();
            self.copies[pos].push((digest, len));
            let want = match first {
                None if len == DIM => Arrived::Place(pos),
                None => Arrived::Malformed,
                Some((d, _)) if d == digest => Arrived::Resend,
                Some(_) => Arrived::Equivocated,
            };
            let invariant = match want {
                Arrived::Place(_) => "arrival_decides_deadline",
                Arrived::Resend | Arrived::Equivocated => "equivocation_detectable",
                _ => "slot_decided_once",
            };
            if verdict != want {
                self.fail(invariant, format!("want {want:?}, got {verdict:?}"));
            }
            if let Arrived::Place(p) = verdict {
                self.placed.push(p);
            }
        }

        /// Closes the round and checks every member's decision.
        fn close(&mut self) {
            let decisions = self.desk.close();
            self.events.append(&mut self.desk.events);
            self.trace.push(format!("close {} → {decisions:?}", self.round));
            let members = self.members();
            if decisions.len() != members.len() {
                self.fail("slot_decided_once", format!("{decisions:?} for members {members:?}"));
            }
            for (pos, (&w, &decision)) in members.iter().zip(&decisions).enumerate() {
                let copies = &self.copies[pos];
                let distinct = copies.iter().any(|c| c.0 != copies[0].0);
                let want = match copies.first() {
                    None if w == 0 || !self.gone && !self.cut => Decision::Deadline,
                    None => Decision::DeadConnection,
                    Some(&(_, len)) if len != DIM => Decision::Malformed,
                    Some(_) if distinct => Decision::Equivocated,
                    Some(_) => Decision::Placed,
                };
                if decision != want {
                    let invariant =
                        if distinct { "equivocation_detectable" } else { "slot_decided_once" };
                    self.fail(invariant, format!("worker {w}: want {want:?}, got {decision:?}"));
                }
                let folds = self.placed.iter().filter(|&&p| p == pos).count();
                if folds != usize::from(!copies.is_empty() && copies[0].1 == DIM) {
                    self.fail("slot_decided_once", format!("worker {w} was placed {folds} times"));
                }
                let tag = format!("worker {w}: ");
                let reasons: Vec<_> = (self.events.iter())
                    .filter(|e| e.1 == self.round && e.2.starts_with(&tag))
                    .filter(|e| e.0 != "upload_stale")
                    .collect();
                if reasons.len() != usize::from(decision != Decision::Placed) {
                    self.fail("slot_decided_once", format!("worker {w} {decision:?}: {reasons:?}"));
                }
                if decision == Decision::Equivocated {
                    let (first, second) =
                        (copies[0].0, copies.iter().find(|c| c.0 != copies[0].0).unwrap().0);
                    let both = format!("{second:016x} differs from the first, {first:016x}");
                    if !reasons[0].2.ends_with(&both) {
                        self.fail("equivocation_detectable", format!("{reasons:?} misses {both}"));
                    }
                }
            }
            if decisions[0] != Decision::Placed {
                self.fail("honest_unaffected", format!("worker 0 was {:?}", decisions[0]));
            }
            let r = &self.desk.report;
            let parts = r.dropped_deadline + r.dropped_dead_connection + r.dropped_equivocated;
            if r.dropped_uploads != parts {
                self.fail(
                    "slot_decided_once",
                    format!("dropped_uploads ≠ the sum of its parts: {r:?}"),
                );
            }
            self.history_bounded();
        }

        /// Opens the round `self.round` and checks who is sent it.
        fn open(&mut self) {
            let members = self.members();
            let sends = self.desk.open(round(self.round, members, self.deadline()));
            let sent: Vec<(usize, Vec<u32>)> =
                sends.into_iter().map(|(c, r)| (c, r.members)).collect();
            let theirs: Vec<u32> = members.iter().copied().filter(|&m| m != 0).collect();
            if sent.first() != Some(&(0, vec![0])) {
                self.fail("honest_unaffected", format!("the honest connection was sent {sent:?}"));
            }
            if (sent.len() == 2) != (!self.gone && !self.cut)
                || sent.len() == 2 && sent[1] != (1, theirs)
            {
                self.fail(
                    "byzantine_cannot_forge",
                    format!("round {} went to {sent:?}", self.round),
                );
            }
            self.honest_sent = false;
            self.copies = vec![Vec::new(); members.len()];
            self.placed.clear();
        }

        fn history_bounded(&self) {
            let d = &self.desk;
            let block = ParamsBlock::encode(&[0.0; DIM]).byte_len() as u64;
            if d.closed.len() > REPLAY_ROUNDS
                || d.conns.len() != 2
                || d.claimed.len() != 3
                || !d.events.is_empty()
                || d.report.history_bytes > (REPLAY_ROUNDS as u64 + 1) * block
            {
                self.fail("history_bounded", format!("{d:?}"));
            }
        }

        /// Applies one adversary move.
        fn play(&mut self, m: Move) {
            self.budget -= 1;
            let r = self.round;
            match m {
                Move::Send(w) => self.arrive(1, w, r, DIM, honest(w, r), false),
                Move::Equivocate(w) => self.arrive(1, w, r, DIM, honest(w, r) + 50, false),
                Move::Delay(w) => self.arrive(1, w, r, DIM, honest(w, r), true),
                Move::ReplayStale(w, back) => {
                    let tag = if back { r.wrapping_sub(1) } else { r + 1 };
                    self.arrive(1, w, tag, DIM, honest(w, tag), false);
                }
                Move::Malform(w) => self.arrive(1, w, r, DIM - 1, honest(w, r), false),
                Move::Forge => self.arrive(1, 0, r, DIM, honest(0, r) + 50, false),
                Move::ForgeClaim => {
                    let refused = self.desk.admit(&[0], 0).map(|a| a.0);
                    self.trace.push(format!("claim [0] → {refused:?}"));
                    if refused != Err("worker 0 is claimed by a live connection".into()) {
                        self.fail(
                            "byzantine_cannot_forge",
                            format!("a claim of worker 0 got {refused:?}"),
                        );
                    }
                    self.history_bounded();
                }
                Move::Disconnect => {
                    self.desk.conn_closed(1);
                    self.trace.push("disconnect 1".into());
                    self.gone = true;
                }
            }
        }
    }

    /// Explores every interleaving from `world`: the honest connection's one
    /// upload a round, the adversary's moves while its budget lasts, and the
    /// round closing once the honest upload is in. Returns the states
    /// visited.
    fn explore(world: &World) -> u64 {
        let mut states = 1;
        if !world.honest_sent {
            let mut next = world.clone();
            let r = next.round;
            next.arrive(0, 0, r, DIM, honest(0, r), false);
            next.honest_sent = true;
            states += explore(&next);
        } else {
            let mut next = world.clone();
            next.close();
            if next.round == 0 {
                next.round = 1;
                next.open();
                states += explore(&next);
            } else {
                states += 1;
            }
        }
        if world.budget > 0 {
            for m in MOVES {
                let uploads = !matches!(m, Move::ForgeClaim | Move::Disconnect);
                if world.gone && (uploads || matches!(m, Move::Disconnect)) {
                    continue;
                }
                let mut next = world.clone();
                next.play(m);
                states += explore(&next);
            }
        }
        states
    }

    /// Checks the six invariants over every interleaving of up to `k`
    /// adversary moves, returning the states visited.
    fn check(k: usize) -> u64 {
        let (desk, t0) = desk();
        let mut world = World {
            desk,
            t0,
            round: 0,
            honest_sent: false,
            budget: k,
            gone: false,
            cut: false,
            copies: Vec::new(),
            placed: Vec::new(),
            events: Vec::new(),
            trace: Vec::new(),
        };
        world.open();
        let states = explore(&world);
        println!("desk checker: {states} states visited, up to {k} adversary moves");
        states
    }

    #[test]
    fn the_desk_holds_every_invariant_against_up_to_three_adversary_moves() {
        assert!(check(3) > 10_000);
    }

    #[test]
    #[ignore = "deeper bound: run in release with --ignored"]
    fn the_desk_holds_every_invariant_against_up_to_five_adversary_moves() {
        check(5);
    }
}
