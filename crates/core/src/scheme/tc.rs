//! TC: the paper's nonvolatile transaction cache (§3–§4).
//!
//! Every core keeps a small STT-RAM CAM-FIFO beside an unmodified cache
//! hierarchy. A transactional persistent store is buffered there in
//! program order; `TX_END` flips the transaction's entries to committed
//! and the FIFO drains them to NVM in order. Dirty persistent LLC
//! evictions are dropped (the transaction cache is the only persistent
//! path), and an LLC miss on a persistent line probes every core's
//! transaction cache in parallel with the NVM read. A transaction that
//! outgrows the cache falls back to copy-on-write (COW) shadows in a
//! per-core NVM area. Recovery redoes the committed entries and the
//! committed shadows in global commit order.

use std::collections::BTreeMap;

use pmacc_cpu::StallKind;
use pmacc_mem::Backing;
use pmacc_types::{
    layout, AccessKind, Cycle, FxHashMap, LineAddr, MachineConfig, MemRegion, MemReq, TxId, Word,
    WordAddr, WriteCause, WORDS_PER_LINE, WORD_BYTES,
};

use super::SchemeState;
use crate::recovery::RecoveryCost;
use crate::system::{BoundaryClass, Event, Origin, System};
use crate::txcache::{EntryState, TcEntry, TxCache};

/// Durable image of one overflowed (copy-on-write) transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CowTxShadow {
    /// Transaction identity.
    pub tx: TxId,
    /// Shadow copies durable in the COW area.
    pub records: Vec<(WordAddr, Word)>,
    /// Whether the commit record persisted.
    pub committed: bool,
    /// Global commit order (1-based journal index) stamped when the commit
    /// record persisted; 0 while uncommitted. Shares the replay ordering
    /// of [`TcEntry::commit_seq`].
    pub commit_seq: u64,
}

/// A TC memory request in flight, matched up again at its completion.
#[derive(Debug, Clone)]
pub(crate) enum TcOrigin {
    /// A FIFO drain of one committed entry. Its `commit_seq` orders the
    /// acks of two cores' writes to one shared word by commit, whatever
    /// the NVM completion order.
    Ack {
        core: usize,
        slot: usize,
        entry: TcEntry,
    },
    /// One COW shadow copy.
    CowData { core: usize },
    /// An overflowed transaction's COW commit record.
    CowRecord { core: usize, tx: TxId },
    /// One home-location install of a committed COW shadow.
    CowInstall {
        core: usize,
        tx: TxId,
        word: WordAddr,
        value: Word,
        /// Commit order of the overflowed transaction (see `Ack`).
        seq: u64,
    },
}

/// Where an overflowed transaction's `TX_END` waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxEndPhase {
    WaitCowData,
    WaitCowRecord,
}

/// One core's copy-on-write fall-back state.
#[derive(Debug, Clone, Copy, Default)]
struct CowCore {
    active: bool,
    /// Shadow writes issued but not yet durable.
    pending: usize,
    /// Next free word of the core's COW area.
    cursor: u64,
    phase: Option<TxEndPhase>,
}

/// The TC scheme's runtime state.
#[derive(Debug)]
pub(crate) struct TcState {
    pub(super) tcs: Vec<TxCache>,
    cow: Vec<CowCore>,
    /// Per core, the cycle of the one live drain event (dedup marker).
    drain_at: Vec<Option<Cycle>>,
    pub(super) cow_shadow: Vec<Vec<CowTxShadow>>,
    /// Outstanding home-location installs per overflowed transaction;
    /// its COW-area shadow is freed (truncated) when this reaches zero.
    cow_installs: FxHashMap<(usize, TxId), usize>,
    /// CAM probe latency (cycles).
    lat: Cycle,
}

impl TcState {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        TcState {
            tcs: (0..cfg.cores).map(|_| TxCache::new(&cfg.txcache)).collect(),
            cow: vec![CowCore::default(); cfg.cores],
            drain_at: vec![None; cfg.cores],
            cow_shadow: vec![Vec::new(); cfg.cores],
            cow_installs: FxHashMap::default(),
            lat: cfg.txcache.latency_cycles(cfg.core.freq),
        }
    }
}

/// The hooks only TC implements.
impl SchemeState {
    fn tc(&mut self) -> &mut TcState {
        match self {
            SchemeState::Tc(tc) => tc,
            _ => unreachable!("transaction-cache path under another scheme"),
        }
    }

    /// An LLC miss on a persistent line probes every core's transaction
    /// cache in parallel with the NVM read (§3), stopping at the first
    /// hit, and a hit serves the fill at CAM latency. A cache whose
    /// presence filter says the line cannot be buffered skips the CAM
    /// search but still counts a probe miss — the probe statistics feed
    /// the report and the energy model, so the filter must be invisible.
    pub(crate) fn miss_probe(&mut self, line: LineAddr) -> Option<Cycle> {
        let tc = match self {
            SchemeState::Tc(tc) if line.is_persistent() => tc,
            _ => return None,
        };
        for cache in &mut tc.tcs {
            if !cache.contains_line(line) {
                cache.record_probe_miss();
            } else if cache.probe(line).is_some() {
                return Some(tc.lat);
            }
        }
        None
    }

    /// Every core's transaction cache; none under the other schemes.
    pub(crate) fn txcaches(&self) -> &[TxCache] {
        match self {
            SchemeState::Tc(tc) => &tc.tcs,
            _ => &[],
        }
    }

    pub(crate) fn txcaches_mut(&mut self) -> &mut [TxCache] {
        match self {
            SchemeState::Tc(tc) => &mut tc.tcs,
            _ => &mut [],
        }
    }
}

/// The `cursor`-th word's line of core `c`'s COW area.
fn cow_line(c: usize, cursor: u64) -> LineAddr {
    layout::cow_area_base(c).offset(cursor * WORD_BYTES).line()
}

impl System {
    /// Stalls or diverts a transactional persistent store before any
    /// other side effect, so the retried op is idempotent. Only TC has a
    /// gate: a transaction past the overflow threshold moves to the COW
    /// path, and a store that finds the FIFO full stalls. Returns whether
    /// the core stalled.
    pub(crate) fn store_gate(&mut self, c: usize, tx: TxId) -> bool {
        let tc = match &mut self.scheme {
            SchemeState::Tc(tc) if !tc.cow[c].active => tc,
            _ => return false,
        };
        if tc.tcs[c].overflow_triggered() {
            self.overflow_to_cow(c, tx);
        } else if tc.tcs[c].is_full() {
            self.cores[c].begin_stall(StallKind::TxCacheFull);
            // An acknowledgment completion wakes the core.
            let at = self.clock + 512;
            self.push_event(at, Event::CoreStep(c));
            return true;
        }
        false
    }

    /// A transactional persistent store retired. Under TC it is buffered
    /// in the transaction cache, or as a COW shadow once the transaction
    /// overflowed.
    pub(crate) fn buffer_tx_store(&mut self, c: usize, tx: TxId, word: WordAddr, value: Word) {
        let SchemeState::Tc(tc) = &mut self.scheme else {
            return;
        };
        if tc.cow[c].active {
            self.cow_write(c, tx, word, value);
        } else {
            tc.tcs[c]
                .insert(tx, word, value)
                .expect("fullness checked by the store gate");
        }
    }

    /// `TX_END`: flips the transaction's entries to committed and starts
    /// the drain. An overflowed transaction instead waits until its COW
    /// shadows and then its commit record are durable.
    pub(crate) fn tc_txend(&mut self, c: usize, tx: TxId) {
        // The commit order is the journal index this transaction takes:
        // `finish_txend` pushes it within this same event in the non-COW
        // case. In the COW case the cache holds no entries for this
        // transaction (overflow discarded them), so this stamp is a no-op;
        // the shadow's authoritative order is set when its commit record
        // persists.
        let seq = self.journal.len() as u64 + 1;
        let tc = self.scheme.tc();
        tc.tcs[c].commit(tx, seq);
        let cow = tc.cow[c].active;
        let at = self.clock.max(self.cores[c].time);
        self.schedule_tc_drain(c, at);
        if cow {
            self.cores[c].begin_stall(StallKind::TxCacheFull);
            self.scheme.tc().cow[c].phase = Some(TxEndPhase::WaitCowData);
            self.try_resume_tc(c);
        } else {
            self.finish_txend(c);
        }
    }

    fn schedule_tc_drain(&mut self, c: usize, at: Cycle) {
        let marker = &mut self.scheme.tc().drain_at[c];
        if marker.is_none_or(|t| at < t) {
            *marker = Some(at);
            self.push_event(at, Event::TcDrain(c));
        } else {
            self.engine.wakes_coalesced += 1;
        }
    }

    pub(crate) fn handle_tc_drain(&mut self, c: usize) {
        let tc = self.scheme.tc();
        if tc.drain_at[c] != Some(self.clock) {
            return; // stale or duplicate drain event
        }
        tc.drain_at[c] = None;
        // §3: "different write requests of conflicted addresses are issued
        // to the NVM in program order". An overflowed transaction's COW
        // installs are earlier in program order than anything still in
        // the FIFO, so drains wait until the installs are durable.
        if tc.cow_installs.keys().any(|(core, _)| *core == c) {
            return; // the last install completion re-arms the drain
        }
        for _ in 0..self.cfg.txcache.drain_per_cycle {
            let Some((slot, entry)) = self.scheme.tc().tcs[c].next_issue() else {
                return;
            };
            if !self.nvm.can_accept(AccessKind::Write) {
                // Retry after the queue drains a little.
                self.schedule_tc_drain(c, self.clock + 32);
                return;
            }
            let id = self.new_req(Origin::Tc(TcOrigin::Ack {
                core: c,
                slot,
                entry,
            }));
            let req =
                MemReq::write(id, entry.line, Some(c), WriteCause::TxCacheDrain).with_tx(entry.tx);
            self.nvm
                .enqueue(req, self.clock)
                .expect("checked can_accept");
            self.scheme.tc().tcs[c].mark_issued(slot);
        }
        self.arm_poke(MemRegion::Nvm, self.clock);
        if self.scheme.tc().tcs[c].next_issue().is_some() {
            self.schedule_tc_drain(c, self.clock + 1);
        }
    }

    /// Re-checks a `TxCacheFull`-blocked core. Two reasons to be blocked:
    /// a store waiting for a free entry, or an overflowed transaction
    /// waiting out its commit.
    pub(crate) fn try_resume_tc(&mut self, c: usize) {
        let cow = &mut self.scheme.tc().cow[c];
        match cow.phase {
            Some(TxEndPhase::WaitCowData) => {
                if cow.pending == 0 {
                    // All shadow data durable: persist the commit record.
                    let line = cow_line(c, cow.cursor);
                    cow.cursor += 8;
                    cow.phase = Some(TxEndPhase::WaitCowRecord);
                    let tx = self.cores[c].txend.expect("TX_END in progress");
                    let id = self.new_req(Origin::Tc(TcOrigin::CowRecord { core: c, tx }));
                    let req = MemReq::write(id, line, Some(c), WriteCause::Cow).with_tx(tx);
                    self.enqueue_write(req, self.clock);
                    self.arm_poke(MemRegion::Nvm, self.clock);
                }
            }
            // The completion handler finishes the commit.
            Some(TxEndPhase::WaitCowRecord) => {}
            None => {
                // A store stalled on a full FIFO: resume when room exists.
                if !self.scheme.tc().tcs[c].is_full() {
                    let now = self.clock.max(self.cores[c].time);
                    self.cores[c].end_stall(now);
                    self.push_event(now, Event::CoreStep(c));
                }
            }
        }
    }

    fn overflow_to_cow(&mut self, c: usize, tx: TxId) {
        let tc = self.scheme.tc();
        tc.tcs[c].stats.overflows.inc();
        tc.cow[c].active = true;
        // Migrate the transaction's buffered entries to the COW area.
        let mut moved = Vec::new();
        for e in tc.tcs[c].entries_fifo() {
            if e.tx == tx && e.state == EntryState::Active {
                for (i, v) in e.values.iter().enumerate() {
                    if let Some(v) = v {
                        moved.push((e.line.word(i), *v));
                    }
                }
            }
        }
        tc.tcs[c].discard_active(tx);
        for (w, v) in moved {
            self.cow_write(c, tx, w, v);
        }
    }

    fn cow_write(&mut self, c: usize, tx: TxId, word: WordAddr, value: Word) {
        let tc = self.scheme.tc();
        // Record the shadow copy in *issue* (program) order; NVM writes
        // may complete out of order across banks, but the commit record is
        // only written after every shadow ack, so a committed shadow is
        // always fully durable and must replay in program order.
        let shadows = &mut tc.cow_shadow[c];
        if let Some(last) = shadows.last_mut().filter(|s| s.tx == tx && !s.committed) {
            last.records.push((word, value));
        } else {
            shadows.push(CowTxShadow {
                tx,
                records: vec![(word, value)],
                committed: false,
                commit_seq: 0,
            });
        }
        let cow = &mut tc.cow[c];
        let line = cow_line(c, cow.cursor);
        cow.cursor += 2;
        cow.pending += 1;
        let id = self.new_req(Origin::Tc(TcOrigin::CowData { core: c }));
        let req = MemReq::write(id, line, Some(c), WriteCause::Cow).with_tx(tx);
        self.enqueue_write(req, self.clock.max(self.cores[c].time));
        self.arm_poke(MemRegion::Nvm, self.clock);
    }

    /// Completion of a TC memory request.
    pub(crate) fn tc_complete(&mut self, origin: TcOrigin, done_at: Cycle) {
        match origin {
            TcOrigin::Ack { core, slot, entry } => {
                self.record_boundary(BoundaryClass::DrainAck);
                for (i, v) in entry.values.iter().enumerate() {
                    if let Some(v) = v {
                        self.durable_write(entry.line.word(i), *v, entry.commit_seq);
                    }
                }
                self.scheme.tc().tcs[core].ack_slot(slot);
                self.schedule_tc_drain(core, self.clock);
                if self.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    self.try_resume_tc(core);
                }
            }
            TcOrigin::CowData { core } => {
                // The shadow copy (already recorded at issue, in program
                // order) is durable now.
                self.scheme.tc().cow[core].pending -= 1;
                if self.cores[core].blocked == Some(StallKind::TxCacheFull) {
                    self.cores[core].time = self.cores[core].time.max(done_at);
                    self.try_resume_tc(core);
                }
            }
            TcOrigin::CowRecord { core, tx } => {
                self.record_boundary(BoundaryClass::CowCommit);
                // The journal index this transaction takes: its
                // `finish_txend` runs below, within this same event.
                let seq = self.journal.len() as u64 + 1;
                let tc = self.scheme.tc();
                let records = match tc.cow_shadow[core].iter_mut().rev().find(|s| s.tx == tx) {
                    Some(s) => {
                        s.committed = true;
                        s.commit_seq = seq;
                        s.records.clone()
                    }
                    None => Vec::new(),
                };
                // Install the shadow copies in their home locations; the
                // shadow is truncated once every install is durable.
                if records.is_empty() {
                    tc.cow_shadow[core].retain(|s| s.tx != tx);
                } else {
                    tc.cow_installs.insert((core, tx), records.len());
                }
                // The overflowed transaction is durable; finish TX_END.
                tc.cow[core].active = false;
                tc.cow[core].phase = None;
                for (word, value) in records {
                    let origin = TcOrigin::CowInstall {
                        core,
                        tx,
                        word,
                        value,
                        seq,
                    };
                    let id = self.new_req(Origin::Tc(origin));
                    let req = MemReq::write(id, word.line(), Some(core), WriteCause::Cow);
                    self.enqueue_write(req, self.clock);
                }
                self.arm_poke(MemRegion::Nvm, self.clock);
                self.cores[core].time = self.cores[core].time.max(done_at);
                self.cores[core].end_stall(done_at);
                self.finish_txend(core);
                let at = self.cores[core].time;
                self.push_event(at, Event::CoreStep(core));
            }
            TcOrigin::CowInstall {
                core,
                tx,
                word,
                value,
                seq,
            } => {
                self.record_boundary(BoundaryClass::CowCommit);
                self.durable_write(word, value, seq);
                let tc = self.scheme.tc();
                if let Some(n) = tc.cow_installs.get_mut(&(core, tx)) {
                    *n -= 1;
                    if *n == 0 {
                        // Every home copy is durable: free the COW area
                        // and release the core's drain barrier.
                        tc.cow_installs.remove(&(core, tx));
                        tc.cow_shadow[core].retain(|s| s.tx != tx);
                        self.schedule_tc_drain(core, self.clock);
                    }
                }
            }
        }
    }
}

/// TC recovery: merges the durable sources of *all* cores — committed
/// transaction-cache entries (FIFO order within a transaction) and
/// committed COW shadows — and redoes them in ascending global commit
/// order (the `commit_seq` each transaction was stamped with at
/// `TX_END`). Per core, commit order equals program order; when two
/// cores' committed transactions wrote the same shared line, the replay
/// lands the writes in the order the transactions serialized. A
/// transaction is entirely in one source: overflowing to the COW path
/// discards its cache entries.
///
/// The work: each core's whole array of `capacity` entries is read out
/// once, each COW shadow costs two words per record plus its commit
/// record, and every committed word is replayed.
pub(crate) fn recover(
    capacity: usize,
    txcaches: &[Vec<TcEntry>],
    cow: &[Vec<CowTxShadow>],
    nvm: &mut Backing,
) -> RecoveryCost {
    let mut cost = RecoveryCost::default();
    let mut by_seq: BTreeMap<u64, Vec<(WordAddr, Word)>> = BTreeMap::new();
    for (entries, shadows) in txcaches.iter().zip(cow) {
        cost.words_scanned += (capacity * WORDS_PER_LINE) as u64;
        for e in entries.iter().filter(|e| e.state == EntryState::Committed) {
            let bucket = by_seq.entry(e.commit_seq).or_default();
            for (i, v) in e.values.iter().enumerate() {
                if let Some(v) = v {
                    bucket.push((e.line.word(i), *v));
                }
            }
        }
        for s in shadows {
            cost.words_scanned += 2 * s.records.len() as u64 + 2;
            if s.committed {
                by_seq
                    .entry(s.commit_seq)
                    .or_default()
                    .extend(s.records.iter().copied());
            }
        }
    }
    for writes in by_seq.into_values() {
        cost.words_replayed += writes.len() as u64;
        for (w, v) in writes {
            nvm.write_word(w, v);
        }
    }
    cost
}
