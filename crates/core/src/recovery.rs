//! Crash injection, recovery and the atomicity checker.
//!
//! A simulated crash keeps only what the hardware keeps: the NVM image
//! (under eADR including the flush-on-failure drain of every dirty cache
//! line) and the scheme's own durable state, a [`SchemeCrash`] — the
//! STT-RAM transaction caches (data *and* state bits, Table 1) and COW
//! areas, the NVLLC's committed lines, or eADR's per-core undo logs.
//! Each scheme's recovery walk in [`crate::scheme`] rebuilds a consistent
//! NVM image from those, and [`check_recovery`] verifies the result
//! equals replaying exactly the transactions that committed before the
//! crash — all-or-nothing, in program order.

use core::fmt;
use std::sync::Arc;

use pmacc_mem::{Backing, WearSnapshot};
use pmacc_types::{layout, Cycle, LineAddr, TxId, Word, WordAddr, WORDS_PER_LINE};

use crate::scheme::SchemeCrash;

/// One committed transaction in the golden journal (oracle only — real
/// recovery never reads this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRecord {
    /// Transaction identity.
    pub tx: TxId,
    /// Cycle at which `TX_END` completed (the durability point).
    pub commit_cycle: Cycle,
    /// Persistent writes, in program order.
    pub writes: Vec<(WordAddr, Word)>,
}

/// The golden journal: every committed transaction in global commit
/// order, append-only and shared. A crash snapshot clones it in O(1) and
/// shares the whole prefix with the running machine; the machine's next
/// append starts a new chunk instead of touching a shared one.
///
/// # Example
///
/// ```
/// use pmacc::recovery::{Journal, TxRecord};
/// use pmacc_types::TxId;
///
/// let rec = |s| TxRecord { tx: TxId::new(0, s), commit_cycle: s, writes: Vec::new() };
/// let mut live = Journal::default();
/// live.push(rec(0));
/// let snapshot = live.clone();
/// live.push(rec(1));
/// assert_eq!((snapshot.len(), live.len()), (1, 2));
/// // The snapshot's record is the live journal's first one, not a copy.
/// assert!(std::ptr::eq(snapshot.iter().next().unwrap(), live.iter().next().unwrap()));
/// let serials: Vec<u64> = live.iter().map(|r| r.tx.serial()).collect();
/// assert_eq!(serials, [0, 1]);
/// ```
#[derive(Clone, Default)]
pub struct Journal {
    last: Option<Arc<JournalChunk>>,
}

/// A run of consecutive journal records and the chunk before it.
struct JournalChunk {
    prev: Option<Arc<JournalChunk>>,
    /// Records in every chunk before this one.
    start: usize,
    records: Vec<TxRecord>,
}

impl Journal {
    /// Appends one committed transaction.
    pub fn push(&mut self, rec: TxRecord) {
        if let Some(chunk) = self.last.as_mut().and_then(Arc::get_mut) {
            chunk.records.push(rec);
            return;
        }
        let start = self.len();
        self.last = Some(Arc::new(JournalChunk {
            prev: self.last.take(),
            start,
            records: vec![rec],
        }));
    }

    /// Number of committed transactions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.last.as_ref().map_or(0, |c| c.start + c.records.len())
    }

    /// Whether nothing has committed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The records in commit order.
    pub fn iter(&self) -> impl Iterator<Item = &TxRecord> {
        let mut chunks = Vec::new();
        let mut cur = self.last.as_deref();
        while let Some(chunk) = cur {
            chunks.push(chunk);
            cur = chunk.prev.as_deref();
        }
        chunks.into_iter().rev().flat_map(|c| c.records.iter())
    }
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Journal {
    type Item = &'a TxRecord;
    type IntoIter = Box<dyn Iterator<Item = &'a TxRecord> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl Drop for Journal {
    /// Unlinks the chunk chain iteratively, so a journal snapshotted at
    /// every commit cannot overflow the stack on drop.
    fn drop(&mut self) {
        let mut cur = self.last.take();
        while let Some(chunk) = cur {
            cur = Arc::into_inner(chunk).and_then(|mut c| c.prev.take());
        }
    }
}

/// Everything that survives a power failure, plus the checking oracle.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// Crash cycle.
    pub cycle: Cycle,
    /// Core count.
    pub cores: usize,
    /// Durable NVM image at the crash. With wear leveling off this is
    /// in logical line space; with leveling on it is in *device row*
    /// space — exactly what the cells physically hold — and
    /// [`CrashState::logical_nvm`] must invert the remap before any
    /// scheme-level recovery.
    pub nvm: Backing,
    /// The wear remapper's nonvolatile registers (per-region start/gap),
    /// captured at the crash; `None` when leveling is off. Real
    /// start-gap hardware keeps these registers in NVM for precisely
    /// this reason: without them the device image is unreadable.
    pub wear: Option<WearSnapshot>,
    /// NVM image at simulation start (for the checker's replay), shared
    /// by every snapshot of one run.
    pub initial_nvm: Arc<Backing>,
    /// What the running scheme keeps durable beside the NVM image; only
    /// its own recovery reads it.
    pub scheme_state: SchemeCrash,
    /// Golden journal of committed transactions (oracle), sharing its
    /// storage with the machine it was taken from.
    pub journal: Journal,
    /// Per-core transaction in flight at the crash (oracle): its identity
    /// and the persistent writes it had issued so far. A scheme may
    /// legitimately recover such a transaction completely — its commit
    /// became durable but `TX_END` had not retired — or not at all;
    /// recovering it partially is an atomicity violation.
    pub in_flight: Vec<Option<TxRecord>>,
}

impl CrashState {
    /// The durable NVM image in *logical* line space: reconstructs the
    /// remap from the wear snapshot's registers and inverts it, or
    /// returns the image as-is when leveling was off. This is the first
    /// step of every recovery procedure under wear leveling.
    #[must_use]
    pub fn logical_nvm(&self) -> Backing {
        match &self.wear {
            Some(snap) => snap.to_logical(&self.nvm),
            None => self.nvm.clone(),
        }
    }
}

/// Runs the scheme's recovery procedure, returning the recovered NVM image.
///
/// # Example
///
/// ```
/// use pmacc::recovery::{check_recovery, recover};
/// use pmacc::{RunConfig, System};
/// use pmacc_types::{MachineConfig, SchemeKind};
/// use pmacc_workloads::{WorkloadKind, WorkloadParams};
///
/// let mut sys = System::for_workload(
///     MachineConfig::small().with_scheme(SchemeKind::TxCache),
///     WorkloadKind::Sps,
///     &WorkloadParams::tiny(1),
///     &RunConfig::default(),
/// )?;
/// sys.run_until(2_000)?; // power fails mid-run
/// let state = sys.crash_state();
/// let recovered = recover(&state);
/// check_recovery(&state, &recovered).expect("transaction-atomic");
/// # Ok::<(), pmacc_types::SimError>(())
/// ```
#[must_use]
pub fn recover(state: &CrashState) -> Backing {
    let mut nvm = state.logical_nvm();
    state.scheme_state.recover(state.cores, &mut nvm);
    nvm
}

/// The work a scheme's recovery procedure performs after a crash —
/// quantifying the paper's §3 recovery discussion ("we can recover the
/// data using the buffered writes in the TC").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryCost {
    /// Durable words the procedure had to *scan* (log walk, TC array
    /// read-out, LLC tag walk).
    pub words_scanned: u64,
    /// NVM word writes the procedure performs to redo committed state.
    pub words_replayed: u64,
    /// Estimated wall time in nanoseconds (scans at NVM/STT-RAM read
    /// latency per line, replays at NVM write latency per line).
    pub estimated_ns: u64,
}

/// Estimates the recovery cost for `state` with `machine`'s NVM
/// latencies. The words scanned and replayed are counted by the same
/// walk [`recover`] runs, over the crashed machine's own arrays.
#[must_use]
pub fn recovery_cost(
    state: &CrashState,
    machine: &pmacc_types::MachineConfig,
) -> RecoveryCost {
    let mut nvm = state.logical_nvm();
    let mut cost = state.scheme_state.recover(state.cores, &mut nvm);
    let lines_scanned = cost.words_scanned.div_ceil(WORDS_PER_LINE as u64);
    let lines_replayed = cost.words_replayed.div_ceil(WORDS_PER_LINE as u64);
    cost.estimated_ns = (lines_scanned as f64 * machine.nvm.read_ns
        + lines_replayed as f64 * machine.nvm.write_ns) as u64;
    cost
}

/// A recovered image failed the atomicity/durability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError {
    /// Words whose recovered value differs from the committed-replay
    /// expectation, as `(address, expected, recovered)` — first few only.
    pub mismatches: Vec<(WordAddr, Word, Word)>,
    /// Total number of mismatching words.
    pub total: usize,
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} recovered words mismatch; first: ", self.total)?;
        for (w, e, g) in self.mismatches.iter().take(3) {
            write!(f, "[{w}: expected {e:#x}, got {g:#x}] ")?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryError {}

/// Checks that `recovered` equals replaying, over the initial image,
/// every transaction that committed before the crash — all-or-nothing and
/// in program order — optionally plus each core's single *in-flight*
/// transaction, also all-or-nothing (its commit may have become durable
/// without `TX_END` retiring; accepting it is a legitimate outcome).
/// Only the persistent *heap* is compared (log and COW areas are
/// scheme-private scratch space).
///
/// The expected image is an overlay on the initial image holding the
/// journal's heap writes (the redo-log view: durable base plus committed
/// writes). When the recovered image overlays the same base — every
/// snapshot of a machine without wear leveling does — only the lines
/// either image wrote itself can differ, so only those are compared;
/// otherwise both images are merge-walked in full.
///
/// # Errors
///
/// Returns a [`RecoveryError`] describing the mismatching words: the
/// first 16 in ascending address order, plus the total.
pub fn check_recovery(state: &CrashState, recovered: &Backing) -> Result<(), RecoveryError> {
    let heap_base = layout::persistent_heap_base().word();
    // Journal order is *global* commit order (the push order of TX_END
    // completions), so shared-window words written by several cores'
    // transactions replay in the order those transactions serialized.
    let mut expected = (*state.initial_nvm).clone();
    for rec in &state.journal {
        expected.extend(rec.writes.iter().copied().filter(|(w, _)| *w >= heap_base));
    }
    // Compare over every heap word either image holds, so both a lost
    // committed write and a stray uncommitted one are caught (a word in
    // neither reads zero on both sides).
    let mut mismatches = if expected.shares_base(recovered) {
        delta_mismatches(&expected, recovered, heap_base)
    } else {
        heap_mismatches(&expected, recovered, heap_base)
    };
    if mismatches.is_empty() {
        return Ok(());
    }
    // Try to explain mismatches with in-flight transactions, one whole
    // transaction at a time: a transaction is accepted only if *all* its
    // heap words match the image with the in-flight writes applied.
    let mut with_in_flight = Backing::new();
    for rec in state.in_flight.iter().flatten() {
        with_in_flight.extend(rec.writes.iter().copied().filter(|(w, _)| *w >= heap_base));
    }
    for rec in state.in_flight.iter().flatten() {
        let words: Vec<WordAddr> = rec
            .writes
            .iter()
            .map(|&(w, _)| w)
            .filter(|w| *w >= heap_base)
            .collect();
        if words
            .iter()
            .all(|&w| recovered.read_word(w) == with_in_flight.read_word(w))
        {
            mismatches.retain(|(w, _, _)| !words.contains(w));
        }
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        let total = mismatches.len();
        mismatches.truncate(16);
        Err(RecoveryError { mismatches, total })
    }
}

/// Every heap word (at or above `heap_base`) where `expected` and
/// `recovered` disagree, as `(address, expected, recovered)` in ascending
/// address order: one merge walk over both images' sorted words.
fn heap_mismatches(
    expected: &Backing,
    recovered: &Backing,
    heap_base: WordAddr,
) -> Vec<(WordAddr, Word, Word)> {
    let mut want = expected.iter().filter(|(w, _)| *w >= heap_base).peekable();
    let mut got = recovered.iter().filter(|(w, _)| *w >= heap_base).peekable();
    let mut out = Vec::new();
    while let Some(w) = [want.peek(), got.peek()]
        .into_iter()
        .flatten()
        .map(|&(w, _)| w)
        .min()
    {
        let e = want.next_if(|&(a, _)| a == w).map_or(0, |(_, v)| v);
        let g = got.next_if(|&(b, _)| b == w).map_or(0, |(_, v)| v);
        if e != g {
            out.push((w, e, g));
        }
    }
    out
}

/// [`heap_mismatches`] for two images over one base: they agree on every
/// line neither wrote itself, so only those lines are read.
fn delta_mismatches(
    expected: &Backing,
    recovered: &Backing,
    heap_base: WordAddr,
) -> Vec<(WordAddr, Word, Word)> {
    let heap_line = heap_base.line();
    let mut lines: Vec<LineAddr> = expected
        .own_lines()
        .chain(recovered.own_lines())
        .filter(|l| *l >= heap_line)
        .collect();
    lines.sort_unstable();
    lines.dedup();
    let mut out = Vec::new();
    for line in lines {
        let (want, got) = (expected.read_line(line), recovered.read_line(line));
        for i in 0..WORDS_PER_LINE {
            let w = line.word(i);
            if want[i] != got[i] && w >= heap_base {
                out.push((w, want[i], got[i]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::sp;
    use crate::scheme::tc::CowTxShadow;
    use crate::txcache::{EntryState, TcEntry};
    use pmacc_types::{Addr, MachineConfig};

    fn heap_word(i: u64) -> WordAddr {
        layout::persistent_heap_base().offset(i * 8).word()
    }

    fn base_state(scheme_state: SchemeCrash) -> CrashState {
        CrashState {
            cycle: 100,
            cores: 1,
            nvm: Backing::new(),
            wear: None,
            initial_nvm: Arc::default(),
            scheme_state,
            journal: Journal::default(),
            in_flight: vec![None],
        }
    }

    /// A one-core TC snapshot with the small machine's array size.
    fn tc_state(entries: Vec<TcEntry>, cow: Vec<CowTxShadow>) -> CrashState {
        base_state(SchemeCrash::TxCache {
            capacity: MachineConfig::small().txcache.entries(),
            txcaches: vec![entries],
            cow: vec![cow],
        })
    }

    fn eadr_state(undo: &[(WordAddr, Word)]) -> CrashState {
        base_state(SchemeCrash::Eadr {
            undo: vec![undo.iter().copied().collect()],
        })
    }

    fn set_undo(st: &mut CrashState, undo: &[(WordAddr, Word)]) {
        st.scheme_state = eadr_state(undo).scheme_state;
    }

    #[test]
    fn optimal_recovery_is_identity() {
        let mut st = base_state(SchemeCrash::Optimal);
        st.nvm.write_word(heap_word(0), 42);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 42);
    }

    #[test]
    fn tc_recovery_replays_committed_discards_active() {
        let mut committed = TcEntry {
            state: EntryState::Committed,
            tx: TxId::new(0, 0),
            line: heap_word(0).line(),
            values: [None; 8],
            issued: false,
            commit_seq: 1,
        };
        committed.values[0] = Some(7);
        let mut active = committed;
        active.state = EntryState::Active;
        active.tx = TxId::new(0, 1);
        active.values[0] = Some(99);
        active.line = heap_word(8).line();
        active.commit_seq = 0;
        let mut st = tc_state(vec![committed, active], Vec::new());
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 50,
            writes: vec![(heap_word(0), 7)],
        });
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 7);
        assert_eq!(rec.read_word(heap_word(8)), 0, "active entry discarded");
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn tc_recovery_redoes_committed_cow() {
        let mut st = tc_state(
            Vec::new(),
            vec![
                CowTxShadow {
                    tx: TxId::new(0, 0),
                    records: vec![(heap_word(1), 5)],
                    committed: true,
                    commit_seq: 1,
                },
                CowTxShadow {
                    tx: TxId::new(0, 1),
                    records: vec![(heap_word(2), 6)],
                    committed: false,
                    commit_seq: 0,
                },
            ],
        );
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(1), 5)],
        });
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(1)), 5);
        assert_eq!(rec.read_word(heap_word(2)), 0);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn nvllc_recovery_overlays_committed_lines() {
        let mut st = base_state(SchemeCrash::NvLlc {
            llc_lines: 0,
            committed: [(heap_word(3), 11)].into_iter().collect(),
        });
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(3), 11)],
        });
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(3)), 11);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn eadr_recovery_rolls_back_uncommitted_drained_stores() {
        // The undo log holds the first-write pre-images.
        let mut st = eadr_state(&[(heap_word(0), 7), (heap_word(1), 0)]);
        // A committed transaction wrote word 0 = 7 (drained to NVM), then
        // an in-flight one overwrote it with 99 and wrote word 1 = 55;
        // the flush-on-failure drain persisted both uncommitted stores.
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(0), 7)],
        });
        st.in_flight[0] = Some(TxRecord {
            tx: TxId::new(0, 1),
            commit_cycle: 100,
            writes: vec![(heap_word(0), 99), (heap_word(1), 55)],
        });
        st.nvm.write_word(heap_word(0), 99);
        st.nvm.write_word(heap_word(1), 55);
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 7, "rolled back to committed");
        assert_eq!(rec.read_word(heap_word(1)), 0, "rolled back to initial");
        check_recovery(&st, &rec).unwrap();
        // Skipping rollback when the crash fell *after* the transaction's
        // last store is legitimate: the image is the whole in-flight
        // transaction applied, which the checker's all-or-nothing
        // acceptance allows.
        let mut mutated = st.clone();
        set_undo(&mut mutated, &[]);
        let rec = recover(&mutated);
        check_recovery(&mutated, &rec).unwrap();
        // But at a mid-transaction crash only a prefix of the write set
        // has drained (word 1 was never stored), so skipping rollback
        // leaves a torn image the checker must reject — this is what the
        // crashgrid `keep-uncommitted-eadr` mutation exercises end to end.
        let mut partial = st.clone();
        set_undo(&mut partial, &[(heap_word(0), 7)]);
        partial.nvm.write_word(heap_word(1), 0);
        let rec = recover(&partial);
        check_recovery(&partial, &rec).unwrap();
        set_undo(&mut partial, &[]);
        let rec = recover(&partial);
        check_recovery(&partial, &rec).unwrap_err();
    }

    #[test]
    fn checker_catches_lost_committed_write() {
        let mut st = base_state(SchemeCrash::Optimal);
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(0), 9)],
        });
        let rec = recover(&st); // NVM never got the write
        let err = check_recovery(&st, &rec).unwrap_err();
        assert_eq!(err.total, 1);
        assert_eq!(err.mismatches[0], (heap_word(0), 9, 0));
    }

    #[test]
    fn checker_catches_torn_transaction() {
        let mut st = base_state(SchemeCrash::Optimal);
        // Uncommitted write leaked to NVM (no journal entry).
        st.nvm.write_word(heap_word(4), 123);
        let rec = recover(&st);
        let err = check_recovery(&st, &rec).unwrap_err();
        assert_eq!(err.total, 1);
    }

    #[test]
    fn checker_replays_over_a_non_empty_initial_image() {
        let below_heap = Addr::nvm_base().word();
        let mut st = base_state(SchemeCrash::Optimal);
        st.initial_nvm = Arc::new(
            [(below_heap, 0xBEEF), (heap_word(2), 5)]
                .into_iter()
                .collect(),
        );
        // A recovery that loses the initial heap word (and the below-heap
        // scratch word, which is not compared) reports the initial value.
        let err = check_recovery(&st, &Backing::new()).unwrap_err();
        assert_eq!(err.total, 1);
        assert_eq!(err.mismatches, vec![(heap_word(2), 5, 0)]);
        // Keeping the initial heap word is consistent, whatever happened
        // below the heap.
        let mut rec = Backing::new();
        rec.write_word(heap_word(2), 5);
        rec.write_word(below_heap, 1);
        check_recovery(&st, &rec).unwrap();
        // A committed write over the initial word wins.
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(2), 6)],
        });
        let err = check_recovery(&st, &rec).unwrap_err();
        assert_eq!(err.mismatches, vec![(heap_word(2), 6, 5)]);
        rec.write_word(heap_word(2), 6);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn checker_ignores_log_area_noise() {
        let mut st = base_state(SchemeCrash::Optimal);
        // Scratch writes below the heap are scheme-private.
        st.nvm
            .write_word(Addr::nvm_base().word(), 0xDEAD);
        let rec = recover(&st);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn recovery_cost_reflects_scheme_mechanisms() {
        let machine = MachineConfig::small();
        let array = machine.txcache.entries() as u64 * 8;
        // Optimal recovers nothing.
        let opt = base_state(SchemeCrash::Optimal);
        assert_eq!(recovery_cost(&opt, &machine), RecoveryCost::default());
        // TC scans its array and replays committed words.
        let mut e = TcEntry {
            state: EntryState::Committed,
            tx: TxId::new(0, 0),
            line: heap_word(0).line(),
            values: [None; 8],
            issued: false,
            commit_seq: 1,
        };
        e.values[0] = Some(1);
        e.values[1] = Some(2);
        let c = recovery_cost(&tc_state(vec![e], Vec::new()), &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (array, 2));
        assert!(c.estimated_ns > 0);
        // NVLLC only walks tags.
        let nv = base_state(SchemeCrash::NvLlc {
            llc_lines: machine.llc.lines(),
            committed: Backing::new(),
        });
        let c = recovery_cost(&nv, &machine);
        assert_eq!(c.words_replayed, 0);
        assert_eq!(c.words_scanned, machine.llc.lines());
        // SP walks its log once: two words per record and per commit
        // marker, and redoes only the committed transaction's record.
        let mut sp_state = base_state(SchemeCrash::Sp);
        let log = layout::log_area_base(0);
        let data = layout::persistent_heap_base();
        for (i, (meta, value)) in [
            (sp::encode_record(0, data), 7),
            (sp::encode_commit(0), 0),
            (sp::encode_record(1, data.offset(8)), 9),
        ]
        .into_iter()
        .enumerate()
        {
            let nvm = &mut sp_state.nvm;
            nvm.write_word(log.offset(16 * i as u64).word(), meta);
            nvm.write_word(log.offset(16 * i as u64 + 8).word(), value);
        }
        let c = recovery_cost(&sp_state, &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (6, 1));
        // eADR reads an address and a pre-image per undo record and
        // writes every pre-image back.
        let eadr = eadr_state(&[(heap_word(0), 7), (heap_word(1), 0)]);
        let c = recovery_cost(&eadr, &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (4, 2));
        // TC reads its whole array plus every COW shadow (two words per
        // record and two for the commit record) and redoes only the
        // committed shadow.
        let cow = tc_state(
            Vec::new(),
            vec![
                CowTxShadow {
                    tx: TxId::new(0, 0),
                    records: vec![(heap_word(0), 1), (heap_word(1), 2)],
                    committed: true,
                    commit_seq: 1,
                },
                CowTxShadow {
                    tx: TxId::new(0, 1),
                    records: vec![(heap_word(2), 3)],
                    committed: false,
                    commit_seq: 0,
                },
            ],
        );
        let c = recovery_cost(&cow, &machine);
        assert_eq!((c.words_scanned, c.words_replayed), (array + 6 + 4, 2));
    }

    #[test]
    fn recovery_inverts_the_wear_remap() {
        use pmacc_mem::WearMap;
        use pmacc_types::WearConfig;
        let mut st = base_state(SchemeCrash::Optimal);
        // Rotate a small region through a full start-gap cycle so the
        // mapping is a genuine shift (every line on a different row).
        let mut m = WearMap::new(&WearConfig {
            leveling: true,
            region_lines: 8,
            gap_write_interval: 1,
            cell_write_budget: 1_000,
        });
        for i in 0..9 {
            m.record_write(heap_word(i).line());
        }
        let snap = m.snapshot();
        // The logical image the crash should recover to...
        let mut logical = Backing::new();
        logical.write_word(heap_word(0), 42);
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 10,
            writes: vec![(heap_word(0), 42)],
        });
        // ...is durably stored on device rows.
        st.nvm = snap.to_device(&logical);
        st.wear = Some(snap);
        assert_ne!(
            st.nvm.read_word(heap_word(0)),
            42,
            "the device image really is remapped"
        );
        let rec = recover(&st);
        assert_eq!(rec.read_word(heap_word(0)), 42);
        check_recovery(&st, &rec).unwrap();
    }

    #[test]
    fn later_commits_overwrite_earlier_ones_in_expectation() {
        let mut st = base_state(SchemeCrash::Optimal);
        st.journal.push(TxRecord {
            tx: TxId::new(0, 0),
            commit_cycle: 1,
            writes: vec![(heap_word(0), 1)],
        });
        st.journal.push(TxRecord {
            tx: TxId::new(0, 1),
            commit_cycle: 2,
            writes: vec![(heap_word(0), 2)],
        });
        st.nvm.write_word(heap_word(0), 2);
        let rec = recover(&st);
        check_recovery(&st, &rec).unwrap();
    }
}
