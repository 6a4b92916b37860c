//! eADR: the whole cache hierarchy is flush-on-failure (Ye et al.), so a
//! persistent store is durable the moment it retires.
//!
//! At runtime eADR is cycle-identical to `Optimal`: no instrumentation,
//! no transaction-cache inserts, no drain or commit stalls. Atomicity
//! still has to be earned. The first transactional store to each heap
//! word records its pre-image in a per-core undo log, cleared at commit.
//! At power loss, residual energy drains every write-back still in
//! flight and every dirty persistent cache line into the NVM image, and
//! recovery rolls the drained stores of uncommitted transactions back
//! from the undo logs.

use pmacc_mem::Backing;
use pmacc_types::{LineAddr, ReqId, Word, WordAddr, WORDS_PER_LINE};

use super::SchemeState;
use crate::recovery::RecoveryCost;
use crate::system::{Origin, System};

/// The eADR scheme's runtime state: per core, the first-write pre-image
/// of every persistent word the in-flight transaction has overwritten.
/// The log is modeled as part of the residual-energy-protected domain.
#[derive(Debug)]
pub(crate) struct EadrState {
    pub(super) undo: Vec<Backing>,
}

impl EadrState {
    pub(crate) fn new(cores: usize) -> Self {
        EadrState {
            undo: vec![Backing::new(); cores],
        }
    }
}

/// The hooks only eADR implements.
impl SchemeState {
    /// A transactional persistent store to `word` is about to land in
    /// `arch`: record the word's pre-image, first write wins. The store
    /// is already durable (the failure drain will persist it), so this
    /// pre-image is what rollback restores if the transaction never
    /// commits. The conflict gate serialized cross-core writers of the
    /// line, so the pre-image is the latest committed value.
    pub(crate) fn before_tx_store(&mut self, c: usize, word: WordAddr, arch: &Backing) {
        if let SchemeState::Eadr(e) = self {
            if e.undo[c].get(word).is_none() {
                e.undo[c].write_word(word, arch.read_word(word));
            }
        }
    }

    /// Core `c`'s transaction retired its `TX_END`: its pre-images are
    /// dead, its stores are now the committed image.
    pub(crate) fn tx_retired(&mut self, c: usize) {
        if let SchemeState::Eadr(e) = self {
            e.undo[c].clear();
        }
    }
}

impl System {
    /// What power loss itself persists into the logical NVM image: under
    /// eADR, the flush-on-failure drain, applied to the logical
    /// NVM image (the same path as a write-back, so it composes *before*
    /// the wear remap translates the image into device rows). The
    /// memory-controller queues were already inside the ADR domain, so
    /// write-backs still in flight (queued, or parked awaiting queue
    /// room) drain first, oldest request id to newest — a line evicted
    /// twice lands its newest snapshot last — and every dirty persistent
    /// cache line, committed or not, lands newest of all.
    pub(crate) fn failure_drain(&self, logical: &mut Backing) {
        if !matches!(self.scheme, SchemeState::Eadr(_)) {
            return;
        }
        let mut pending: Vec<(ReqId, LineAddr, [Word; WORDS_PER_LINE])> = self
            .origins
            .iter()
            .filter_map(|(&id, origin)| match origin {
                Origin::Writeback { line, words } if line.is_persistent() => {
                    Some((id, *line, *words))
                }
                _ => None,
            })
            .collect();
        pending.sort_unstable_by_key(|&(id, _, _)| id);
        for (_, line, words) in pending {
            logical.write_line(line, &words);
        }
        for line in self.hier.dirty_persistent_lines() {
            logical.write_line(line, &self.arch.read_line(line));
        }
    }
}

/// eADR recovery: the drain persisted the stores of transactions that
/// never committed, so each core's undo log writes its pre-images back,
/// restoring exactly the committed image. The work: an address and a
/// pre-image word read per record, one word written back.
pub(crate) fn recover(undo: &[Backing], nvm: &mut Backing) -> RecoveryCost {
    let mut cost = RecoveryCost::default();
    for log in undo {
        cost.words_scanned += 2 * log.len() as u64;
        cost.words_replayed += log.len() as u64;
        nvm.extend(log.iter());
    }
    cost
}
