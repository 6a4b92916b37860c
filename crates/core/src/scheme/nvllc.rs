//! NVLLC: a nonvolatile (STT-RAM) last-level cache in the persistence
//! domain, after Kiln (Zhao et al., MICRO 2013).
//!
//! Transactional persistent stores are tagged so the hierarchy pins
//! their lines in the LLC until commit. `TX_END` is a blocking commit
//! flush: the transaction's dirty lines move from L1/L2 into the LLC,
//! each STT-RAM write holding its bank. The committed values are then
//! durable in the LLC, so a dirty persistent eviction writes the
//! *committed* version of its line back, and recovery overlays the
//! committed lines on the NVM image.

use pmacc_cpu::StallKind;
use pmacc_mem::Backing;
use pmacc_types::{Cycle, LineAddr, MachineConfig, TxId, Word, WORDS_PER_LINE};

use super::SchemeState;
use crate::recovery::RecoveryCost;
use crate::system::System;

/// The NVLLC scheme's runtime state.
#[derive(Debug)]
pub(crate) struct NvLlcState {
    /// Word values committed into the nonvolatile LLC.
    pub(super) committed: Backing,
    /// Commit-flush (STT-RAM write) port occupancy per line, in cycles.
    lat_write: Cycle,
    /// Lines in the LLC tag array (what recovery walks).
    pub(super) llc_lines: u64,
}

impl NvLlcState {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        NvLlcState {
            committed: Backing::new(),
            lat_write: cfg.core.freq.ns_to_cycles(cfg.nvllc.write_ns),
            llc_lines: cfg.llc.lines(),
        }
    }

    /// The committed version of `line` a write-back carries: the LLC's
    /// committed words over the durable NVM image.
    pub(crate) fn committed_line(&self, line: LineAddr, nvm: &Backing) -> [Word; WORDS_PER_LINE] {
        let mut out = nvm.read_line(line);
        for (i, w) in line.words().enumerate() {
            if let Some(v) = self.committed.get(w) {
                out[i] = v;
            }
        }
        out
    }
}

/// The hook only NVLLC implements.
impl SchemeState {
    /// Whether transactional persistent stores carry their transaction
    /// tag into the hierarchy, so it can pin uncommitted lines.
    pub(crate) fn tags_tx_stores(&self) -> bool {
        matches!(self, SchemeState::NvLlc(_))
    }
}

impl System {
    /// `TX_END`: the blocking commit flush pushes the transaction's dirty
    /// lines from L1/L2 into the nonvolatile LLC, occupying the LLC write
    /// port (the §5.2 "bursts of traffic").
    pub(crate) fn nvllc_txend(&mut self, c: usize, tx: TxId) {
        let SchemeState::NvLlc(st) = &mut self.scheme else {
            unreachable!("NVLLC commit under another scheme");
        };
        // Functional: the values are committed in the nonvolatile LLC now;
        // the flush below only costs time.
        st.committed.extend(self.cores[c].tx_writes.iter().copied());
        let lat_write = st.lat_write;
        let t0 = self.cores[c].time;
        let mut t = t0;
        for i in 0..self.cores[c].tx_lines.len() {
            let line = self.cores[c].tx_lines[i];
            if self.hier.demote_tx_line(c, line, tx) {
                // Read the private copy (L2 latency) and initiate the LLC
                // write; the core moves on to the next line while the
                // STT-RAM write holds the bank — that hold is what "blocks
                // subsequent cache and memory requests during transaction
                // commits" (§5.2).
                let w = self.llc_port_hold(line, t, lat_write);
                t += w + self.lat_l2 + 1;
            }
            self.hier.unpin_line(line);
        }
        if t > t0 {
            self.cores[c]
                .stats
                .add_stall(StallKind::CommitFlush, t - t0);
            self.cores[c].time = t;
        }
        self.finish_txend(c);
    }
}

/// NVLLC recovery: the nonvolatile LLC's committed lines are part of the
/// persistence domain, so they are overlaid on the NVM image. The work is
/// a walk of the `llc_lines`-entry tag array to discard uncommitted
/// lines; no data moves.
pub(crate) fn recover(llc_lines: u64, committed: &Backing, nvm: &mut Backing) -> RecoveryCost {
    nvm.extend(committed.iter());
    RecoveryCost {
        words_scanned: llc_lines,
        ..RecoveryCost::default()
    }
}
