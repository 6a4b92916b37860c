//! The five persistence schemes — the four compared in §5 of the paper
//! plus the eADR flush-on-failure upper bound — each in one file.
//!
//! A scheme is three things:
//!
//! 1. **Trace instrumentation** — what extra instructions software must
//!    execute. Only `SP` instruments anything (write-ahead logging with
//!    `clwb`/`sfence` write-order control, Figure 3a); `Optimal`, `TC`,
//!    `NVLLC` and `eADR` run the raw trace, because their persistence
//!    support (none / transaction cache / nonvolatile LLC / residual-energy
//!    cache drain) is in hardware.
//! 2. **Runtime hooks** — the scheme's private state (`SchemeState`,
//!    one variant per scheme, owned by [`crate::System`]) and the few
//!    places it changes how the unmodified hierarchy is used: the store
//!    path, `TX_END`, dirty persistent LLC evictions, the LLC-miss probe
//!    and the power-failure drain. `System` keeps the shared mechanism
//!    and calls the hooks; [`tc`], [`nvllc`] and [`eadr`] implement them.
//! 3. **Recovery** — what survives a crash beside the NVM image
//!    ([`SchemeCrash`]) and the one walk that rebuilds a consistent image
//!    from it while counting its work.
//!
//! [`facts`] holds what the benchmark harness reads about each scheme:
//! its figure label, whether it is persistent, and whether its recovery
//! orders commits across cores.

pub mod eadr;
pub mod nvllc;
pub mod sp;
pub mod tc;

use pmacc_cache::Hierarchy;
use pmacc_cpu::Trace;
use pmacc_mem::Backing;
use pmacc_types::{LineAddr, SchemeKind, TxId, Word, WORDS_PER_LINE};

use crate::recovery::RecoveryCost;
use crate::system::System;
use crate::txcache::{TcEntry, TxCache};

/// Applies the scheme's software instrumentation to a core's trace.
///
/// # Example
///
/// ```
/// use pmacc::scheme::instrument;
/// use pmacc_cpu::{Op, Trace};
/// use pmacc_types::{Addr, SchemeKind};
///
/// let mut t = Trace::new();
/// t.push(Op::TxBegin);
/// t.push(Op::store(Addr::nvm_base(), 1));
/// t.push(Op::TxEnd);
///
/// // Hardware schemes leave the trace alone.
/// assert_eq!(instrument(SchemeKind::TxCache, 0, &t), t);
/// // Software logging makes it much longer.
/// assert!(instrument(SchemeKind::Sp, 0, &t).len() > t.len());
/// ```
#[must_use]
pub fn instrument(scheme: SchemeKind, core: usize, trace: &Trace) -> Trace {
    match scheme {
        SchemeKind::Sp => sp::instrument(core, trace),
        SchemeKind::Optimal | SchemeKind::TxCache | SchemeKind::NvLlc | SchemeKind::Eadr => {
            trace.clone()
        }
    }
}

/// [`instrument`] taking the trace by value: a scheme that adds no
/// instructions hands it back without copying it.
pub(crate) fn instrument_owned(scheme: SchemeKind, core: usize, trace: Trace) -> Trace {
    match scheme {
        SchemeKind::Sp => sp::instrument(core, &trace),
        SchemeKind::Optimal | SchemeKind::TxCache | SchemeKind::NvLlc | SchemeKind::Eadr => trace,
    }
}

/// What the benchmark harness needs to know about a scheme beyond its
/// hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Facts {
    /// The scheme's name in figures and tables.
    pub label: &'static str,
    /// Whether committed transactions survive a crash.
    pub persistent: bool,
    /// Whether recovery orders commits across cores, so lines the cores
    /// share recover to the last committed value. SP's per-core logs
    /// carry no cross-log commit order.
    pub orders_commits_across_cores: bool,
}

/// The facts about `scheme`.
///
/// # Example
///
/// ```
/// use pmacc::scheme::facts;
/// use pmacc_types::SchemeKind;
///
/// assert_eq!(facts(SchemeKind::TxCache).label, "TC (this work)");
/// assert!(!facts(SchemeKind::Optimal).persistent);
/// ```
#[must_use]
pub fn facts(scheme: SchemeKind) -> Facts {
    let (label, persistent, orders_commits_across_cores) = match scheme {
        SchemeKind::Sp => ("SP", true, false),
        SchemeKind::TxCache => ("TC (this work)", true, true),
        SchemeKind::NvLlc => ("NVLLC", true, true),
        SchemeKind::Optimal => ("Optimal", false, false),
        SchemeKind::Eadr => ("eADR", true, true),
    };
    Facts {
        label,
        persistent,
        orders_commits_across_cores,
    }
}

/// The running scheme's private state. `Optimal` and `SP` have none: SP's
/// log is ordinary simulated memory.
#[derive(Debug)]
pub(crate) enum SchemeState {
    Optimal,
    Sp,
    Tc(tc::TcState),
    NvLlc(nvllc::NvLlcState),
    Eadr(eadr::EadrState),
}

/// Hooks more than one scheme implements; a hook only one scheme needs
/// lives in that scheme's file.
impl SchemeState {
    /// The words a dirty LLC eviction writes back, or `None` when it is
    /// dropped (§3: under TC the transaction cache is the only persistent
    /// path).
    pub(crate) fn writeback(
        &self,
        line: LineAddr,
        arch: &Backing,
        nvm: &Backing,
    ) -> Option<[Word; WORDS_PER_LINE]> {
        match self {
            SchemeState::Tc(_) if line.is_persistent() => None,
            SchemeState::NvLlc(st) if line.is_persistent() => Some(st.committed_line(line, nvm)),
            _ => Some(arch.read_line(line)),
        }
    }

    /// Dirty persistent lines still owed to the NVM at the end of a run.
    pub(crate) fn residual_nvm_lines(&self, hier: &Hierarchy) -> u64 {
        match self {
            // Dropped on eviction: the TC path already persisted them.
            SchemeState::Tc(_) => 0,
            // Uncommitted (pinned/tagged) lines are not owed to the NVM.
            SchemeState::NvLlc(_) => hier.residual_persistent_dirty_lines(true),
            // eADR caches are ordinary write-back caches in normal
            // operation (the drain only happens at power loss).
            _ => hier.residual_persistent_dirty_lines(false),
        }
    }

    /// The scheme's share of a crash snapshot: what survives a power
    /// failure beside the NVM image.
    pub(crate) fn crash(&self) -> SchemeCrash {
        match self {
            SchemeState::Optimal => SchemeCrash::Optimal,
            SchemeState::Sp => SchemeCrash::Sp,
            SchemeState::Tc(tc) => SchemeCrash::TxCache {
                capacity: tc.tcs.first().map_or(0, TxCache::capacity),
                txcaches: tc.tcs.iter().map(TxCache::entries_fifo).collect(),
                cow: tc.cow_shadow.clone(),
            },
            SchemeState::NvLlc(st) => SchemeCrash::NvLlc {
                llc_lines: st.llc_lines,
                committed: st.committed.clone(),
            },
            SchemeState::Eadr(e) => SchemeCrash::Eadr {
                undo: e.undo.clone(),
            },
        }
    }
}

/// The hooks that need the whole machine.
impl System {
    /// `TX_END` of `tx` on core `c`. Optimal, SP and eADR retire it at
    /// once: every store is already where it must be (eADR commits are
    /// free because every store is durable).
    pub(crate) fn scheme_txend(&mut self, c: usize, tx: TxId) {
        match self.scheme {
            SchemeState::Tc(_) => self.tc_txend(c, tx),
            SchemeState::NvLlc(_) => self.nvllc_txend(c, tx),
            _ => self.finish_txend(c),
        }
    }
}

/// What the running scheme keeps durable beside the NVM image — the part
/// of a [`crate::recovery::CrashState`] only its own recovery reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemeCrash {
    /// No persistence support: the NVM image is all there is.
    Optimal,
    /// SP's write-ahead log lives in the NVM image itself.
    Sp,
    /// The STT-RAM transaction caches and the durable COW areas.
    TxCache {
        /// Entries in each core's transaction-cache array (recovery reads
        /// the whole array out).
        capacity: usize,
        /// Per-core transaction-cache contents, FIFO order.
        txcaches: Vec<Vec<TcEntry>>,
        /// Per-core COW-area shadows.
        cow: Vec<Vec<tc::CowTxShadow>>,
    },
    /// The nonvolatile LLC.
    NvLlc {
        /// Lines in the LLC tag array (recovery walks all of them).
        llc_lines: u64,
        /// Word values committed into the LLC.
        committed: Backing,
    },
    /// Per-core undo logs, durable alongside the drained caches (the
    /// residual-energy budget covers them).
    Eadr {
        /// Per core, the first-write pre-image of every heap word the
        /// in-flight transaction has overwritten.
        undo: Vec<Backing>,
    },
}

impl SchemeCrash {
    /// Runs the scheme's recovery over the logical NVM image of a
    /// `cores`-core machine, returning the work it did.
    pub(crate) fn recover(&self, cores: usize, nvm: &mut Backing) -> RecoveryCost {
        match self {
            SchemeCrash::Optimal => RecoveryCost::default(),
            SchemeCrash::Sp => sp::recover(cores, nvm),
            SchemeCrash::TxCache {
                capacity,
                txcaches,
                cow,
            } => tc::recover(*capacity, txcaches, cow, nvm),
            SchemeCrash::NvLlc {
                llc_lines,
                committed,
            } => nvllc::recover(*llc_lines, committed, nvm),
            SchemeCrash::Eadr { undo } => eadr::recover(undo, nvm),
        }
    }
}
