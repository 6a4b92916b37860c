//! The recording memory session the data structures run on.

use std::sync::Arc;

use pmacc_cpu::{Op, Trace};
use pmacc_mem::Backing;
use pmacc_types::rng::Rng;
use pmacc_types::{layout, Addr, Word, WordAddr};

use crate::heap::Heap;

/// A functional memory plus trace recorder.
///
/// Data structures execute against the session's word image (a
/// [`Backing`]); while recording is on, every access is also appended to
/// the trace that the timing simulation later replays. Setup (building
/// the initial structure) runs with recording *off*, and
/// [`MemSession::start_recording`] freezes the image as the simulation's
/// initial NVM/DRAM contents: recorded writes land in an overlay on it,
/// so the initial image is never copied.
///
/// # Example
///
/// ```
/// use pmacc_workloads::MemSession;
/// use pmacc_types::layout;
///
/// let mut s = MemSession::new(1);
/// let a = s.alloc_p(8);
/// s.write(a, 5); // setup, not recorded
/// s.start_recording();
/// let mut v = 0;
/// s.tx(|s| {
///     v = s.read(a);
///     s.write(a, v + 1);
/// });
/// assert_eq!(v, 5);
/// assert_eq!(s.peek(a), 6);
/// assert_eq!(s.trace().transactions(), 1);
/// ```
#[derive(Debug)]
pub struct MemSession {
    mem: Backing,
    initial: Arc<Backing>,
    trace: Trace,
    recording: bool,
    pheap: Heap,
    vheap: Heap,
    rng: Rng,
}

impl MemSession {
    /// Creates a session with deterministic randomness from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        MemSession {
            mem: Backing::new(),
            initial: Arc::default(),
            trace: Trace::new(),
            recording: false,
            pheap: Heap::new(layout::persistent_heap_base(), 1 << 30),
            vheap: Heap::new(layout::volatile_heap_base(), 1 << 30),
            rng: Rng::seed_from_u64(seed),
        }
    }

    /// The session's random-number generator.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Allocates `words` line-aligned words on the persistent heap.
    #[must_use]
    pub fn alloc_p(&mut self, words: u64) -> Addr {
        self.pheap.alloc_words(words, 8)
    }

    /// Allocates `words` line-aligned words on the volatile heap.
    #[must_use]
    pub fn alloc_v(&mut self, words: u64) -> Addr {
        self.vheap.alloc_words(words, 8)
    }

    /// Switches trace recording on, freezing the current memory as the
    /// simulation's initial image (moved, not copied); later writes go to
    /// an overlay on it.
    pub fn start_recording(&mut self) {
        self.initial = Arc::new(std::mem::take(&mut self.mem));
        self.mem = Backing::over(Arc::clone(&self.initial));
        self.recording = true;
    }

    /// Reads a 64-bit word (recorded as a load while recording).
    pub fn read(&mut self, addr: Addr) -> Word {
        if self.recording {
            self.trace.push(Op::load(addr));
        }
        self.mem.read_word(addr.word())
    }

    /// Writes a 64-bit word (recorded as a store while recording).
    pub fn write(&mut self, addr: Addr, value: Word) {
        if self.recording {
            self.trace.push(Op::store(addr, value));
        }
        self.mem.write_word(addr.word(), value);
    }

    /// Reads without recording (verification helpers).
    #[must_use]
    pub fn peek(&self, addr: Addr) -> Word {
        self.mem.read_word(addr.word())
    }

    /// Records `n` ALU operations.
    pub fn compute(&mut self, n: u32) {
        if self.recording && n > 0 {
            self.trace.push(Op::Compute(n));
        }
    }

    /// Runs `f` inside a transaction (emits `TX_BEGIN`/`TX_END`).
    pub fn tx<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        if self.recording {
            self.trace.push(Op::TxBegin);
        }
        let r = f(self);
        if self.recording {
            self.trace.push(Op::TxEnd);
        }
        r
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the session, returning the trace, the initial image
    /// (memory at [`MemSession::start_recording`], frozen) and the final
    /// image (an overlay on the initial one).
    #[must_use]
    pub fn into_images(self) -> (Trace, Arc<Backing>, Backing) {
        (self.trace, self.initial, self.mem)
    }

    /// [`MemSession::into_images`] with the initial image as an
    /// ascending word list, the form `System::new` takes.
    #[must_use]
    pub fn finish(self) -> (Trace, Vec<(WordAddr, Word)>, Backing) {
        let (trace, initial, final_image) = self.into_images();
        (trace, initial.iter().collect(), final_image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_is_not_recorded() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.write(a, 1);
        assert!(s.trace().is_empty());
        s.start_recording();
        s.write(a, 2);
        assert_eq!(s.trace().len(), 1);
    }

    #[test]
    fn initial_image_snapshots_setup_state() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.write(a, 7);
        s.start_recording();
        s.write(a, 9);
        let (_, initial, final_mem) = s.finish();
        assert_eq!(initial, vec![(a.word(), 7)]);
        assert_eq!(final_mem.read_word(a.word()), 9);
    }

    #[test]
    fn heaps_are_disjoint_regions() {
        let mut s = MemSession::new(0);
        assert!(s.alloc_p(8).is_persistent());
        assert!(!s.alloc_v(8).is_persistent());
    }

    #[test]
    fn reads_see_writes_in_program_order() {
        let mut s = MemSession::new(0);
        let a = s.alloc_p(8);
        s.start_recording();
        s.write(a, 3);
        assert_eq!(s.read(a), 3);
        s.write(a, 4);
        assert_eq!(s.read(a), 4);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = MemSession::new(5);
        let mut b = MemSession::new(5);
        let x: u64 = a.rng().gen();
        let y: u64 = b.rng().gen();
        assert_eq!(x, y);
    }
}
