//! Functional (value-carrying) backing store.
//!
//! The timing model decides *when* a line reaches memory; the backing store
//! records *what* is there, at 64-bit-word granularity. It is the
//! simulator's word-image type: a workload's memory while it is generated,
//! the architectural image (newest values, lost at a crash), the durable
//! NVM image that crash recovery inspects, the initial image the recovery
//! checker replays over, and the recovered and expected images it compares.
//!
//! Storage is line-granular: one cell holds a whole cache line
//! (`[Word; WORDS_PER_LINE]` plus a written-word mask), so the hot
//! [`Backing::read_line`]/[`Backing::write_line`] pair costs one
//! line-index lookup instead of eight word lookups. The mask keeps "which words were ever
//! written" exact, so [`Backing::len`], [`Backing::iter`] and equality
//! count and compare written words, whatever the storage underneath.
//!
//! # Overlays
//!
//! An image is either *flat* (it holds every line itself) or an
//! *overlay*: the lines it wrote itself (its delta) over a frozen,
//! `Arc`-shared base that nobody writes again. A read checks the delta
//! first and falls through to the base only when the line is not there;
//! the first write to a line that only the base holds copies that line
//! into the delta. Cloning an overlay copies only its delta, so a
//! workload's image is frozen once, when it is generated, and every
//! machine simulating it, every crash snapshot and every recovered or
//! expected image pays only for the lines it changed.
//!
//! A base is one frozen image ([`Backing::over`]) or one image per core,
//! read through the per-core address striping of
//! [`pmacc_types::layout::stride`] ([`Backing::striped`]): a line in a
//! core's private slice reads that core's image, and a line every core
//! addresses identically (the shared window) reads, word by word, the
//! highest core that wrote it. [`Backing::persistent`] views the same
//! base restricted to persistent lines — the durable NVM image of a
//! machine whose architectural image is the full view.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::sync::{Arc, OnceLock};

use pmacc_types::{layout, FxHashMap, LineAddr, Word, WordAddr, WORDS_PER_LINE};

/// One line's stored words plus the bitmask of explicitly written words.
///
/// Words with a clear mask bit hold zero, so reads never consult the mask;
/// it only keeps the written-word accounting (`len`, `iter`, equality)
/// exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineCell {
    mask: u8,
    words: [Word; WORDS_PER_LINE],
}

impl LineCell {
    const EMPTY: LineCell = LineCell {
        mask: 0,
        words: [0; WORDS_PER_LINE],
    };

    /// Lays `top`'s written words over this cell's.
    fn overlay(&mut self, top: &LineCell) {
        for i in 0..WORDS_PER_LINE {
            if top.mask & (1 << i) != 0 {
                self.words[i] = top.words[i];
            }
        }
        self.mask |= top.mask;
    }

    fn written(&self) -> usize {
        self.mask.count_ones() as usize
    }
}

/// An image's own lines: a dense slab of cells plus a line → slot index,
/// so the hash table holds 16-byte entries rather than 80-byte cells.
/// With the cells inline, sparse images (a few words per line, as most
/// workload nodes are) built about twice as slowly as a word map did.
#[derive(Debug, Clone, Default)]
struct Lines {
    index: FxHashMap<LineAddr, u32>,
    cells: Vec<LineCell>,
}

impl Lines {
    fn get(&self, line: &LineAddr) -> Option<&LineCell> {
        self.index.get(line).map(|&i| &self.cells[i as usize])
    }

    fn contains_key(&self, line: &LineAddr) -> bool {
        self.index.contains_key(line)
    }

    /// The cell of `line`, inserting `init()` first if absent.
    fn get_or_insert_with(
        &mut self,
        line: LineAddr,
        init: impl FnOnce() -> LineCell,
    ) -> &mut LineCell {
        let slot = match self.index.entry(line) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = u32::try_from(self.cells.len()).expect("fewer than 2^32 lines");
                self.cells.push(init());
                *e.insert(slot)
            }
        };
        &mut self.cells[slot as usize]
    }

    fn insert(&mut self, line: LineAddr, cell: LineCell) {
        *self.get_or_insert_with(line, || cell) = cell;
    }

    fn keys(&self) -> impl Iterator<Item = &LineAddr> + '_ {
        self.index.keys()
    }

    fn iter(&self) -> impl Iterator<Item = (&LineAddr, &LineCell)> + '_ {
        self.index
            .iter()
            .map(|(line, &i)| (line, &self.cells[i as usize]))
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn clear(&mut self) {
        self.index.clear();
        self.cells.clear();
    }
}

/// The frozen images an overlay reads through, and how it addresses them.
#[derive(Debug)]
struct Base {
    /// The frozen images; with `striped`, `images[c]` is core `c`'s.
    images: Vec<Arc<Backing>>,
    /// Whether the images are per-core images read through
    /// [`layout::unstride`] (else one image at its own addresses).
    striped: bool,
    /// Whether only the images' persistent lines are visible.
    persistent_only: bool,
    /// Written words visible through this base, counted on first demand.
    words: OnceLock<usize>,
}

impl Base {
    fn new(images: Vec<Arc<Backing>>, striped: bool, persistent_only: bool) -> Arc<Base> {
        Arc::new(Base {
            images,
            striped,
            persistent_only,
            words: OnceLock::new(),
        })
    }

    /// The visible cell of `line`, if any image wrote a word of it:
    /// borrowed from the one image that holds it, or merged across the
    /// cores' images for a shared line.
    fn cell(&self, line: LineAddr) -> Option<Cow<'_, LineCell>> {
        if self.persistent_only && !line.is_persistent() {
            return None;
        }
        if !self.striped {
            return self.images[0].cell(line);
        }
        if let Some((core, local)) = layout::unstride(line.to_addr()) {
            return self.images.get(core)?.cell(local.line());
        }
        let mut merged: Option<LineCell> = None;
        for image in &self.images {
            if let Some(top) = image.cell(line) {
                merged.get_or_insert(LineCell::EMPTY).overlay(&top);
            }
        }
        merged.map(Cow::Owned)
    }

    /// Calls `f` once for every visible line, in no particular order.
    fn for_each_cell(&self, f: &mut dyn FnMut(LineAddr, &LineCell)) {
        let mut shared: FxHashMap<LineAddr, LineCell> = FxHashMap::default();
        for (core, image) in self.images.iter().enumerate() {
            image.for_each_cell(&mut |line, cell| {
                let line = if self.striped {
                    layout::stride(line.to_addr(), core).line()
                } else {
                    line
                };
                if self.persistent_only && !line.is_persistent() {
                    return;
                }
                if self.striped && layout::unstride(line.to_addr()).is_none() {
                    shared.entry(line).or_insert(LineCell::EMPTY).overlay(cell);
                } else {
                    f(line, cell);
                }
            });
        }
        for (line, cell) in &shared {
            f(*line, cell);
        }
    }

    fn words(&self) -> usize {
        *self.words.get_or_init(|| {
            let mut n = 0;
            self.for_each_cell(&mut |_, cell| n += cell.written());
            n
        })
    }
}

/// Word-granularity memory contents for one region.
///
/// Unwritten words read as zero, matching zero-initialized simulated RAM.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use pmacc_mem::Backing;
/// use pmacc_types::WordAddr;
///
/// let mut b = Backing::new();
/// assert_eq!(b.read_word(WordAddr::new(9)), 0);
/// b.write_word(WordAddr::new(9), 42);
/// assert_eq!(b.read_word(WordAddr::new(9)), 42);
///
/// // Freeze it and write over it: the frozen image never changes.
/// let frozen = Arc::new(b);
/// let mut over = Backing::over(Arc::clone(&frozen));
/// over.write_word(WordAddr::new(10), 7);
/// assert_eq!(over.read_word(WordAddr::new(9)), 42);
/// assert_eq!(over.len(), 2);
/// assert_eq!(frozen.read_word(WordAddr::new(10)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Backing {
    /// The lines this image wrote itself (all of them, when flat).
    lines: Lines,
    /// The frozen base `lines` overlays; `None` for a flat image.
    base: Option<Arc<Base>>,
    /// Written words in `lines` that the base does not already hold, kept
    /// so `len` is O(1) once the base's own count is known.
    written: usize,
}

impl Backing {
    /// Creates an empty (all-zero) flat backing store.
    #[must_use]
    pub fn new() -> Self {
        Backing::default()
    }

    /// An empty overlay over one frozen image.
    #[must_use]
    pub fn over(base: Arc<Backing>) -> Self {
        Backing::with_base(Base::new(vec![base], false, false))
    }

    /// An empty overlay over per-core frozen images: `images[c]` is read
    /// at core `c`'s striped addresses ([`pmacc_types::layout::stride`]),
    /// and a word of the shared window reads the highest core that wrote
    /// it. No word is copied.
    #[must_use]
    pub fn striped(images: Vec<Arc<Backing>>) -> Self {
        Backing::with_base(Base::new(images, true, false))
    }

    fn with_base(base: Arc<Base>) -> Self {
        Backing {
            lines: Lines::default(),
            base: Some(base),
            written: 0,
        }
    }

    /// The persistent lines of this image. The result shares this
    /// image's base, viewed through a persistence filter, so it costs
    /// only this image's own persistent lines.
    #[must_use]
    pub fn persistent(&self) -> Backing {
        let base = self.base.as_ref().map(|b| {
            if b.persistent_only {
                Arc::clone(b)
            } else {
                Base::new(b.images.clone(), b.striped, true)
            }
        });
        let mut out = Backing {
            lines: Lines::default(),
            base,
            written: 0,
        };
        for (&line, cell) in self.lines.iter() {
            if line.is_persistent() {
                out.written += (cell.mask & !out.base_mask(line)).count_ones() as usize;
                out.lines.insert(line, *cell);
            }
        }
        out
    }

    /// Whether `self` and `other` overlay one base (the same `Arc`), or
    /// are both flat — so they can differ only on lines one of them wrote
    /// itself ([`Backing::own_lines`]).
    #[must_use]
    pub fn shares_base(&self, other: &Backing) -> bool {
        match (&self.base, &other.base) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The lines this image wrote itself (every line, when flat), in no
    /// particular order.
    pub fn own_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines.keys().copied()
    }

    /// The frozen images under this overlay, one per core when striped;
    /// empty when flat.
    #[must_use]
    pub fn base_images(&self) -> &[Arc<Backing>] {
        self.base.as_ref().map_or(&[], |b| &b.images)
    }

    /// The visible cell of `line`: this image's own, else the base's.
    fn cell(&self, line: LineAddr) -> Option<Cow<'_, LineCell>> {
        match self.lines.get(&line) {
            Some(cell) => Some(Cow::Borrowed(cell)),
            None => self.base.as_ref()?.cell(line),
        }
    }

    fn base_mask(&self, line: LineAddr) -> u8 {
        let cell = self.base.as_ref().and_then(|b| b.cell(line));
        cell.map_or(0, |c| c.mask)
    }

    /// The cell a write to `line` lands in: this image's own, copied
    /// from the base on the first write.
    fn cell_mut(&mut self, line: LineAddr) -> &mut LineCell {
        let base = &self.base;
        self.lines.get_or_insert_with(line, || {
            let cell = base.as_ref().and_then(|b| b.cell(line));
            cell.map_or(LineCell::EMPTY, Cow::into_owned)
        })
    }

    /// Calls `f` once for every visible line, in no particular order.
    fn for_each_cell(&self, f: &mut dyn FnMut(LineAddr, &LineCell)) {
        if let Some(base) = &self.base {
            base.for_each_cell(&mut |line, cell| {
                if !self.lines.contains_key(&line) {
                    f(line, cell);
                }
            });
        }
        for (&line, cell) in self.lines.iter() {
            f(line, cell);
        }
    }

    /// Every visible line in ascending address order. Sorts 16-byte
    /// (line, position) keys rather than the 80-byte cells themselves.
    fn sorted_cells(&self) -> impl Iterator<Item = (LineAddr, LineCell)> {
        let mut cells = Vec::with_capacity(self.lines.len());
        let mut order = Vec::with_capacity(self.lines.len());
        self.for_each_cell(&mut |line, cell| {
            order.push((line, cells.len()));
            cells.push(*cell);
        });
        order.sort_unstable_by_key(|&(line, _)| line);
        order.into_iter().map(move |(line, i)| (line, cells[i]))
    }

    /// Reads one word (zero if never written).
    #[must_use]
    pub fn read_word(&self, addr: WordAddr) -> Word {
        self.cell(addr.line())
            .map_or(0, |c| c.words[addr.index_in_line()])
    }

    /// Reads one word if it was ever written (`None` otherwise, even
    /// though [`Backing::read_word`] would return zero for it) — the
    /// lookup an undo log needs to tell "written as zero" from
    /// "never written".
    #[must_use]
    pub fn get(&self, addr: WordAddr) -> Option<Word> {
        let cell = self.cell(addr.line())?;
        let i = addr.index_in_line();
        (cell.mask & (1 << i) != 0).then_some(cell.words[i])
    }

    /// Writes one word.
    pub fn write_word(&mut self, addr: WordAddr, value: Word) {
        let i = addr.index_in_line();
        let cell = self.cell_mut(addr.line());
        let fresh = cell.mask & (1 << i) == 0;
        cell.mask |= 1 << i;
        cell.words[i] = value;
        self.written += usize::from(fresh);
    }

    /// Reads a whole line as its eight words.
    #[must_use]
    pub fn read_line(&self, line: LineAddr) -> [Word; WORDS_PER_LINE] {
        self.cell(line).map_or([0; WORDS_PER_LINE], |c| c.words)
    }

    /// Writes a whole line from its eight words.
    pub fn write_line(&mut self, line: LineAddr, values: &[Word; WORDS_PER_LINE]) {
        let cell = self.cell_mut(line);
        let fresh = (!cell.mask).count_ones() as usize;
        cell.mask = !0;
        cell.words = *values;
        self.written += fresh;
    }

    /// Number of distinct words ever written (the base's included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.words()) + self.written
    }

    /// Whether nothing was ever written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Erases everything, base included.
    pub fn clear(&mut self) {
        self.lines.clear();
        self.base = None;
        self.written = 0;
    }

    /// Iterates over all written `(address, value)` pairs in ascending
    /// address order (an iteration boundary, so it is sorted for
    /// determinism; callers that need a different order sort themselves).
    pub fn iter(&self) -> impl Iterator<Item = (WordAddr, Word)> + '_ {
        self.sorted_cells().flat_map(|(line, cell)| {
            (0..WORDS_PER_LINE)
                .filter(move |i| cell.mask & (1 << i) != 0)
                .map(move |i| (line.word(i), cell.words[i]))
        })
    }
}

/// Two images are equal when they hold the same written words. Images
/// that share a base compare only the lines either wrote itself.
impl PartialEq for Backing {
    fn eq(&self, other: &Self) -> bool {
        if self.shares_base(other) {
            return self
                .own_lines()
                .chain(other.own_lines())
                .all(|line| self.cell(line) == other.cell(line));
        }
        self.len() == other.len() && self.sorted_cells().eq(other.sorted_cells())
    }
}

impl Eq for Backing {}

impl FromIterator<(WordAddr, Word)> for Backing {
    fn from_iter<I: IntoIterator<Item = (WordAddr, Word)>>(iter: I) -> Self {
        let mut b = Backing::new();
        b.extend(iter);
        b
    }
}

impl Extend<(WordAddr, Word)> for Backing {
    fn extend<I: IntoIterator<Item = (WordAddr, Word)>>(&mut self, iter: I) {
        for (a, v) in iter {
            self.write_word(a, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_round_trip() {
        let mut b = Backing::new();
        let line = LineAddr::new(100);
        let vals = [1, 2, 3, 4, 5, 6, 7, 8];
        b.write_line(line, &vals);
        assert_eq!(b.read_line(line), vals);
        assert_eq!(b.read_word(line.word(3)), 4);
    }

    #[test]
    fn unwritten_reads_zero() {
        let b = Backing::new();
        assert_eq!(b.read_line(LineAddr::new(5)), [0; WORDS_PER_LINE]);
        assert!(b.is_empty());
    }

    #[test]
    fn clear_erases() {
        let mut b = Backing::new();
        b.write_word(WordAddr::new(1), 7);
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.read_word(WordAddr::new(1)), 0);
    }

    #[test]
    fn collect_and_extend() {
        let mut b: Backing = [(WordAddr::new(1), 10)].into_iter().collect();
        b.extend([(WordAddr::new(2), 20)]);
        assert_eq!(b.read_word(WordAddr::new(1)), 10);
        assert_eq!(b.read_word(WordAddr::new(2)), 20);
    }

    #[test]
    fn word_writes_straddling_lines_round_trip() {
        // Words 6..10 span the boundary between lines 0 and 1.
        let mut b = Backing::new();
        for w in 6..10u64 {
            b.write_word(WordAddr::new(w), 100 + w);
        }
        assert_eq!(b.len(), 4);
        for w in 6..10u64 {
            assert_eq!(b.read_word(WordAddr::new(w)), 100 + w);
        }
        // Each partial line reads back the written words plus zeros.
        let l0 = b.read_line(LineAddr::new(0));
        assert_eq!(&l0[..6], &[0; 6]);
        assert_eq!(&l0[6..], &[106, 107]);
        let l1 = b.read_line(LineAddr::new(1));
        assert_eq!(&l1[..2], &[108, 109]);
        assert_eq!(&l1[2..], &[0; 6]);
    }

    #[test]
    fn len_counts_written_words_not_lines() {
        let mut b = Backing::new();
        b.write_word(WordAddr::new(3), 1);
        b.write_word(WordAddr::new(3), 2); // overwrite: still one word
        assert_eq!(b.len(), 1);
        b.write_word(WordAddr::new(4), 3); // same line, new word
        assert_eq!(b.len(), 2);
        b.write_line(LineAddr::new(0), &[9; WORDS_PER_LINE]);
        assert_eq!(b.len(), WORDS_PER_LINE, "line write covers words 0..8");
        b.write_line(LineAddr::new(2), &[7; WORDS_PER_LINE]);
        assert_eq!(b.len(), 2 * WORDS_PER_LINE);
    }

    #[test]
    fn iter_is_sorted_and_exact() {
        // Insert in a scattered order across several lines; iter() must
        // yield exactly the written words, ascending, with no padding
        // zeros for never-written neighbours (recovery checks rely on
        // "written" staying exact).
        let mut b = Backing::new();
        let writes = [(170u64, 1u64), (3, 2), (99, 3), (8, 4), (168, 5)];
        for (w, v) in writes {
            b.write_word(WordAddr::new(w), v);
        }
        let got: Vec<(u64, u64)> = b.iter().map(|(w, v)| (w.raw(), v)).collect();
        assert_eq!(got, vec![(3, 2), (8, 4), (99, 3), (168, 5), (170, 1)]);
    }

    #[test]
    fn get_tells_written_zero_from_never_written() {
        let mut b = Backing::new();
        assert_eq!(b.get(WordAddr::new(5)), None);
        b.write_word(WordAddr::new(5), 0);
        assert_eq!(b.get(WordAddr::new(5)), Some(0));
        // A neighbour in the same line stays unwritten.
        assert_eq!(b.get(WordAddr::new(4)), None);
        b.write_line(LineAddr::new(0), &[3; WORDS_PER_LINE]);
        assert_eq!(b.get(WordAddr::new(4)), Some(3));
    }

    #[test]
    fn equality_tracks_written_words() {
        let mut a = Backing::new();
        let mut b = Backing::new();
        assert_eq!(a, b);
        a.write_word(WordAddr::new(1), 0);
        assert_ne!(a, b, "an explicit zero write is a written word");
        b.write_word(WordAddr::new(1), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn overlay_copies_a_base_line_on_first_write_and_never_writes_the_base() {
        let base: Backing = [(WordAddr::new(0), 1), (WordAddr::new(1), 2)]
            .into_iter()
            .collect();
        let base = Arc::new(base);
        let mut over = Backing::over(Arc::clone(&base));
        assert_eq!(over.len(), 2);
        over.write_word(WordAddr::new(1), 20);
        over.write_word(WordAddr::new(2), 30);
        assert_eq!(over.read_line(LineAddr::new(0))[..3], [1, 20, 30]);
        assert_eq!(over.len(), 3, "one word overwritten, one new");
        assert_eq!(base.read_word(WordAddr::new(1)), 2);
        assert_eq!(over.own_lines().count(), 1);
        let copy = over.clone();
        assert!(copy.shares_base(&over));
        assert_eq!(copy, over);
        let flat: Backing = over.iter().collect();
        assert!(!flat.shares_base(&over));
        assert_eq!(flat, over, "equality ignores how the image is stored");
    }

    #[test]
    fn persistent_view_hides_volatile_lines() {
        let vol = layout::volatile_heap_base().word();
        let heap = layout::persistent_heap_base().word();
        let base: Backing = [(vol, 1), (heap, 2)].into_iter().collect();
        let arch = Backing::over(Arc::new(base));
        let nvm = arch.persistent();
        assert_eq!(nvm.read_word(vol), 0);
        assert_eq!(nvm.read_word(heap), 2);
        assert_eq!(nvm.len(), 1);
        assert_eq!(nvm.iter().collect::<Vec<_>>(), vec![(heap, 2)]);
        assert_eq!(arch.len(), 2);
    }
}
