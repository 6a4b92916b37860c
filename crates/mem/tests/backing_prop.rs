//! Property tests of the overlay word image: an overlay on frozen bases
//! — one image, or per-core images read through the core striping —
//! reads, counts, iterates and compares exactly like a flat image built
//! from the same writes, before and after it is cloned and both copies
//! diverge. Replayable via `PMACC_PROP_SEED`.

use std::sync::Arc;

use pmacc_mem::Backing;
use pmacc_prop::Gen;
use pmacc_types::{layout, LineAddr, Word, WordAddr, WORDS_PER_LINE};

/// Lines each region of the probe universe spans.
const LINES: u64 = 4;

/// One write: a single word, or a whole line.
#[derive(Debug, Clone, Copy)]
enum Write {
    Word(WordAddr, Word),
    Line(LineAddr, [Word; WORDS_PER_LINE]),
}

impl Write {
    fn apply(self, b: &mut Backing) {
        match self {
            Write::Word(w, v) => b.write_word(w, v),
            Write::Line(l, v) => b.write_line(l, &v),
        }
    }
}

/// A few lines of the volatile heap, the persistent heap and the shared
/// window: the words every image below is built from.
fn universe() -> Vec<WordAddr> {
    [
        layout::volatile_heap_base(),
        layout::persistent_heap_base(),
        layout::shared_pool_base(),
    ]
    .into_iter()
    .flat_map(|base| (0..LINES * WORDS_PER_LINE as u64).map(move |i| base.offset(i * 8).word()))
    .collect()
}

/// A word of `words` (so consecutive draws straddle line boundaries)
/// with a value that is zero often enough to test written zeros.
fn arb_word(g: &mut Gen, words: &[WordAddr]) -> (WordAddr, Word) {
    let w = g.choose(words);
    let v = if g.gen_bool(0.2) {
        0
    } else {
        g.gen_range(1..1_000)
    };
    (w, v)
}

fn arb_write(g: &mut Gen, words: &[WordAddr]) -> Write {
    let (w, v) = arb_word(g, words);
    if g.gen_bool(0.2) {
        Write::Line(w.line(), [v; WORDS_PER_LINE])
    } else {
        Write::Word(w, v)
    }
}

/// `got` and `want` agree on every word, line, count and iteration, and
/// compare equal.
fn assert_same(got: &Backing, want: &Backing, probes: &[WordAddr], what: &str) {
    for &w in probes {
        assert_eq!(got.read_word(w), want.read_word(w), "{what}: read_word {w}");
        assert_eq!(got.get(w), want.get(w), "{what}: get {w}");
        assert_eq!(
            got.read_line(w.line()),
            want.read_line(w.line()),
            "{what}: read_line"
        );
    }
    assert_eq!(got.len(), want.len(), "{what}: len");
    assert_eq!(
        got.iter().collect::<Vec<_>>(),
        want.iter().collect::<Vec<_>>(),
        "{what}: iter"
    );
    assert!(got == want, "{what}: ==");
}

/// Applies the same random writes to `a` and its reference `ra`, then
/// checks them, and their persistent views, against each other.
fn drive(g: &mut Gen, a: &mut Backing, ra: &mut Backing, words: &[WordAddr], what: &str) {
    for w in g.vec(0..24, |g| arb_write(g, words)) {
        w.apply(a);
        w.apply(ra);
    }
    assert_same(a, ra, words, what);
    assert_same(
        &a.persistent(),
        &ra.persistent(),
        words,
        &format!("{what} persistent"),
    );
}

/// After `image`'s reference is checked, a clone and the original
/// diverge: each must still match its own reference, and the two
/// compare equal exactly when their references do.
fn clone_and_diverge(g: &mut Gen, mut image: Backing, mut reference: Backing, words: &[WordAddr]) {
    drive(g, &mut image, &mut reference, words, "overlay");
    let mut copy = image.clone();
    let mut copy_ref = reference.clone();
    assert!(copy.shares_base(&image), "a clone shares its base");
    drive(g, &mut copy, &mut copy_ref, words, "clone");
    drive(g, &mut image, &mut reference, words, "original after clone");
    assert_eq!(
        copy == image,
        copy_ref == reference,
        "== of the diverged pair"
    );
}

#[test]
fn overlay_on_one_base_matches_a_flat_image() {
    pmacc_prop::check("overlay_on_one_base_matches_a_flat_image", |g| {
        let words = universe();
        let base: Backing = g.vec(0..40, |g| arb_word(g, &words)).into_iter().collect();
        let reference = base.clone();
        let image = Backing::over(Arc::new(base));
        assert_same(&image, &reference, &words, "fresh overlay");
        clone_and_diverge(g, image, reference, &words);
    });
}

#[test]
fn striped_overlay_matches_the_per_core_extend() {
    pmacc_prop::check("striped_overlay_matches_the_per_core_extend", |g| {
        let words = universe();
        let cores = g.gen_range(1usize..4);
        let shared = layout::shared_pool_base().offset(8).word();
        let bases: Vec<Backing> = (0..cores)
            .map(|core| {
                let mut b: Backing = g.vec(0..30, |g| arb_word(g, &words)).into_iter().collect();
                // Every core's image holds one shared-window word.
                b.write_word(shared, 100 + core as Word);
                b
            })
            .collect();
        // The reference is the flat image the cores' images made when
        // each was extended, striped, over the previous cores'.
        let mut reference = Backing::new();
        for (core, b) in bases.iter().enumerate() {
            reference.extend(
                b.iter()
                    .map(|(w, v)| (layout::stride(w.to_addr(), core).word(), v)),
            );
        }
        let image = Backing::striped(bases.into_iter().map(Arc::new).collect());
        assert_eq!(
            image.read_word(shared),
            100 + cores as Word - 1,
            "the highest core's shared word wins"
        );
        let striped: Vec<WordAddr> = (0..cores)
            .flat_map(|core| {
                words
                    .iter()
                    .map(move |w| layout::stride(w.to_addr(), core).word())
            })
            .collect();
        assert_same(&image, &reference, &striped, "fresh striped overlay");
        clone_and_diverge(g, image, reference, &striped);
    });
}
