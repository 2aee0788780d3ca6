//! Density-adaptive set containers for the v2 bitmap index.
//!
//! Following the roaring design (Chambi/Lemire et al.), the row space is
//! split into chunks of 2¹⁶ positions and each (attribute, value) stores
//! one [`Container`] per non-empty chunk, picked by whichever
//! representation is smallest for the chunk's population:
//!
//! * **array** — sorted `u16` positions; wins below ~4096 rows per chunk
//!   (sparse values, the common case for wide domains);
//! * **bitmap** — 1024 packed `u64` words; wins for dense values
//!   (low-cardinality attributes like a binary Gender column);
//! * **runs** — sorted inclusive `(start, last)` intervals; wins when the
//!   chunk is long stretches of consecutive rows, as the group-clustered
//!   permutation produces for near-constant or sorted source columns.
//!
//! Containers never materialize anything on their own: the two kernels
//! [`Container::or_into`] (union into a dense word accumulator) and
//! [`Container::and_count`] (popcount of the intersection with a dense
//! accumulator) do all evaluation work, each `O(op_cost)` with the cost
//! known up front so the planner can choose direct vs complement unions.

/// log₂ of the chunk length.
pub const CHUNK_BITS: u32 = 16;
/// Positions per chunk (2¹⁶).
pub const CHUNK_LEN: usize = 1 << CHUNK_BITS;
/// `u64` words per dense chunk bitmap.
pub const CHUNK_WORDS: usize = CHUNK_LEN / 64;

/// A container's representation, as reported by [`Container::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// Sorted `u16` position array.
    Array,
    /// 1024-word packed bitmap.
    Bitmap,
    /// Sorted inclusive `(start, last)` run list.
    Run,
}

impl ContainerKind {
    /// Stable lowercase name, used in gauges and bench JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            ContainerKind::Array => "array",
            ContainerKind::Bitmap => "bitmap",
            ContainerKind::Run => "run",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Array(Vec<u16>),
    Bitmap(Box<[u64]>),
    Runs(Vec<(u16, u16)>),
}

/// One chunk's worth of one (attribute, value)'s rows.
///
/// The cardinality is cached so cost decisions are `O(1)` even for the
/// bitmap representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    card: u32,
    repr: Repr,
}

/// Number of maximal runs in a sorted, distinct position slice.
fn run_count(sorted: &[u16]) -> usize {
    let mut runs = 0usize;
    let mut prev: Option<u16> = None;
    for &p in sorted {
        if prev != Some(p.wrapping_sub(1)) || prev.is_none() {
            runs += 1;
        }
        prev = Some(p);
    }
    runs
}

impl Container {
    /// Build the smallest representation of `sorted` (sorted, distinct,
    /// non-empty chunk positions).
    ///
    /// # Panics
    ///
    /// Panics (debug) when `sorted` is empty, unsorted, or has duplicates —
    /// index construction controls its input.
    pub fn from_sorted(sorted: &[u16]) -> Container {
        debug_assert!(!sorted.is_empty(), "empty chunks are never stored");
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]), "input not sorted");
        let card = sorted.len();
        let runs = run_count(sorted);
        let array_bytes = 2 * card;
        let run_bytes = 4 * runs;
        let bitmap_bytes = 8 * CHUNK_WORDS;
        let repr = if array_bytes <= run_bytes && array_bytes <= bitmap_bytes {
            Repr::Array(sorted.to_vec())
        } else if run_bytes <= bitmap_bytes {
            let mut rl = Vec::with_capacity(runs);
            let mut start = sorted[0];
            let mut last = sorted[0];
            for &p in &sorted[1..] {
                if p == last.wrapping_add(1) {
                    last = p;
                } else {
                    rl.push((start, last));
                    start = p;
                    last = p;
                }
            }
            rl.push((start, last));
            Repr::Runs(rl)
        } else {
            let mut words = vec![0u64; CHUNK_WORDS].into_boxed_slice();
            for &p in sorted {
                words[p as usize / 64] |= 1u64 << (p % 64);
            }
            Repr::Bitmap(words)
        };
        Container {
            card: card as u32,
            repr,
        }
    }

    /// Which representation was chosen.
    pub fn kind(&self) -> ContainerKind {
        match &self.repr {
            Repr::Array(_) => ContainerKind::Array,
            Repr::Bitmap(_) => ContainerKind::Bitmap,
            Repr::Runs(_) => ContainerKind::Run,
        }
    }

    /// Number of positions stored.
    #[inline]
    pub fn cardinality(&self) -> usize {
        self.card as usize
    }

    /// Heap bytes of the payload (the per-kind memory column of
    /// `BENCH_query_index.json`).
    pub fn byte_size(&self) -> usize {
        match &self.repr {
            Repr::Array(a) => 2 * a.len(),
            Repr::Bitmap(_) => 8 * CHUNK_WORDS,
            Repr::Runs(r) => 4 * r.len(),
        }
    }

    /// Approximate unit cost of one kernel pass over this container, in
    /// word-operation equivalents — the planner's currency for choosing
    /// direct vs complement unions.
    #[inline]
    pub fn op_cost(&self) -> usize {
        match &self.repr {
            Repr::Array(a) => a.len(),
            Repr::Bitmap(_) => CHUNK_WORDS,
            Repr::Runs(r) => 2 * r.len() + 8,
        }
    }

    /// OR this container's positions into `words`, a dense accumulator
    /// whose bit 0 is global position `base_word * 64`. The caller
    /// guarantees every stored position lands inside `words` (containers
    /// are built from positions `< n` and the accumulator covers `n`).
    pub fn or_into(&self, words: &mut [u64], base_word: usize) {
        match &self.repr {
            Repr::Array(a) => {
                for &p in a {
                    words[base_word + p as usize / 64] |= 1u64 << (p % 64);
                }
            }
            Repr::Bitmap(b) => {
                // The accumulator's last chunk may be shorter than
                // CHUNK_WORDS; container words past it are zero anyway.
                let end = (base_word + CHUNK_WORDS).min(words.len());
                for (w, src) in words[base_word..end].iter_mut().zip(b.iter()) {
                    *w |= src;
                }
            }
            Repr::Runs(r) => {
                for &(start, last) in r {
                    fill_bits(
                        words,
                        base_word * 64 + start as usize,
                        base_word * 64 + last as usize + 1,
                    );
                }
            }
        }
    }

    /// Popcount of the intersection of this container with the dense
    /// accumulator `words` (same addressing as [`Container::or_into`]).
    pub fn and_count(&self, words: &[u64], base_word: usize) -> u64 {
        match &self.repr {
            Repr::Array(a) => {
                let mut count = 0u64;
                for &p in a {
                    count += words[base_word + p as usize / 64] >> (p % 64) & 1;
                }
                count
            }
            Repr::Bitmap(b) => {
                let end = (base_word + CHUNK_WORDS).min(words.len());
                words[base_word..end]
                    .iter()
                    .zip(b.iter())
                    .map(|(w, src)| (w & src).count_ones() as u64)
                    .sum()
            }
            Repr::Runs(r) => {
                let mut count = 0u64;
                for &(start, last) in r {
                    count += count_bits(
                        words,
                        base_word * 64 + start as usize,
                        base_word * 64 + last as usize + 1,
                    );
                }
                count
            }
        }
    }

    /// Visit every stored position ascending.
    pub fn for_each_position(&self, mut f: impl FnMut(u16)) {
        match &self.repr {
            Repr::Array(a) => a.iter().for_each(|&p| f(p)),
            Repr::Bitmap(b) => {
                for (wi, &word) in b.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let bit = w.trailing_zeros() as usize;
                        f((wi * 64 + bit) as u16);
                        w &= w - 1;
                    }
                }
            }
            Repr::Runs(r) => {
                for &(start, last) in r {
                    for p in start..=last {
                        f(p);
                    }
                }
            }
        }
    }
}

/// Set bits `[lo, hi)` of a raw word slice (bit addressing from word 0).
fn fill_bits(words: &mut [u64], lo: usize, hi: usize) {
    debug_assert!(lo < hi);
    let (wl, bl) = (lo / 64, lo % 64);
    let (wh, bh) = (hi / 64, hi % 64);
    let head_mask = !0u64 << bl;
    if wl == wh {
        words[wl] |= head_mask & ((1u64 << bh) - 1);
        return;
    }
    words[wl] |= head_mask;
    for w in &mut words[wl + 1..wh] {
        *w = !0;
    }
    if bh != 0 {
        words[wh] |= (1u64 << bh) - 1;
    }
}

/// Popcount of bits `[lo, hi)` of a raw word slice.
fn count_bits(words: &[u64], lo: usize, hi: usize) -> u64 {
    debug_assert!(lo < hi);
    let (wl, bl) = (lo / 64, lo % 64);
    let (wh, bh) = (hi / 64, hi % 64);
    let head_mask = !0u64 << bl;
    if wl == wh {
        return (words[wl] & head_mask & ((1u64 << bh) - 1)).count_ones() as u64;
    }
    let mut count = (words[wl] & head_mask).count_ones() as u64;
    for &w in &words[wl + 1..wh] {
        count += w.count_ones() as u64;
    }
    if bh != 0 {
        count += (words[wh] & ((1u64 << bh) - 1)).count_ones() as u64;
    }
    count
}

/// Per-kind container census of an index: counts and payload bytes — the
/// container-mix gauges and the per-kind memory columns come from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContainerMix {
    /// Number of array containers.
    pub arrays: usize,
    /// Number of bitmap containers.
    pub bitmaps: usize,
    /// Number of run containers.
    pub runs: usize,
    /// Payload bytes held by array containers.
    pub array_bytes: usize,
    /// Payload bytes held by bitmap containers.
    pub bitmap_bytes: usize,
    /// Payload bytes held by run containers.
    pub run_bytes: usize,
}

impl ContainerMix {
    /// Fold one container into the census.
    pub fn add(&mut self, c: &Container) {
        let bytes = c.byte_size();
        match c.kind() {
            ContainerKind::Array => {
                self.arrays += 1;
                self.array_bytes += bytes;
            }
            ContainerKind::Bitmap => {
                self.bitmaps += 1;
                self.bitmap_bytes += bytes;
            }
            ContainerKind::Run => {
                self.runs += 1;
                self.run_bytes += bytes;
            }
        }
    }

    /// Total container payload bytes.
    pub fn container_bytes(&self) -> usize {
        self.array_bytes + self.bitmap_bytes + self.run_bytes
    }

    /// Total container count.
    pub fn containers(&self) -> usize {
        self.arrays + self.bitmaps + self.runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_words(positions: &[u16]) -> Vec<u64> {
        let mut words = vec![0u64; CHUNK_WORDS];
        for &p in positions {
            words[p as usize / 64] |= 1u64 << (p % 64);
        }
        words
    }

    #[test]
    fn representation_tracks_density_boundaries() {
        // Sparse scattered: array (positions two apart defeat runs).
        let sparse: Vec<u16> = (0..100u16).map(|i| i * 3).collect();
        assert_eq!(Container::from_sorted(&sparse).kind(), ContainerKind::Array);

        // Exactly at the array/bitmap boundary: 4096 scattered positions
        // cost 8192 bytes as an array, the same as a bitmap — the tie
        // goes to the array; one more forces the bitmap.
        let scattered: Vec<u16> = (0..4097u32).map(|i| (i * 15) as u16).collect();
        assert_eq!(
            Container::from_sorted(&scattered[..4096]).kind(),
            ContainerKind::Array
        );
        assert_eq!(
            Container::from_sorted(&scattered).kind(),
            ContainerKind::Bitmap
        );

        // A full chunk is one run: 4 bytes beats both alternatives.
        let full: Vec<u16> = (0..=u16::MAX).collect();
        let c = Container::from_sorted(&full);
        assert_eq!(c.kind(), ContainerKind::Run);
        assert_eq!(c.cardinality(), CHUNK_LEN);
        assert_eq!(c.byte_size(), 4);

        // Many runs of 2 (6000 runs × 4 bytes > bitmap? no: 24000 bytes
        // > 8192) — dense alternating pattern falls back to bitmap.
        let alternating: Vec<u16> = (0..u16::MAX).filter(|p| p % 2 == 0).collect();
        assert_eq!(
            Container::from_sorted(&alternating).kind(),
            ContainerKind::Bitmap
        );

        // Few long runs: runs win over both.
        let blocks: Vec<u16> = (0..8u16)
            .flat_map(|b| (b * 8000)..(b * 8000 + 2000))
            .collect();
        assert_eq!(Container::from_sorted(&blocks).kind(), ContainerKind::Run);
    }

    #[test]
    fn kernels_match_naive_bit_ops_for_all_kinds() {
        let cases: Vec<Vec<u16>> = vec![
            (0..50u16).map(|i| i * 7).collect(),            // array
            (0..u16::MAX).filter(|p| p % 3 != 2).collect(), // bitmap
            (0..4u16).flat_map(|b| (b * 999)..(b * 999 + 900)).collect(), // runs
            vec![0],
            vec![u16::MAX],
            (0..=u16::MAX).collect(),
        ];
        for positions in cases {
            let c = Container::from_sorted(&positions);
            let expect = naive_words(&positions);

            // or_into from a zeroed accumulator reproduces the set.
            let mut acc = vec![0u64; CHUNK_WORDS];
            c.or_into(&mut acc, 0);
            assert_eq!(acc, expect, "{:?}", c.kind());

            // and_count against an arbitrary accumulator equals the
            // naive AND-popcount.
            let mut other = vec![0u64; CHUNK_WORDS];
            for (i, w) in other.iter_mut().enumerate() {
                *w = (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left((i % 63) as u32);
            }
            let naive: u64 = expect
                .iter()
                .zip(&other)
                .map(|(a, b)| (a & b).count_ones() as u64)
                .sum();
            assert_eq!(c.and_count(&other, 0), naive, "{:?}", c.kind());

            // Cardinality and position iteration agree with the input.
            assert_eq!(c.cardinality(), positions.len());
            let mut seen = Vec::new();
            c.for_each_position(|p| seen.push(p));
            assert_eq!(seen, positions, "{:?}", c.kind());
        }
    }

    #[test]
    fn base_word_offsets_address_later_chunks() {
        let positions: Vec<u16> = vec![0, 1, 100, 65535];
        let c = Container::from_sorted(&positions);
        // Accumulator covering two chunks; container lives in chunk 1.
        let mut acc = vec![0u64; 2 * CHUNK_WORDS];
        c.or_into(&mut acc, CHUNK_WORDS);
        assert_eq!(acc[..CHUNK_WORDS], naive_words(&[])[..]);
        assert_eq!(acc[CHUNK_WORDS..], naive_words(&positions)[..]);
        assert_eq!(c.and_count(&acc, CHUNK_WORDS), positions.len() as u64);
        assert_eq!(c.and_count(&acc, 0), 0); // chunk 0 of acc is empty
    }

    #[test]
    fn truncated_accumulator_on_final_chunk_is_safe_for_dense_kinds() {
        // n = 70000 → the second chunk's accumulator has only
        // ceil((70000 - 65536)/64) = 70 words. Run containers must
        // respect the shorter slice (their positions stay < n).
        let positions: Vec<u16> = (0..4000u16).collect(); // run container
        let c = Container::from_sorted(&positions);
        assert_eq!(c.kind(), ContainerKind::Run);
        let mut acc = vec![0u64; CHUNK_WORDS + 70];
        c.or_into(&mut acc, CHUNK_WORDS);
        assert_eq!(c.and_count(&acc, CHUNK_WORDS), 4000);

        // Bitmap containers need card > 4096 AND > 2048 runs, so the
        // smallest possible one spans ≥ 6145 positions: runs of 2 with
        // single gaps up to 6208 → card 4139 > 4096, 2070 runs. The
        // accumulator tail covers exactly those 97 words.
        let dense: Vec<u16> = (0..6208u16).filter(|p| p % 3 != 2).collect();
        let b = Container::from_sorted(&dense);
        assert_eq!(b.kind(), ContainerKind::Bitmap);
        let mut acc = vec![0u64; CHUNK_WORDS + 97];
        b.or_into(&mut acc, CHUNK_WORDS);
        assert_eq!(b.and_count(&acc, CHUNK_WORDS), dense.len() as u64);
    }

    /// Regression at the chunk population extremes a release of
    /// n = 65 536·k ± 1 rows produces: a final chunk holding exactly one
    /// position, or exactly 65 535 of them. Both must count exactly
    /// against an accumulator sized for that truncated final chunk.
    #[test]
    fn chunk_boundary_populations_count_exactly() {
        // One position in the final chunk (n = 65 536·k + 1): the
        // accumulator tail is a single word.
        let one = Container::from_sorted(&[0]);
        let mut acc = vec![0u64; CHUNK_WORDS + 1];
        one.or_into(&mut acc, CHUNK_WORDS);
        assert_eq!(acc[CHUNK_WORDS], 1);
        assert_eq!(one.and_count(&acc, CHUNK_WORDS), 1);

        // 65 535 positions (n = 65 536·k − 1): one run 0..=65 534, in an
        // accumulator of exactly ceil(65 535 / 64) = 1024 words.
        let almost: Vec<u16> = (0..u16::MAX).collect();
        let c = Container::from_sorted(&almost);
        assert_eq!(c.kind(), ContainerKind::Run);
        let mut acc = vec![0u64; 65_535usize.div_ceil(64)];
        c.or_into(&mut acc, 0);
        assert_eq!(
            acc.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
            65_535
        );
        assert_eq!(c.and_count(&acc, 0), 65_535);
    }

    #[test]
    fn container_mix_accounts_by_kind() {
        let mut mix = ContainerMix::default();
        mix.add(&Container::from_sorted(&[1, 5, 9]));
        mix.add(&Container::from_sorted(&(0..=u16::MAX).collect::<Vec<_>>()));
        let dense: Vec<u16> = (0..u16::MAX).filter(|p| p % 2 == 0).collect();
        mix.add(&Container::from_sorted(&dense));
        assert_eq!((mix.arrays, mix.bitmaps, mix.runs), (1, 1, 1));
        assert_eq!(mix.array_bytes, 6);
        assert_eq!(mix.run_bytes, 4);
        assert_eq!(mix.bitmap_bytes, 8 * CHUNK_WORDS);
        assert_eq!(mix.containers(), 3);
        assert_eq!(mix.container_bytes(), 6 + 4 + 8 * CHUNK_WORDS);
    }
}
