//! The `Anatomize` algorithm (Figure 3 of the paper), in-memory variant.
//!
//! `Anatomize` computes an l-diverse partition in two phases:
//!
//! 1. **Group creation** (Lines 3–8): hash tuples into buckets by sensitive
//!    value; while at least `l` buckets are non-empty, draw one random
//!    tuple from each of the `l` *currently largest* buckets to form a new
//!    QI-group. Property 1: under the eligibility condition, every bucket
//!    ends with at most one tuple.
//! 2. **Residue assignment** (Lines 9–12): each of the ≤ l−1 leftover
//!    tuples joins a random existing group that does not yet contain its
//!    sensitive value. Property 2: such a group always exists.
//!
//! The result (Property 3) is a partition where every group has at least
//! `l` tuples, *all with distinct sensitive values* — hence l-diverse — and
//! by Theorem 4 its re-construction error is within a factor `1 + 1/n` of
//! the lower bound of Theorem 2.
//!
//! # The frequency ladder
//!
//! Line 5 needs the `l` largest buckets every round. The obvious
//! implementation re-sorts the non-empty bucket list per round —
//! `O((n/l)·λ log λ)` over the run, which dominates once the sensitive
//! domain λ reaches the paper's Occupation/Salary sizes. [`anatomize`]
//! instead maintains a *frequency ladder* (the LFU frequency-list trick):
//! buckets are grouped into size classes kept in descending size order,
//! each class holding its bucket values in ascending order. A round then
//!
//! * reads the selection straight off the ladder front (the prefix of the
//!   ladder IS the sort order: size-descending, value-ascending on ties),
//! * decrements the fully-drawn classes in place (`O(1)` each), and
//! * splits the boundary class, re-linking at most two equal-size
//!   neighbors (value-order merges with an `O(draw)` fast path when the
//!   incoming run does not interleave).
//!
//! Group creation is `O(l)` per round plus merge work bounded by the class
//! structure — `O(n + λ log λ)` total on the paper's workloads — while
//! producing **bit-for-bit** the partition of the sort-based
//! implementation, which survives as [`anatomize_reference`], the
//! differential-testing oracle and benchmark baseline.
//!
//! This module is the fast in-memory implementation used by the accuracy
//! experiments (Figures 4–7); [`crate::anatomize_io`] is the external,
//! I/O-accounted variant matching Theorem 3's cost model.

use crate::diversity::check_eligibility;
use crate::error::CoreError;
use crate::partition::Partition;
use anatomy_tables::Microdata;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// How group creation picks its `l` buckets each iteration.
///
/// The paper's Line 5 takes the `l` **largest** buckets; that choice is
/// what makes Property 1 (at most `l − 1` residue tuples) true. The
/// round-robin alternative exists for the ablation in `repro strategy`:
/// on skewed data it leaves a dominant bucket undrained and fails where
/// `Anatomize` succeeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BucketStrategy {
    /// The paper's rule: the `l` currently largest buckets.
    #[default]
    LargestFirst,
    /// Ablation arm: the next `l` non-empty buckets in cyclic value order.
    RoundRobin,
}

/// Configuration for [`anatomize`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnatomizeConfig {
    /// Diversity parameter `l >= 2`.
    pub l: usize,
    /// Seed for the random choices (which tuple leaves a bucket, which
    /// group receives a residue). Fixing it makes runs reproducible.
    pub seed: u64,
    /// Bucket selection rule (see [`BucketStrategy`]).
    pub strategy: BucketStrategy,
}

impl AnatomizeConfig {
    /// Configuration with the given `l`, a fixed default seed, and the
    /// paper's largest-first strategy.
    pub fn new(l: usize) -> Self {
        AnatomizeConfig {
            l,
            seed: 0xA7A7,
            strategy: BucketStrategy::LargestFirst,
        }
    }

    /// Replace the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replace the bucket strategy (ablation only; the default reproduces
    /// the paper).
    pub fn with_strategy(mut self, strategy: BucketStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// Line 2: hash by sensitive value, one bucket per value. Shuffling each
/// bucket once up front makes `pop()` equivalent to "remove an arbitrary
/// (random) tuple" (Line 7).
#[doc(hidden)]
pub fn shuffled_buckets(md: &Microdata, rng: &mut StdRng) -> Vec<Vec<u32>> {
    let domain = md.sensitive_domain_size() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); domain];
    for (r, &code) in md.sensitive_codes().iter().enumerate() {
        buckets[code as usize].push(r as u32);
    }
    for b in &mut buckets {
        b.shuffle(rng);
    }
    buckets
}

/// Output of the group-creation phase (Lines 3–8), before residues.
///
/// `residual` lists the buckets still non-empty after the last round, in
/// the exact order the residue loop (Lines 9–12) must visit them: the
/// order fixes which `rng` draw serves which leftover tuple, so it is part
/// of the bit-for-bit contract between [`anatomize`] and
/// [`anatomize_reference`].
#[doc(hidden)]
#[derive(Debug)]
pub struct GroupCreation {
    /// Row ids per QI-group, in selection order.
    pub groups: Vec<Vec<u32>>,
    /// Sensitive values present in each group, ascending.
    pub group_values: Vec<Vec<u32>>,
    /// Still-non-empty bucket values, in residue-visit order.
    pub residual: Vec<u32>,
}

/// One size class of the frequency ladder: every bucket in `members`
/// currently holds exactly `size` tuples; `members` ascends by value.
struct Class {
    size: usize,
    members: VecDeque<u32>,
}

/// Value-order merge of two ascending runs into `left`, with `O(shorter)`
/// fast paths when the runs do not interleave (the common case: a freshly
/// split-off draw joins a class it chains onto). Buffers come from and go
/// back to `spare`, so a merge allocates only while the spare buffers
/// grow.
fn merge_class_members(
    left: &mut VecDeque<u32>,
    mut right: VecDeque<u32>,
    spare: &mut Vec<VecDeque<u32>>,
) {
    if left.is_empty() || (!right.is_empty() && right.back() < left.front()) {
        std::mem::swap(left, &mut right);
    }
    if right.is_empty() || left.back() < right.front() {
        left.append(&mut right);
    } else {
        let mut merged = spare.pop().unwrap_or_default();
        loop {
            match (left.front(), right.front()) {
                (Some(a), Some(b)) => {
                    if a < b {
                        merged.push_back(left.pop_front().expect("front exists"));
                    } else {
                        merged.push_back(right.pop_front().expect("front exists"));
                    }
                }
                (Some(_), None) => {
                    merged.append(left);
                    break;
                }
                (None, _) => {
                    merged.append(&mut right);
                    break;
                }
            }
        }
        spare.push(std::mem::replace(left, merged));
    }
    spare.push(right);
}

/// Outcome of a size-only schedule run ([`ladder_schedule`] /
/// [`round_robin_schedule`]): how many groups were formed and which
/// buckets remain non-empty, in residue-visit order.
#[doc(hidden)]
#[derive(Debug)]
pub struct ScheduleOutcome {
    /// Number of groups emitted.
    pub groups: u32,
    /// Still-non-empty bucket values, in residue-visit order.
    pub residual: Vec<u32>,
}

/// The frequency-ladder group schedule, driven by bucket **sizes** alone.
///
/// Group creation's control flow never looks at tuples — only at how many
/// each bucket holds — so the whole selection sequence is a function of
/// `sizes`. This function runs that sequence with O(λ) resident state,
/// calling `emit` once per group with the drawn bucket values in **draw
/// order** (size-descending, value-ascending on ties). [`create_groups_ladder`]
/// applies it to in-memory buckets; the sharded out-of-core path
/// (`anatomize_sharded`) replays the identical schedule against on-disk
/// bucket files, which is what makes the two engines bit-identical.
#[doc(hidden)]
pub fn ladder_schedule(sizes: &[usize], l: usize, mut emit: impl FnMut(&[u32])) -> ScheduleOutcome {
    // Build the ladder: one sort of the non-empty bucket list, split into
    // runs of equal size. Same comparator as the sort-based path, so the
    // first round's selection is trivially identical.
    let mut vals: Vec<u32> = (0..sizes.len() as u32)
        .filter(|&v| sizes[v as usize] > 0)
        .collect();
    vals.sort_unstable_by(|&a, &b| sizes[b as usize].cmp(&sizes[a as usize]).then(a.cmp(&b)));
    let mut ladder: VecDeque<Class> = VecDeque::new();
    for &v in &vals {
        let size = sizes[v as usize];
        match ladder.back_mut() {
            Some(c) if c.size == size => c.members.push_back(v),
            _ => ladder.push_back(Class {
                size,
                members: VecDeque::from(vec![v]),
            }),
        }
    }
    let mut nonempty = vals.len();

    let mut groups = 0u32;
    // The values drawn this round; after the loop, the final round's.
    let mut values: Vec<u32> = Vec::with_capacity(l);
    // Emptied member buffers, reused by the splits and merges below so a
    // round allocates nothing once they have grown.
    let mut spare: Vec<VecDeque<u32>> = Vec::new();

    while nonempty >= l {
        // Selection: the ladder prefix covering l buckets. `full` classes
        // are drawn whole; `m` more come from the boundary class (its
        // value-ascending front, matching the sort's tie-break).
        let mut remaining = l;
        let mut full = 0usize;
        let mut m = 0usize;
        for c in ladder.iter() {
            if c.members.len() <= remaining {
                remaining -= c.members.len();
                full += 1;
                if remaining == 0 {
                    break;
                }
            } else {
                m = remaining;
                break;
            }
        }

        values.clear();
        for c in ladder.iter().take(full) {
            for &v in &c.members {
                values.push(v);
            }
        }
        if m > 0 {
            for &v in ladder[full].members.iter().take(m) {
                values.push(v);
            }
        }
        emit(&values);
        groups += 1;

        // Restructure. Fully drawn classes just step down one size; the
        // strict descending order among them is preserved.
        for c in ladder.iter_mut().take(full) {
            c.size -= 1;
        }
        // Split the boundary class: the drawn front becomes a new class
        // one size below, seated right after the remainder.
        let mut split: Option<Class> = None;
        if m > 0 {
            let boundary = &mut ladder[full];
            if boundary.size > 1 {
                let mut drawn = spare.pop().unwrap_or_default();
                drawn.extend(boundary.members.drain(..m));
                split = Some(Class {
                    size: boundary.size - 1,
                    members: drawn,
                });
            } else {
                // Drawn buckets are now empty and leave the ladder.
                boundary.members.drain(..m);
                nonempty -= m;
            }
        } else if full > 0 && ladder[full - 1].size == 0 {
            // A fully drawn size-1 class emptied out. Sizes descend
            // strictly, so it can only be the ladder tail.
            debug_assert_eq!(full, ladder.len());
            let mut dead = ladder.pop_back().expect("class exists");
            nonempty -= dead.members.len();
            dead.members.clear();
            spare.push(dead.members);
            full -= 1;
        }
        // At most two equal-size adjacencies can appear; everything else
        // keeps its strict descending order. First: the last fully drawn
        // class against the first untouched one (the boundary remainder,
        // or the first unselected class when the draw ended on a class
        // boundary).
        let mut insert_at = full + 1;
        if full > 0 && full < ladder.len() && ladder[full - 1].size == ladder[full].size {
            let right = ladder.remove(full).expect("index in bounds");
            merge_class_members(&mut ladder[full - 1].members, right.members, &mut spare);
            insert_at = full;
        }
        // Second: the split-off class against its successor.
        if let Some(split) = split {
            if insert_at < ladder.len() && ladder[insert_at].size == split.size {
                let successor = &mut ladder[insert_at];
                let tail = std::mem::replace(&mut successor.members, split.members);
                merge_class_members(&mut successor.members, tail, &mut spare);
            } else {
                ladder.insert(insert_at, split);
            }
        }
    }

    // Reconstruct the residue-visit order of the sort-based path: its
    // non-empty list was last sorted at the top of the final round, i.e.
    // by (pre-draw size descending, value ascending). A bucket's pre-draw
    // size is its current size (the size of its ladder class) plus one if
    // the final round drew from it. (Eligibility guarantees at least one
    // round whenever n > 0, so the list is never left in its initial
    // value-ascending build order.)
    values.sort_unstable();
    let mut residual: Vec<(usize, u32)> = ladder
        .iter()
        .flat_map(|c| c.members.iter().map(move |&v| (c.size, v)))
        .collect();
    let pre_size =
        |(size, v): (usize, u32)| -> usize { size + usize::from(values.binary_search(&v).is_ok()) };
    residual.sort_unstable_by(|&a, &b| pre_size(b).cmp(&pre_size(a)).then(a.1.cmp(&b.1)));

    ScheduleOutcome {
        groups,
        residual: residual.into_iter().map(|(_, v)| v).collect(),
    }
}

/// Group creation with the frequency ladder (the paper's largest-first
/// rule). Produces the identical group sequence, per-group tuple order and
/// residue-visit order as [`create_groups_sorted`] for every input.
#[doc(hidden)]
pub fn create_groups_ladder(buckets: &mut [Vec<u32>], l: usize) -> GroupCreation {
    let sizes: Vec<usize> = buckets.iter().map(Vec::len).collect();
    let n: usize = sizes.iter().sum();
    let mut groups: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let mut group_values: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let outcome = ladder_schedule(&sizes, l, |drawn| {
        // Drawn values arrive in draw order; pop one tuple from each. The
        // group keeps draw order, the value list is kept sorted.
        let mut group = Vec::with_capacity(drawn.len());
        for &v in drawn {
            group.push(buckets[v as usize].pop().expect("bucket in ladder"));
        }
        let mut values = drawn.to_vec();
        values.sort_unstable();
        groups.push(group);
        group_values.push(values);
    });
    GroupCreation {
        groups,
        group_values,
        residual: outcome.residual,
    }
}

/// Group creation by re-sorting the non-empty bucket list every round —
/// the reference implementation the ladder is differentially tested and
/// benchmarked against. `O(λ log λ)` per round.
#[doc(hidden)]
pub fn create_groups_sorted(buckets: &mut [Vec<u32>], l: usize) -> GroupCreation {
    let n: usize = buckets.iter().map(Vec::len).sum();
    let mut groups: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let mut group_values: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let mut nonempty: Vec<u32> = (0..buckets.len() as u32)
        .filter(|&v| !buckets[v as usize].is_empty())
        .collect();

    while nonempty.len() >= l {
        // Line 5: S = the l largest buckets *currently*.
        nonempty.sort_unstable_by(|&a, &b| {
            buckets[b as usize]
                .len()
                .cmp(&buckets[a as usize].len())
                .then(a.cmp(&b))
        });
        let mut group = Vec::with_capacity(l);
        let mut values = Vec::with_capacity(l);
        for &v in nonempty.iter().take(l) {
            group.push(buckets[v as usize].pop().expect("bucket in non-empty list"));
            values.push(v);
        }
        values.sort_unstable();
        groups.push(group);
        group_values.push(values);
        nonempty.retain(|&v| !buckets[v as usize].is_empty());
    }

    GroupCreation {
        groups,
        group_values,
        residual: nonempty,
    }
}

/// The round-robin group schedule, driven by bucket sizes alone — the
/// size-only counterpart of [`ladder_schedule`] for the ablation arm.
/// Calls `emit` once per group with the drawn values in draw (rotated
/// cyclic) order.
#[doc(hidden)]
pub fn round_robin_schedule(
    sizes: &[usize],
    l: usize,
    mut emit: impl FnMut(&[u32]),
) -> ScheduleOutcome {
    let mut remaining: Vec<usize> = sizes.to_vec();
    let mut nonempty: Vec<u32> = (0..sizes.len() as u32)
        .filter(|&v| sizes[v as usize] > 0)
        .collect();

    let mut groups = 0u32;
    let mut values: Vec<u32> = Vec::with_capacity(l);
    let mut cursor = 0usize;
    while nonempty.len() >= l {
        // Rotate so each iteration starts after the previous one's first
        // pick.
        nonempty.sort_unstable();
        cursor %= nonempty.len();
        nonempty.rotate_left(cursor);
        cursor += 1;
        values.clear();
        for &v in nonempty.iter().take(l) {
            remaining[v as usize] -= 1;
            values.push(v);
        }
        emit(&values);
        groups += 1;
        nonempty.retain(|&v| remaining[v as usize] > 0);
    }

    ScheduleOutcome {
        groups,
        residual: nonempty,
    }
}

/// Group creation with the round-robin ablation rule (shared by both
/// [`anatomize`] and [`anatomize_reference`]; it is not a hot path).
fn create_groups_round_robin(buckets: &mut [Vec<u32>], l: usize) -> GroupCreation {
    let sizes: Vec<usize> = buckets.iter().map(Vec::len).collect();
    let n: usize = sizes.iter().sum();
    let mut groups: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let mut group_values: Vec<Vec<u32>> = Vec::with_capacity(n / l.max(1));
    let outcome = round_robin_schedule(&sizes, l, |drawn| {
        let mut group = Vec::with_capacity(drawn.len());
        for &v in drawn {
            group.push(buckets[v as usize].pop().expect("bucket in non-empty list"));
        }
        let mut values = drawn.to_vec();
        values.sort_unstable();
        groups.push(group);
        group_values.push(values);
    });
    GroupCreation {
        groups,
        group_values,
        residual: outcome.residual,
    }
}

/// Lines 9-12: residue assignment. At most l-1 tuples remain (Property 1
/// guarantees one per bucket under eligibility; the loop below does not
/// rely on that and drains whatever is left).
///
/// The candidate list (groups not containing the residue's sensitive
/// value) is built **once per sensitive value** and kept current by
/// deleting each chosen group, instead of being rebuilt from scratch for
/// every leftover tuple: assigning value `v` to group `j` changes no other
/// group's eligibility for `v`, so the maintained list stays equal to a
/// recomputation — same candidates, same rng draws, same output.
fn assign_residues(
    rng: &mut StdRng,
    buckets: &mut [Vec<u32>],
    residual: &[u32],
    groups: &mut [Vec<u32>],
    group_values: &mut [Vec<u32>],
) -> Result<(), CoreError> {
    for &v in residual {
        let mut candidates: Vec<usize> = Vec::new();
        let mut built = false;
        while let Some(tuple) = buckets[v as usize].pop() {
            if !built {
                // S' = groups that do not contain sensitive value v.
                candidates = group_values
                    .iter()
                    .enumerate()
                    .filter(|(_, vals)| vals.binary_search(&v).is_err())
                    .map(|(j, _)| j)
                    .collect();
                built = true;
            }
            if candidates.is_empty() {
                return Err(CoreError::ResidueUnassignable { sensitive_code: v });
            }
            let pick = rng.random_range(0..candidates.len());
            let j = candidates.remove(pick);
            groups[j].push(tuple);
            let pos = group_values[j].binary_search(&v).unwrap_err();
            group_values[j].insert(pos, v);
        }
    }
    Ok(())
}

fn anatomize_with(
    md: &Microdata,
    config: &AnatomizeConfig,
    create_largest_first: impl FnOnce(&mut [Vec<u32>], usize) -> GroupCreation,
) -> Result<Partition, CoreError> {
    // Phase spans and counters go to the process-wide registry; while it
    // is disabled (the default) each is one relaxed atomic load. They
    // observe timing only — nothing here feeds back into the rng or the
    // partition, which the instrumented-vs-disabled differential test
    // under tests/observability.rs pins bit-for-bit.
    let obs = anatomy_obs::global();
    let _run = obs.span("anatomize");

    let l = config.l;
    check_eligibility(md, l)?;
    let n = md.len();
    if n == 0 {
        return Partition::new(vec![], 0);
    }

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut buckets = {
        let _phase = obs.span("bucketize");
        shuffled_buckets(md, &mut rng)
    };

    let mut creation = {
        let _phase = obs.span("group_creation");
        match config.strategy {
            BucketStrategy::LargestFirst => create_largest_first(&mut buckets, l),
            BucketStrategy::RoundRobin => create_groups_round_robin(&mut buckets, l),
        }
    };
    {
        let _phase = obs.span("residue");
        assign_residues(
            &mut rng,
            &mut buckets,
            &creation.residual,
            &mut creation.groups,
            &mut creation.group_values,
        )?;
    }

    obs.counter("core.anatomize_runs").incr();
    obs.counter("core.rows_anatomized").add(n as u64);
    obs.counter("core.groups_created")
        .add(creation.groups.len() as u64);
    obs.counter("core.residue_values")
        .add(creation.residual.len() as u64);

    Partition::new(creation.groups, n)
}

/// Compute an l-diverse partition of `md` with the `Anatomize` algorithm.
///
/// Fails with [`CoreError::NotEligible`] when no l-diverse partition exists
/// (some sensitive value occurs more than `n/l` times) and with
/// [`CoreError::InvalidL`] for `l < 2`.
///
/// Group creation runs on the frequency ladder (see the module docs);
/// [`anatomize_reference`] is the sort-based oracle it is differentially
/// tested against.
///
/// ```
/// use anatomy_core::{anatomize, AnatomizeConfig};
/// use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};
///
/// let schema = Schema::new(vec![
///     Attribute::numerical("Age", 100),
///     Attribute::categorical("Disease", 4),
/// ])?;
/// let mut b = TableBuilder::new(schema);
/// for i in 0..12u32 {
///     b.push_row(&[20 + i, i % 4])?;
/// }
/// let md = Microdata::with_leading_qi(b.finish(), 1)?;
///
/// let partition = anatomize(&md, &AnatomizeConfig::new(3))?;
/// assert_eq!(partition.group_count(), 4); // floor(n / l)
/// assert!(partition.is_l_diverse(&md, 3));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn anatomize(md: &Microdata, config: &AnatomizeConfig) -> Result<Partition, CoreError> {
    anatomize_with(md, config, create_groups_ladder)
}

/// [`anatomize`] with sort-based group creation: the original
/// implementation, kept as the differential-testing oracle and the
/// baseline that `bench_anatomize` measures the ladder against. Returns
/// the identical partition for every input and seed — only slower.
pub fn anatomize_reference(
    md: &Microdata,
    config: &AnatomizeConfig,
) -> Result<Partition, CoreError> {
    anatomize_with(md, config, create_groups_sorted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::stats::Histogram;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md_from_sensitive(codes: &[u32], domain: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 1000),
            Attribute::categorical("S", domain),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for (i, &c) in codes.iter().enumerate() {
            b.push_row(&[(i % 1000) as u32, c]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    fn assert_anatomize_invariants(md: &Microdata, p: &Partition, l: usize) {
        // Property 3: every group has >= l tuples, all with distinct
        // sensitive values; group sizes never exceed 2l-1.
        for j in 0..p.group_count() as u32 {
            let rows = p.group(j);
            assert!(rows.len() >= l, "group {j} has {} < l tuples", rows.len());
            assert!(
                rows.len() < 2 * l,
                "group {j} has {} > 2l-1 tuples",
                rows.len()
            );
            let mut values: Vec<u32> = rows
                .iter()
                .map(|&r| md.sensitive_value(r as usize).code())
                .collect();
            values.sort_unstable();
            values.dedup();
            assert_eq!(
                values.len(),
                rows.len(),
                "group {j} has duplicate sensitive values"
            );
        }
        assert!(p.is_l_diverse(md, l));
        // Number of groups is floor(n/l) (proof of Property 1).
        assert_eq!(p.group_count(), md.len() / l);
    }

    #[test]
    fn paper_example_l2() {
        // Table 1's diseases: pneu, dysp, dysp, pneu, flu, gast, flu, bron.
        let md = md_from_sensitive(&[0, 1, 1, 0, 2, 3, 2, 4], 5);
        let p = anatomize(&md, &AnatomizeConfig::new(2)).unwrap();
        assert_anatomize_invariants(&md, &p, 2);
    }

    #[test]
    fn multiple_of_l_gives_exact_groups() {
        let codes: Vec<u32> = (0..60).map(|i| i % 6).collect();
        let md = md_from_sensitive(&codes, 6);
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        assert_anatomize_invariants(&md, &p, 3);
        // n divisible by l: every group has exactly l tuples.
        assert!(p.group_sizes().iter().all(|&s| s == 3));
    }

    #[test]
    fn residues_are_absorbed() {
        // n = 11, l = 3 -> 3 groups, 2 residues -> some group of size 4.
        let codes = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 4];
        let md = md_from_sensitive(&codes, 6);
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        assert_anatomize_invariants(&md, &p, 3);
        let total: usize = p.group_sizes().iter().sum();
        assert_eq!(total, 11);
    }

    #[test]
    fn deterministic_in_seed() {
        let codes: Vec<u32> = (0..100).map(|i| (i * 7) % 9).collect();
        let md = md_from_sensitive(&codes, 9);
        let a = anatomize(&md, &AnatomizeConfig::new(4).with_seed(1)).unwrap();
        let b = anatomize(&md, &AnatomizeConfig::new(4).with_seed(1)).unwrap();
        let c = anatomize(&md, &AnatomizeConfig::new(4).with_seed(2)).unwrap();
        assert_eq!(a, b);
        // With 100 tuples a different seed virtually surely differs.
        assert_ne!(a, c);
    }

    #[test]
    fn ineligible_input_rejected() {
        let md = md_from_sensitive(&[0, 0, 0, 1], 3);
        assert!(matches!(
            anatomize(&md, &AnatomizeConfig::new(2)),
            Err(CoreError::NotEligible { .. })
        ));
    }

    #[test]
    fn empty_microdata_gives_empty_partition() {
        let md = md_from_sensitive(&[], 3);
        let p = anatomize(&md, &AnatomizeConfig::new(2)).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn eligibility_boundary_succeeds() {
        // max_count * l == n exactly.
        let codes = [0, 0, 0, 1, 1, 2]; // max 3, n 6, l 2
        let md = md_from_sensitive(&codes, 3);
        let p = anatomize(&md, &AnatomizeConfig::new(2)).unwrap();
        assert_anatomize_invariants(&md, &p, 2);
    }

    #[test]
    fn heavy_skew_at_boundary() {
        // One value holds exactly n/l tuples: the largest-bucket rule must
        // drain it every iteration or the run would fail.
        let mut codes = vec![0u32; 25];
        codes.extend((0..75).map(|i| 1 + (i % 30)));
        let md = md_from_sensitive(&codes, 31);
        let p = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        assert_anatomize_invariants(&md, &p, 4);
    }

    #[test]
    fn round_robin_fails_where_largest_first_succeeds() {
        // One value holds exactly n/l tuples; the largest-first rule
        // drains it every iteration (Property 1), while round-robin visits
        // it only once per cycle and strands it.
        let mut codes = vec![0u32; 30]; // n = 120, l = 4 -> 30 allowed
        codes.extend((0..90).map(|i| 1 + (i % 29)));
        let md = md_from_sensitive(&codes, 30);
        let ok = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        assert_anatomize_invariants(&md, &ok, 4);

        let rr = anatomize(
            &md,
            &AnatomizeConfig::new(4).with_strategy(BucketStrategy::RoundRobin),
        );
        assert!(
            matches!(
                rr,
                Err(CoreError::ResidueUnassignable { sensitive_code: 0 })
            ),
            "round-robin should strand the dominant bucket, got {rr:?}"
        );
    }

    #[test]
    fn round_robin_matches_on_uniform_data() {
        // Without skew both strategies produce valid partitions with the
        // same RCE (all groups have l distinct singleton values).
        let codes: Vec<u32> = (0..60).map(|i| i % 6).collect();
        let md = md_from_sensitive(&codes, 6);
        let p = anatomize(
            &md,
            &AnatomizeConfig::new(3).with_strategy(BucketStrategy::RoundRobin),
        )
        .unwrap();
        assert_anatomize_invariants(&md, &p, 3);
    }

    #[test]
    fn output_satisfies_all_diversity_instantiations() {
        // Groups of l distinct singleton values satisfy not only
        // Definition 2 but also the entropy and recursive instantiations
        // of ref [10] (Section 3.1's "straightforward to extend").
        use crate::diversity::DiversityCriterion;
        let codes: Vec<u32> = (0..80).map(|i| (i * 3) % 8).collect();
        let md = md_from_sensitive(&codes, 8);
        let l = 4;
        let p = anatomize(&md, &AnatomizeConfig::new(l)).unwrap();
        for j in 0..p.group_count() as u32 {
            let hist = p.sensitive_histogram(&md, j);
            assert!(DiversityCriterion::Frequency { l }.check(&hist));
            assert!(DiversityCriterion::Entropy { l }.check(&hist));
            assert!(DiversityCriterion::Recursive { c: 1.5, l }.check(&hist));
        }
    }

    #[test]
    fn stress_many_seeds() {
        for seed in 0..20 {
            let codes: Vec<u32> = (0..97)
                .map(|i| (i * 13 + seed as usize) as u32 % 10)
                .collect();
            let md = md_from_sensitive(&codes, 10);
            let p = anatomize(&md, &AnatomizeConfig::new(5).with_seed(seed)).unwrap();
            assert_anatomize_invariants(&md, &p, 5);
        }
    }

    /// The tentpole contract: ladder and sort-based group creation agree
    /// bit for bit — same groups, same tuple order, same residue handling.
    #[test]
    fn ladder_matches_reference_on_structured_inputs() {
        let cases: Vec<(Vec<u32>, u32)> = vec![
            // Uniform: one giant size class peeled front-to-back.
            ((0..240).map(|i| i % 24).collect(), 24),
            // Strict skew ladder: all-distinct sizes.
            (
                (0..17)
                    .flat_map(|v| std::iter::repeat_n(v, 18 - v as usize))
                    .collect(),
                17,
            ),
            // Dominant value at the eligibility boundary.
            (
                {
                    let mut c = vec![0u32; 40];
                    c.extend((0..120).map(|i| 1 + (i % 37)));
                    c
                },
                38,
            ),
            // Pairs of equal sizes everywhere: merge-heavy.
            (
                (0..30)
                    .flat_map(|v| std::iter::repeat_n(v, 3 + (v as usize / 2) % 5))
                    .collect(),
                30,
            ),
        ];
        for (codes, domain) in cases {
            let md = md_from_sensitive(&codes, domain);
            for l in [2usize, 3, 4, 7] {
                for seed in [0u64, 1, 0xDEAD] {
                    let cfg = AnatomizeConfig::new(l).with_seed(seed);
                    let fast = anatomize(&md, &cfg);
                    let slow = anatomize_reference(&md, &cfg);
                    match (fast, slow) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "l={l} seed={seed}"),
                        (Err(a), Err(b)) => {
                            assert_eq!(a.to_string(), b.to_string(), "l={l} seed={seed}")
                        }
                        (a, b) => panic!("diverged: l={l} seed={seed}: {a:?} vs {b:?}"),
                    }
                }
            }
        }
    }

    /// A larger merge-heavy differential case: λ = 300 with mixed
    /// multiplicities, exercising boundary-class splits, both merge
    /// directions and residue assignment at scale.
    #[test]
    fn ladder_matches_reference_large() {
        let codes: Vec<u32> = (0..20_000u64)
            .map(|i| ((i * 2654435761) % 300) as u32)
            .collect();
        let md = md_from_sensitive(&codes, 300);
        for l in [2usize, 10, 50] {
            let cfg = AnatomizeConfig::new(l).with_seed(99);
            let fast = anatomize(&md, &cfg).unwrap();
            let slow = anatomize_reference(&md, &cfg).unwrap();
            assert_eq!(fast, slow, "l={l}");
            assert_anatomize_invariants(&md, &fast, l);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// For any eligible input, Anatomize yields an l-diverse
            /// partition satisfying Property 3.
            #[test]
            fn anatomize_always_l_diverse(
                codes in proptest::collection::vec(0u32..8, 4..200),
                l in 2usize..5,
                seed in 0u64..1000,
            ) {
                let md = md_from_sensitive(&codes, 8);
                let hist = Histogram::of_column(md.sensitive_codes(), 8);
                let eligible = hist
                    .max()
                    .map(|(_, c)| c * l <= codes.len())
                    .unwrap_or(true);
                let result = anatomize(&md, &AnatomizeConfig::new(l).with_seed(seed));
                if eligible {
                    let p = result.unwrap();
                    assert_anatomize_invariants(&md, &p, l);
                } else {
                    let rejected = matches!(result, Err(CoreError::NotEligible { .. }));
                    prop_assert!(rejected);
                }
            }

            /// Differential property: the frequency ladder reproduces the
            /// sort-based oracle bit for bit — identical partitions (and
            /// identical errors) across random microdata, seeds, both
            /// strategy arms, and sensitive domains up to λ = 64.
            #[test]
            fn ladder_equals_sort_oracle(
                codes in proptest::collection::vec(0u32..64, 0..300),
                lambda in 2u32..=64,
                l in 2usize..8,
                seed in 0u64..10_000,
                round_robin in 0u8..2,
            ) {
                let codes: Vec<u32> = codes.iter().map(|&c| c % lambda).collect();
                let md = md_from_sensitive(&codes, lambda);
                let strategy = if round_robin == 1 {
                    BucketStrategy::RoundRobin
                } else {
                    BucketStrategy::LargestFirst
                };
                let cfg = AnatomizeConfig::new(l)
                    .with_seed(seed)
                    .with_strategy(strategy);
                let fast = anatomize(&md, &cfg);
                let slow = anatomize_reference(&md, &cfg);
                match (fast, slow) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                    (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => {
                        return Err(TestCaseError::fail(
                            format!("paths diverged: {a:?} vs {b:?}"),
                        ));
                    }
                }
            }
        }
    }
}
