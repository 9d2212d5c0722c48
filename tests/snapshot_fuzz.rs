//! Mutational fuzz over the committed golden snapshot
//! (`tests/fixtures/golden.cdmppsnap`): what a loader does with bytes it
//! did not write.
//!
//! The mutated region is the part of the file that is binary structure
//! rather than numbers — the 20-byte prelude and the plan section with its
//! length field. Every bit of it is flipped, the file is cut at every
//! length, and 2 000 seeded splices overwrite, delete and duplicate runs of
//! it. Each mutant must end in one of two ways:
//!
//! * a typed [`SnapshotError`], or
//! * a model that loads, answers the three probes and re-serializes to
//!   **exactly** the mutant's bytes — a flipped stats counter or finite
//!   constant is a different valid file, not an error. When only stats
//!   counters differ from the fixture the answers must be the fixture's,
//!   bit for bit. (A mutant whose plans differ may answer anything, NaN
//!   included — a layer-norm epsilon with its sign flipped is a finite
//!   constant. What validation promises for it is memory safety.)
//!
//! Never a panic, and never one allocation larger than the largest arena a
//! validated plan may ask for — the binary runs under an allocator that
//! records the largest request.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use cdmpp::core::{Snapshot, SnapshotError};
use cdmpp::nn::plan::desc::MAX_ARENA;
use cdmpp::prelude::*;

#[path = "fixtures/golden_recipe.rs"]
mod recipe;

const FIXTURE: &[u8] = include_bytes!("fixtures/golden.cdmppsnap");

/// The byte length of a plan's trailing `PlanStats`: 11 counters, a
/// little-endian `u32` each.
const STATS_BYTES: usize = 11 * 4;

/// The system allocator, plus a record of the largest single request.
struct Watch;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded to `System` with its arguments unchanged,
// so `System`'s guarantees are this allocator's; the only addition is a
// relaxed `fetch_max` on a counter that publishes no other data.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static WATCH: Watch = Watch;

/// The fixture's plan section with its 8-byte length field.
fn plan_section() -> std::ops::Range<usize> {
    let word = |at: usize| u64::from_le_bytes(FIXTURE[at..at + 8].try_into().unwrap()) as usize;
    let start = 20 + word(12);
    start..start + 8 + word(start)
}

/// What the unmutated fixture decodes to and answers.
struct Baseline {
    snap: Snapshot,
    probes: Vec<cdmpp::core::batch::EncodedSample>,
    answers: Vec<u64>,
}

#[derive(Default)]
struct Tally {
    refused: usize,
    same_answers: usize,
    other_model: usize,
}

/// Holds one mutant to the contract in the module docs.
fn check(mutant: &[u8], base: &Baseline, tally: &mut Tally) {
    // `from_snapshot_bytes`, in its two steps: the decoded snapshot is
    // compared with the fixture's below.
    let loaded: Result<_, SnapshotError> = Snapshot::from_bytes(mutant)
        .and_then(|snap| InferenceModel::from_snapshot(&snap).map(|model| (snap, model)));
    let (snap, model) = match loaded {
        Ok(loaded) => loaded,
        Err(e) => {
            assert!(!e.to_string().is_empty(), "a typed error prints");
            tally.refused += 1;
            return;
        }
    };
    let answers: Vec<u64> = model
        .predict_samples(&base.probes)
        .expect("a model that loads answers")
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(answers.len(), base.probes.len());
    assert!(
        Snapshot::from_inference(&model).to_bytes() == mutant,
        "a mutant that loads must re-serialize to its own bytes"
    );
    // Do its plans differ from the fixture's in anything but counters?
    // A plan's bytes end with its counters.
    let same_plans = snap.plans.len() == base.snap.plans.len()
        && snap.plans.iter().zip(&base.snap.plans).all(|(got, want)| {
            let n = want.plan.len() - STATS_BYTES;
            got.leaves == want.leaves
                && got.plan.len() == want.plan.len()
                && got.plan[..n] == want.plan[..n]
        });
    if same_plans && snap.spec_plans == base.snap.spec_plans {
        assert_eq!(answers, base.answers, "only counters moved");
        tally.same_answers += 1;
    } else {
        tally.other_model += 1;
    }
}

/// `check`, with the mutation named if it panics anywhere.
fn check_named(what: impl Fn() -> String, mutant: &[u8], base: &Baseline, tally: &mut Tally) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        check(mutant, base, tally);
    }));
    if let Err(panic) = outcome {
        eprintln!("mutation: {}", what());
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn mutated_golden_bytes_are_typed_errors_or_other_valid_files() {
    let snap = Snapshot::from_bytes(FIXTURE).unwrap();
    let probes = recipe::probes();
    let answers = InferenceModel::from_snapshot(&snap)
        .unwrap()
        .predict_samples(&probes)
        .unwrap()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let base = Baseline {
        snap,
        probes,
        answers,
    };
    let plans = plan_section();
    let region: Vec<usize> = (0..20).chain(plans.clone()).collect();
    let mut tally = Tally::default();
    LARGEST.store(0, Ordering::Relaxed);

    // The fixture itself is the second kind of outcome.
    check(FIXTURE, &base, &mut tally);
    assert_eq!(tally.same_answers, 1);

    // Every bit of the region, flipped.
    let mut mutant = FIXTURE.to_vec();
    for &at in &region {
        for bit in 0..8 {
            mutant[at] ^= 1 << bit;
            check_named(
                || format!("byte {at} bit {bit} flipped"),
                &mutant,
                &base,
                &mut tally,
            );
            mutant[at] ^= 1 << bit;
        }
    }
    let after_flips = (tally.refused, tally.same_answers, tally.other_model);
    assert!(
        after_flips.0 > 0 && after_flips.1 > 1 && after_flips.2 > 0,
        "bit flips should reach all three outcomes: {after_flips:?}"
    );

    // Every truncation: a cut file never loads.
    for cut in 0..FIXTURE.len() {
        let before = tally.refused;
        check_named(
            || format!("cut at {cut}"),
            &FIXTURE[..cut],
            &base,
            &mut tally,
        );
        assert_eq!(tally.refused, before + 1, "cut at {cut} loaded");
    }

    // 2 000 splices of the region onto itself: a run of 1..=32 bytes
    // (cut short where its part of the region ends) written over another
    // place, deleted, or inserted at another place.
    let part_end = |at: usize| if at < 20 { 20 } else { plans.end };
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = |below: usize| {
        // xorshift64*: seeded, so a failure names a mutation that recurs.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % below
    };
    for n in 0..2000 {
        let len = 1 + next(32);
        let from = region[next(region.len())];
        let to = region[next(region.len())];
        let run: Vec<u8> = FIXTURE[from..(from + len).min(part_end(from))].to_vec();
        let mut mutant = FIXTURE.to_vec();
        let kind = next(3);
        match kind {
            0 => {
                let end = (to + run.len()).min(part_end(to));
                mutant[to..end].copy_from_slice(&run[..end - to]);
            }
            1 => drop(mutant.drain(from..from + run.len())),
            _ => drop(mutant.splice(to..to, run)),
        }
        check_named(
            || format!("splice {n}: kind {kind}, {len} bytes from {from} to {to}"),
            &mutant,
            &base,
            &mut tally,
        );
    }

    // The largest arena a validated plan may ask for, one batch unit.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 4 * MAX_ARENA,
        "one allocation of {largest} bytes, above the caps"
    );
    println!(
        "{} refused, {} loaded with the fixture's answers, {} loaded as another model; \
         largest allocation {largest} bytes",
        tally.refused, tally.same_answers, tally.other_model
    );
}
