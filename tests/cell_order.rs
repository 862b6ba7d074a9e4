//! Property suite for the cube's cached canonical cell order.
//!
//! The cell store sorts its cells once per state and keeps that order
//! across writes that only replace summaries; writes that add or remove
//! cells drop it. Any write path that kept a stale order would show
//! here: random interleavings of every mutating cube method with reads
//! must answer `matching_sorted(filter)` exactly like a decode-and-sort
//! of the cells kept in this file.

use msketch::cube::hash::{FxHashMap, FxHashSet};
use msketch::cube::{ColumnarBatch, CubeDelta, DynCube};
use msketch::sketches::{Sketch, SketchSpec};
use proptest::prelude::*;
use std::sync::Arc;

const DIMS: [&str; 3] = ["app", "region", "host"];
const VALUES: [&[&str]; 3] = [
    &["web", "api", "db", "cron"],
    &["eu", "us", "ap"],
    &["h0", "h1", "h2", "h3", "h4"],
];

fn empty() -> DynCube {
    DynCube::from_spec(SketchSpec::moments(4), &DIMS)
}

/// A deterministic row from a seed: few values per dimension, so cells
/// collide across cubes and writes land on existing cells as often as
/// on new ones.
fn row(seed: u64) -> ([&'static str; 3], f64) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut pick = |values: &[&'static str]| {
        s = s.rotate_left(17) ^ 0xA5A5;
        values[(s % values.len() as u64) as usize]
    };
    let values = [pick(VALUES[0]), pick(VALUES[1]), pick(VALUES[2])];
    (values, (seed % 97) as f64)
}

fn rows(seed: u64, n: usize) -> impl Iterator<Item = ([&'static str; 3], f64)> {
    (0..n as u64).map(move |i| row(seed.wrapping_add(i)))
}

/// A separately built cube: its dictionaries intern values in the
/// order its rows first name them, so its ids disagree with the cube
/// under test.
fn filled(seed: u64, n: usize) -> DynCube {
    let mut cube = empty();
    for (values, metric) in rows(seed, n) {
        cube.insert(&values, metric).unwrap();
    }
    cube
}

/// A read cell as compared here: its key and which summary it is.
type Cell = (Vec<u32>, *const Box<dyn Sketch>);

/// The reference: every matching cell, sorted by decoded name tuple.
fn reference(cube: &DynCube, filter: &[Option<u32>]) -> Vec<Cell> {
    let mut cells: Vec<(Vec<String>, Cell)> = cube
        .cells()
        .filter(|(key, _)| DynCube::matches(key, filter))
        .map(|(key, summary)| {
            let names = key
                .iter()
                .enumerate()
                .map(|(d, &id)| cube.dictionary(d).unwrap().decode(id).unwrap().to_string())
                .collect();
            (names, (key.clone(), std::ptr::from_ref(summary)))
        })
        .collect();
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    cells.into_iter().map(|(_, cell)| cell).collect()
}

/// A filter drawn from `seed`: each dimension wild, a known value, or
/// an id no dictionary holds — leading dimensions fixed often, so the
/// binary-searched prefix runs are exercised.
fn filter(cube: &DynCube, seed: u64) -> Vec<Option<u32>> {
    (0..DIMS.len())
        .map(|d| {
            let card = cube.dictionary(d).unwrap().cardinality() as u64;
            let s = seed >> (8 * d);
            match s % 5 {
                0 | 1 => None,
                4 if s & 0x20 != 0 => Some(card as u32),
                _ if card == 0 => None,
                _ => Some(((s >> 3) % card) as u32),
            }
        })
        .collect()
}

fn check(cube: &DynCube, seed: u64) {
    let mut filters: Vec<Vec<Option<u32>>> = (0..6u64)
        .map(|i| filter(cube, seed.wrapping_mul(31).wrapping_add(i * 0x1F1F_1F1F)))
        .collect();
    // Anywhere in the sequence: a state's first filtered read scans,
    // an unfiltered or later one builds and reads the order.
    filters.insert((seed % 7) as usize, cube.no_filter());
    for filter in filters {
        let got: Vec<Cell> = cube
            .matching_sorted(&filter)
            .into_iter()
            .map(|(key, summary)| (key.to_vec(), std::ptr::from_ref(summary)))
            .collect();
        assert_eq!(got, reference(cube, &filter), "filter {filter:?}");
    }
}

/// `n` rows of `seed` as a columnar batch.
fn batch(seed: u64, n: usize) -> ColumnarBatch {
    let mut batch = ColumnarBatch::new(DIMS.len());
    for (values, metric) in rows(seed, n) {
        batch.push_row(&values, metric);
    }
    batch
}

/// Some of `cube`'s cells as a base layer, keyed in its id space.
fn base_of(cube: &DynCube, seed: u64) -> FxHashMap<Vec<u32>, Arc<Box<dyn Sketch>>> {
    cube.cells_shared()
        .filter(|(key, _)| (key.iter().sum::<u32>() as u64 + seed).is_multiple_of(3))
        .map(|(key, summary)| (key.clone(), Arc::clone(summary)))
        .collect()
}

/// Apply one mutation (or read) to `cube`.
fn step(cube: &mut DynCube, op: u8, seed: u64, n: usize) {
    match op {
        0 => {
            for (values, metric) in rows(seed, n) {
                cube.insert(&values, metric).unwrap();
            }
        }
        1 => cube.insert_batch(&batch(seed, n)).unwrap(),
        2 => cube.merge_cube(&filled(seed, n)).unwrap(),
        3 => {
            let delta = filled(seed, n).full_delta();
            let base = base_of(cube, seed);
            cube.apply_delta(&delta, &base).unwrap();
        }
        4 => {
            // A refresh while a reader holds the last state: the copy
            // takes the delta, and the held state, which shares its
            // order with the copy, still answers as it did.
            let held = cube.clone();
            let delta = filled(seed, n).full_delta();
            let base = base_of(cube, seed);
            cube.apply_delta(&delta, &base).unwrap();
            check(&held, seed);
        }
        5 => {
            // A live cube in this cube's id space; touched keys it lacks
            // are removed from the checkpoint. Half the time it is empty,
            // so the sync only removes.
            let mut live = cube.clone();
            live.roll_back_to(&empty());
            let mut touched = FxHashSet::default();
            let n = if seed & 1 == 0 { 0 } else { n };
            for (values, metric) in rows(seed, n) {
                live.insert(&values, metric).unwrap();
            }
            touched.extend(live.cells().map(|(key, _)| key.clone()));
            touched.extend(
                cube.cells()
                    .map(|(key, _)| key.clone())
                    .filter(|key| (key[0] as u64 + seed).is_multiple_of(2)),
            );
            cube.sync_checkpoint(&live, &touched);
        }
        6 => {
            let key: Option<Vec<u32>> = (0..DIMS.len())
                .map(|d| {
                    let card = cube.dictionary(d).unwrap().cardinality() as u64;
                    (card > 0).then(|| ((seed >> (4 * d)) % card) as u32)
                })
                .collect();
            if let Some(key) = key {
                // One existing cell replaced by name; the row count stays.
                let mut summary = cube.spec().build();
                summary.accumulate(seed as f64 % 13.0);
                let pools = key
                    .iter()
                    .enumerate()
                    .map(|(d, &id)| {
                        vec![cube.dictionary(d).unwrap().decode(id).unwrap().to_string()]
                    })
                    .collect();
                let delta = CubeDelta {
                    pools,
                    cells: vec![(vec![0; DIMS.len()], Arc::new(summary))],
                    pane_rows: 0,
                };
                cube.apply_delta(&delta, &FxHashMap::default()).unwrap();
            }
        }
        7 => {
            let budget = 1 + (seed as usize) % (cube.cell_count() + 1);
            cube.enforce_cell_budget(budget, "<other>");
        }
        8 => check(cube, seed),
        _ => check(&cube.clone(), seed),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every write path keeps the cached order equal to a fresh
    /// decode-and-sort, whether or not a read built it in between.
    #[test]
    fn ordered_reads_match_a_decode_and_sort_reference(
        ops in prop::collection::vec((0u8..10, any::<u64>(), 0usize..40), 1..24),
    ) {
        let mut cube = empty();
        for (op, seed, n) in ops {
            step(&mut cube, op, seed, n);
        }
        check(&cube, 7);
    }
}
