//! The four workloads: what the server is started with, what it is
//! loaded with, which requests exist and what a correct answer to each
//! looks like, and who sends what when. Everything is built from the
//! seed before the server is spawned.
//!
//! Every end-to-end latency metric is defined on **one** request class
//! (the workload's primary or secondary class): pooling classes whose
//! costs differ by an order of magnitude puts the median on a class
//! boundary, and then it does not repeat.

use crate::check::{Expect, Groups, Oracle, Pop};
use crate::gen::{self, Names, Rows, Shape, Zipf};
use crate::load::{self, Req, Script};
use rand::Rng;
use std::sync::Arc;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "slice-highcard",
    "alert-cascade",
    "ingest-durable",
    "mixed-timeline",
];

/// Seconds of discarded warm-up before the measured window.
pub const WARMUP_S: f64 = 2.0;

/// Timeline base bucket and refresh cadence on `mixed-timeline`.
pub const BUCKET_MS: u64 = 250;

/// The timeline's coarsest rollup window (`bucket × 60 × 24`): history
/// is posted one such window at a time, oldest first, so that no row
/// arrives after its window was rolled up.
pub const ROLLUP_MS: u64 = BUCKET_MS * 60 * 24;

/// Sizes of one run; `smoke` shrinks every cube so the harness itself
/// can be exercised in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// The high-cardinality cube of `slice-highcard` and `alert-cascade`.
    pub highcard: Shape,
    /// The write-path cube of `ingest-durable`.
    pub ingest: Shape,
    /// The timeline cube of `mixed-timeline` (`rows` is per live body).
    pub timeline: Shape,
    /// Entries per filter pool.
    pub pool: usize,
    /// Rows per `/ingest` body on `ingest-durable`.
    pub body_rows: usize,
    /// Rollup windows of history on `mixed-timeline`.
    pub history_windows: u64,
    /// Width of a `range` query in milliseconds.
    pub range_ms: u64,
}

impl Scale {
    /// The sizes the benchmark is defined at.
    pub const FULL: Scale = Scale {
        highcard: Shape {
            apps: 200,
            hosts: 250,
            regions: 4,
            rows: 4_000_000,
        },
        ingest: Shape {
            apps: 250,
            hosts: 20,
            regions: 0,
            rows: 200_000,
        },
        timeline: Shape {
            apps: 50,
            hosts: 4,
            regions: 0,
            rows: 1_000,
        },
        pool: 256,
        body_rows: 5_000,
        history_windows: 2,
        range_ms: 600_000,
    };

    /// Shrunken cubes for `--smoke`.
    pub const SMOKE: Scale = Scale {
        highcard: Shape {
            apps: 20,
            hosts: 24,
            regions: 4,
            rows: 200_000,
        },
        ingest: Shape {
            apps: 25,
            hosts: 8,
            regions: 0,
            rows: 20_000,
        },
        timeline: Shape {
            apps: 10,
            hosts: 4,
            regions: 0,
            rows: 200,
        },
        pool: 32,
        body_rows: 1_000,
        history_windows: 2,
        range_ms: 120_000,
    };
}

/// Who sends what when.
pub enum Traffic {
    /// Closed loop, every client: draw a class by share, then an entry of
    /// that class's pool by Zipf(1), so a stated share of requests repeats.
    Mix {
        /// `(class, share)`; shares sum to 1.
        shares: Vec<(usize, f64)>,
        /// Request indices per class.
        pools: Vec<Vec<usize>>,
    },
    /// Closed loop: every client posts the bodies back to back; the last
    /// client also posts `/refresh` whenever `every_ns` have passed.
    Ingest {
        /// Request indices of the bodies.
        bodies: Vec<usize>,
        /// Request index of `POST /refresh`.
        refresh: usize,
        /// Refresh cadence.
        every_ns: u64,
    },
    /// Open loop at fixed rates: client 0 sends `ingest` and `slice`,
    /// client 1 sends `range`.
    Paced {
        /// `(client, class, requests per second)`.
        rates: Vec<(usize, usize, f64)>,
        /// Request indices per class.
        pools: Vec<Vec<usize>>,
    },
}

/// One fully built workload.
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The cube's dimensions.
    pub shape: Shape,
    /// Server flags beyond `--addr --threads --shards --dims`.
    pub flags: Vec<String>,
    /// Start the server with `--wal-dir`.
    pub wal: bool,
    /// Start the server with `--timeline-dir`.
    pub timeline: bool,
    /// Request class names.
    pub classes: Vec<&'static str>,
    /// The class `primary_*` metrics are defined on.
    pub primary: usize,
    /// The class `secondary_p50_ms` is defined on.
    pub secondary: usize,
    /// Whether `throughput_per_s` counts rows (else requests).
    pub counts_rows: bool,
    /// Every request that can be sent.
    pub requests: Vec<Req>,
    /// What a correct answer to `requests[i]` looks like.
    pub expects: Vec<Expect>,
    /// Bodies posted during set-up, in order, before the first refresh.
    pub load: Vec<Arc<str>>,
    /// Rows in `load`.
    pub load_rows: u64,
    /// Connections that post `load`, bodies dealt round-robin: two, like
    /// the measured traffic, except where the bodies must arrive in order.
    pub loaders: usize,
    /// Timeline rollups to wait for before set-up counts as done.
    pub settle_rollups: u64,
    /// How often the server is set up per run (`setup_s` is the median):
    /// twice where a set-up takes seconds (a third would cost the window
    /// its length under the benchmark's total time cap), nine times where
    /// it takes a tenth of one and process start-up jitter is a large
    /// share of it.
    pub setups: usize,
    /// Ground truth.
    pub oracle: Oracle,
    /// The generated rows (the layer probes run on the same data).
    pub rows: Rows,
    /// The traffic pattern.
    pub traffic: Traffic,
}

/// Build a workload by name. `now_ms` anchors timestamped history (only
/// `mixed-timeline` uses it).
pub fn build(name: &str, seed: u64, scale: &Scale, now_ms: u64) -> Option<Workload> {
    match name {
        "slice-highcard" => Some(slice_highcard(seed, scale)),
        "alert-cascade" => Some(alert_cascade(seed, scale)),
        "ingest-durable" => Some(ingest_durable(seed, scale)),
        "mixed-timeline" => Some(mixed_timeline(seed, scale, now_ms)),
        _ => None,
    }
}

/// Chop `rows` into `/ingest` bodies of at most `per_body` rows.
fn bodies(shape: &Shape, names: &Names, rows: &Rows, per_body: usize) -> Vec<Arc<str>> {
    (0..rows.len())
        .step_by(per_body)
        .map(|at| {
            let end = (at + per_body).min(rows.len());
            Arc::from(gen::ingest_body(shape, names, rows, at..end, None))
        })
        .collect()
}

/// Requests and expectations under construction.
#[derive(Default)]
struct Book {
    requests: Vec<Req>,
    expects: Vec<Expect>,
}

impl Book {
    fn get(&mut self, class: usize, path: String, expect: Expect) -> usize {
        self.push(class, path, None, expect)
    }

    fn push(
        &mut self,
        class: usize,
        path: String,
        body: Option<Arc<str>>,
        expect: Expect,
    ) -> usize {
        self.requests.push(Req { class, path, body });
        self.expects.push(expect);
        self.requests.len() - 1
    }
}

const QS: &str = "q=0.5,0.99";

/// The app (host) a pool slot filters on. Which values are hot is part of
/// the workload's definition, like the per-cell scales, and not drawn from
/// the seed: request costs differ between apps (a popular app's cells hold
/// 200 times the rows of a rare one's), a Zipf pool gives its first slot a
/// sixth of the traffic, and a class median would otherwise follow
/// whichever app the seed happened to put there. The seed draws the rows,
/// the thresholds and the order requests are sent in. The multipliers are
/// coprime to every cardinality in use, so slots walk all values.
fn slot_app(shape: &Shape, slot: usize) -> u16 {
    ((slot * 37 + 11) % shape.apps) as u16
}

/// Apps whose cells hold enough rows (150 and up at full scale) for a
/// one-cell answer to be gated: `app0` … `app15`.
const DENSE_APPS: usize = 16;

fn dense_app(shape: &Shape, slot: usize) -> u16 {
    (slot % DENSE_APPS.min(shape.apps)) as u16
}

fn slot_host(shape: &Shape, slot: usize) -> u16 {
    ((slot * 91 + 5) % shape.hosts) as u16
}

fn slice_highcard(seed: u64, scale: &Scale) -> Workload {
    let shape = scale.highcard;
    let rows = gen::rows(&shape, seed);
    let names = Names::new(&shape);
    let oracle = Oracle::new(&shape, &rows);
    let classes = vec!["slice", "cell", "host", "wide", "rollup", "groupby"];
    let mut book = Book::default();
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    let (hosts, regions) = (shape.hosts as u16, shape.regions as u16);
    for slot in 0..scale.pool {
        let (a, h) = (slot_app(&shape, slot), slot_host(&shape, slot));
        pools[0].push(book.get(
            0,
            format!("/quantile?{QS}&app={}", names.app[a as usize]),
            Expect::Quantile {
                pop: Pop::App(a),
                cells: shape.hosts,
            },
        ));
        // One-cell queries go to the cells of the busiest apps only. A cell
        // of a rare app holds 10 to 100 rows, and there the tree answers
        // NaN (up to a quarter of the cells under 15 rows) or a median with
        // a rank error up to 0.47: a finding (README), but a request that
        // fails on the committed tree cannot be part of a workload whose
        // answers are gated.
        let dense = dense_app(&shape, slot);
        pools[1].push(book.get(
            1,
            format!(
                "/quantile?{QS}&app={}&host={}",
                names.app[dense as usize], names.host[h as usize]
            ),
            Expect::Quantile {
                pop: Pop::Cell(dense, h),
                cells: 1,
            },
        ));
        pools[2].push(book.get(
            2,
            format!("/quantile?{QS}&host={}", names.host[h as usize]),
            Expect::Quantile {
                pop: Pop::Host(h),
                cells: shape.apps,
            },
        ));
        pools[5].push(book.get(
            5,
            format!("/groupby?by=region&{QS}&app={}", names.app[a as usize]),
            Expect::GroupBy(Groups::RegionsOfApp(a)),
        ));
    }
    for r in 0..regions {
        pools[3].push(
            book.get(
                3,
                format!("/quantile?{QS}&region={}", names.region[r as usize]),
                Expect::Quantile {
                    pop: Pop::Region(r),
                    cells: shape.apps
                        * (0..hosts)
                            .filter(|&h| shape.region_of(h) == r as usize)
                            .count(),
                },
            ),
        );
    }
    pools[4].push(book.get(
        4,
        format!("/quantile?{QS}"),
        Expect::Quantile {
            pop: Pop::All,
            cells: shape.cells(),
        },
    ));
    Workload {
        name: "slice-highcard",
        shape,
        flags: Vec::new(),
        wal: false,
        timeline: false,
        classes,
        primary: 0,
        // `groupby`, not `rollup`: a rollup streams all 50 000 sketches
        // through the cache, and on the shared sandbox its median moved
        // 1.6x between quiet and noisy minutes (ten-run spread 0.21-0.24,
        // beside 0.04-0.18 for `slice`). It stays a per-layer metric.
        secondary: 5,
        counts_rows: false,
        load: bodies(&shape, &names, &rows, 50_000),
        load_rows: rows.len() as u64,
        loaders: 2,
        settle_rollups: 0,
        setups: 2,
        requests: book.requests,
        expects: book.expects,
        oracle,
        rows,
        traffic: Traffic::Mix {
            shares: vec![
                (0, 0.30),
                (1, 0.20),
                (2, 0.15),
                (3, 0.10),
                (4, 0.05),
                (5, 0.20),
            ],
            pools,
        },
    }
}

/// Ranks the alert thresholds are drawn at: high enough that the bounds
/// stages prune most groups, low enough that a few per query reach the
/// max-entropy solve. The rank is taken in the distribution of the rows
/// the query's filter selects (its app, its region), not in the global
/// one: apps differ 4x in scale, so one global threshold prunes every
/// group of a small-valued app in a millisecond and solves half the
/// groups of a large-valued one, and the class median then sits wherever
/// the seed's most popular pool entries happen to fall.
pub const ALERT_RANKS: (f64, f64) = (0.9988, 0.9992);

/// The apps `threshold` requests filter on: eight of one density (230 to
/// 540 rows a cell at full scale). The groups of such a request are
/// single cells, and how many of them the bounds leave to the solver
/// depends on how many rows a cell holds and on the rank: 40 of 250 for a
/// busy app, 1 for a rare one whose cells mostly lie wholly below the
/// threshold. A Zipf pool puts a sixth of the traffic on its first slot,
/// so with costs that far apart the class median sat on whichever slot's
/// cost spanned the 50% mark: 5.5 to 8.2 ms over all apps, 15.9 or 19.7 ms
/// over the sixteen dense ones and the wider rank band. Over these eight,
/// every request leaves about 25 of 250 groups (10%) to the solver.
const ALERT_APPS: std::ops::Range<usize> = 4..12;

fn alert_cascade(seed: u64, scale: &Scale) -> Workload {
    let shape = scale.highcard;
    let rows = gen::rows(&shape, seed);
    let names = Names::new(&shape);
    let oracle = Oracle::new(&shape, &rows);
    let classes = vec!["threshold", "threshold-wide", "search"];
    let mut book = Book::default();
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    let phi = 0.99;
    // A slot's rank is a fixed point of the band (golden-ratio spacing),
    // for the reason `slot_app` gives; the threshold itself is that rank's
    // exact quantile of this seed's rows.
    let threshold = |slot: usize, selected: Pop| {
        let at = (slot as f64 * 0.618_033_988_75).fract();
        oracle.quantile(
            selected,
            ALERT_RANKS.0 + at * (ALERT_RANKS.1 - ALERT_RANKS.0),
        )
    };
    for slot in 0..scale.pool {
        let a = (ALERT_APPS.start + slot % ALERT_APPS.len()).min(shape.apps - 1) as u16;
        let t = threshold(slot, Pop::App(a));
        pools[0].push(book.get(
            0,
            format!(
                "/threshold?by=host&app={}&q={phi}&t={t}",
                names.app[a as usize]
            ),
            Expect::Threshold {
                groups: Groups::HostsOfApp(a),
                phi,
                t,
            },
        ));
        let r = (slot % shape.regions) as u16;
        let t = threshold(slot + 1, Pop::Region(r));
        pools[1].push(book.get(
            1,
            format!(
                "/threshold?by=app&region={}&q={phi}&t={t}",
                names.region[r as usize]
            ),
            Expect::Threshold {
                groups: Groups::AppsOfRegion(r),
                phi,
                t,
            },
        ));
    }
    pools[2].push(book.get(
        2,
        "/search?by=app&global_phi=0.99&ratio=3".to_string(),
        Expect::Search {
            global_phi: 0.99,
            ratio: 3.0,
        },
    ));
    Workload {
        name: "alert-cascade",
        shape,
        flags: Vec::new(),
        wal: false,
        timeline: false,
        classes,
        primary: 0,
        secondary: 2,
        counts_rows: false,
        load: bodies(&shape, &names, &rows, 50_000),
        load_rows: rows.len() as u64,
        loaders: 2,
        settle_rollups: 0,
        setups: 2,
        requests: book.requests,
        expects: book.expects,
        oracle,
        rows,
        traffic: Traffic::Mix {
            shares: vec![(0, 0.60), (1, 0.30), (2, 0.10)],
            pools,
        },
    }
}

fn ingest_durable(seed: u64, scale: &Scale) -> Workload {
    let shape = scale.ingest;
    let rows = gen::rows(&shape, seed);
    let names = Names::new(&shape);
    let oracle = Oracle::new(&shape, &rows);
    let load = bodies(&shape, &names, &rows, scale.body_rows);
    let mut book = Book::default();
    let posted: Vec<usize> = load
        .iter()
        .enumerate()
        .map(|(i, body)| {
            let n = (rows.len() - i * scale.body_rows).min(scale.body_rows);
            book.push(
                0,
                "/ingest".to_string(),
                Some(body.clone()),
                Expect::Ingest { rows: n },
            )
        })
        .collect();
    let refresh = book.push(
        1,
        "/refresh".to_string(),
        Some(Arc::from("")),
        Expect::Refresh,
    );
    Workload {
        name: "ingest-durable",
        shape,
        flags: ["--refresh-ms", "0", "--fsync", "always"]
            .map(String::from)
            .to_vec(),
        wal: true,
        timeline: false,
        classes: vec!["ingest", "refresh"],
        primary: 0,
        secondary: 1,
        counts_rows: true,
        // Set-up posts every body once, so the measured window runs on a
        // cube whose cells all exist: refreshes ship deltas, not creations.
        load_rows: rows.len() as u64,
        load,
        loaders: 2,
        settle_rollups: 0,
        setups: 9,
        requests: book.requests,
        expects: book.expects,
        oracle,
        rows,
        traffic: Traffic::Ingest {
            bodies: posted,
            refresh,
            every_ns: 250_000_000,
        },
    }
}

fn mixed_timeline(seed: u64, scale: &Scale, now_ms: u64) -> Workload {
    let cells = scale.timeline.cells();
    let end = now_ms - now_ms % ROLLUP_MS;
    let start = end - scale.history_windows * ROLLUP_MS;
    let buckets = ((end - start) / BUCKET_MS) as usize;
    // History: every bucket holds one row per cell, stamped inside it.
    let shape = Shape {
        rows: buckets * cells,
        ..scale.timeline
    };
    let rows = gen::rows_round_robin(&shape, seed);
    let ts: Vec<u64> = (0..rows.len())
        .map(|i| start + (i / cells) as u64 * BUCKET_MS + (i % cells) as u64 % BUCKET_MS)
        .collect();
    let names = Names::new(&shape);
    let per_window = (ROLLUP_MS / BUCKET_MS) as usize * cells;
    let load: Vec<Arc<str>> = (0..rows.len())
        .step_by(per_window)
        .map(|at| {
            Arc::from(gen::ingest_body(
                &shape,
                &names,
                &rows,
                at..at + per_window,
                Some(&ts),
            ))
        })
        .collect();
    let oracle = Oracle::new(&shape, &rows).with_history(ts, rows.value.clone(), BUCKET_MS);
    // Live rows, stamped by the server on arrival.
    let live_shape = Shape {
        rows: scale.timeline.rows * 16,
        ..scale.timeline
    };
    let live = gen::rows(&live_shape, seed ^ 0x4C49_5645);
    let classes = vec!["range", "ingest", "slice"];
    let mut book = Book::default();
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); classes.len()];
    for body in bodies(&live_shape, &names, &live, scale.timeline.rows) {
        pools[1].push(book.push(
            1,
            "/ingest".to_string(),
            Some(body),
            Expect::Ingest {
                rows: scale.timeline.rows,
            },
        ));
    }
    for slot in 0..scale.pool {
        // Unaligned offsets on a fixed stride (a prime number of
        // milliseconds): a range's cover, and with it its cost, depends on
        // where it starts, so the hot slots keep their offsets.
        let t0 = start + slot as u64 * 104_729 % (end - start - scale.range_ms + 1);
        let t1 = t0 + scale.range_ms;
        pools[0].push(book.get(
            0,
            format!("/quantile?{QS}&t0={t0}&t1={t1}"),
            Expect::Range { t0, t1 },
        ));
        let a = slot_app(&shape, slot);
        pools[2].push(book.get(
            2,
            format!("/quantile?{QS}&app={}", names.app[a as usize]),
            Expect::GrowingSlice {
                app: a,
                cells: shape.hosts,
            },
        ));
    }
    let windows = scale.history_windows;
    Workload {
        name: "mixed-timeline",
        shape,
        flags: [
            "--bucket-ms",
            &BUCKET_MS.to_string(),
            "--refresh-ms",
            &BUCKET_MS.to_string(),
            "--fsync",
            "never",
        ]
        .map(String::from)
        .to_vec(),
        wal: false,
        timeline: true,
        classes,
        primary: 0,
        secondary: 2,
        counts_rows: false,
        load_rows: rows.len() as u64,
        load,
        // History goes in oldest first, one window at a time. (Two loaders
        // also made the server's peak memory depend on whether two 17 MB
        // bodies happened to be parsed at once: 399 or 473 MB.)
        loaders: 1,
        // Every history window rolls up 24 times at level 1 and once at
        // level 2; set-up is over when compaction has caught up.
        settle_rollups: windows * 24 + windows,
        setups: 2,
        requests: book.requests,
        expects: book.expects,
        oracle,
        rows,
        // One range read holds the timeline lock for ~35 ms here, and an
        // `/ingest` waits for that lock. At 10 and 15 reads a second the
        // lock was busy 35-50% of the time, an ingest waited about every
        // other time, and its median (and that of the slices queued behind
        // it on client 0) flipped between the free path and the waiting one
        // from run to run: 1.9 vs 21 ms. At 5 a second the lock is busy a
        // sixth of the time, medians show the free path, and what waiting
        // there is shows in `client.primary_p80_ms`.
        traffic: Traffic::Paced {
            rates: vec![(0, 1, 20.0), (0, 2, 30.0), (1, 0, 5.0)],
            pools,
        },
    }
}

impl Workload {
    /// The scripts of the two clients for one run of `total_ns`
    /// (warm-up included). Draws depend on the seed and the client only.
    pub fn scripts(&self, seed: u64, total_ns: u64) -> Vec<Script> {
        const CLIENTS: usize = 2;
        match &self.traffic {
            Traffic::Mix { shares, pools } => (0..CLIENTS)
                .map(|client| {
                    let mut rng = gen::rng(seed, 0x434C_4900 + client as u64);
                    let shares = shares.clone();
                    let pools = pools.clone();
                    let zipfs: Vec<Zipf> = pools.iter().map(|p| Zipf::new(p.len(), 1.0)).collect();
                    Script::Closed(Box::new(move |_now| {
                        let mut u: f64 = rng.gen();
                        let mut class = shares[shares.len() - 1].0;
                        for &(c, share) in &shares {
                            if u < share {
                                class = c;
                                break;
                            }
                            u -= share;
                        }
                        pools[class][zipfs[class].sample(&mut rng)]
                    }))
                })
                .collect(),
            Traffic::Ingest {
                bodies,
                refresh,
                every_ns,
            } => (0..CLIENTS)
                .map(|client| {
                    let (bodies, refresh, every_ns) = (bodies.clone(), *refresh, *every_ns);
                    // The clients start at opposite ends of the body list.
                    let mut at = client * bodies.len() / CLIENTS;
                    let mut last_refresh = 0u64;
                    Script::Closed(Box::new(move |now| {
                        if client == CLIENTS - 1 && now - last_refresh >= every_ns {
                            last_refresh = now;
                            return refresh;
                        }
                        at = (at + 1) % bodies.len();
                        bodies[at]
                    }))
                })
                .collect(),
            Traffic::Paced { rates, pools } => (0..CLIENTS)
                .map(|client| {
                    let parts = rates
                        .iter()
                        .filter(|&&(c, _, _)| c == client)
                        .map(|&(_, class, rate)| {
                            let mut rng = gen::rng(seed, 0x5041_4300 + class as u64);
                            let zipf = Zipf::new(pools[class].len(), 1.0);
                            load::paced(rate, total_ns, |_| {
                                (rng.gen(), pools[class][zipf.sample(&mut rng)])
                            })
                        })
                        .collect();
                    Script::Open(load::merge(parts))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_schedules(w: &Workload, seed: u64) -> Vec<Vec<(u64, usize)>> {
        w.scripts(seed, 3_000_000_000)
            .into_iter()
            .map(|s| match s {
                Script::Open(schedule) => schedule,
                Script::Closed(_) => panic!("mixed-timeline is open loop"),
            })
            .collect()
    }

    fn closed_draws(w: &Workload, seed: u64) -> Vec<Vec<usize>> {
        w.scripts(seed, 0)
            .into_iter()
            .map(|s| match s {
                Script::Closed(mut next) => (0..200).map(|i| next(i * 10_000_000)).collect(),
                Script::Open(_) => panic!("closed loop expected"),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_requests_and_same_schedule() {
        let now = 1_700_000_123_456;
        for name in WORKLOADS {
            let a = build(name, 7, &Scale::SMOKE, now).unwrap();
            let b = build(name, 7, &Scale::SMOKE, now).unwrap();
            let c = build(name, 8, &Scale::SMOKE, now).unwrap();
            let wire = |w: &Workload| -> Vec<(String, Option<Arc<str>>)> {
                w.requests
                    .iter()
                    .map(|r| (r.path.clone(), r.body.clone()))
                    .collect()
            };
            assert_eq!(wire(&a), wire(&b), "{name}: requests differ under one seed");
            assert_eq!(
                a.load, b.load,
                "{name}: set-up bodies differ under one seed"
            );
            assert_ne!(a.load, c.load, "{name}: the seed does not reach the rows");
            assert_eq!(a.expects, b.expects);
            if name == "mixed-timeline" {
                assert_eq!(open_schedules(&a, 7), open_schedules(&b, 7));
                assert_ne!(open_schedules(&a, 7), open_schedules(&a, 8));
            } else {
                assert_eq!(closed_draws(&a, 7), closed_draws(&b, 7));
            }
        }
    }

    #[test]
    fn mix_shares_and_repeats_are_as_stated() {
        let w = build("slice-highcard", 3, &Scale::SMOKE, 0).unwrap();
        let draws: Vec<usize> = closed_draws(&w, 3).concat();
        let share = |class: usize| {
            draws
                .iter()
                .filter(|&&r| w.requests[r].class == class)
                .count() as f64
                / draws.len() as f64
        };
        assert!((share(0) - 0.30).abs() < 0.08, "slice share {}", share(0));
        assert!((share(5) - 0.20).abs() < 0.08, "groupby share {}", share(5));
        let distinct: std::collections::HashSet<&usize> = draws.iter().collect();
        assert!(
            distinct.len() < draws.len() / 2,
            "Zipf pools make requests repeat"
        );
    }

    #[test]
    fn the_refreshing_client_refreshes_on_its_cadence_only() {
        let w = build("ingest-durable", 5, &Scale::SMOKE, 0).unwrap();
        let draws = closed_draws(&w, 5);
        let refresh = w
            .requests
            .iter()
            .position(|r| r.path == "/refresh")
            .unwrap();
        assert!(draws[0].iter().all(|&r| r != refresh));
        // 200 draws 10 ms apart span 1.99 s: one refresh per full 250 ms.
        assert_eq!(draws[1].iter().filter(|&&r| r == refresh).count(), 7);
    }

    #[test]
    fn history_is_aligned_to_rollup_windows_and_ranges_stay_inside_it() {
        let now = 1_700_000_123_456;
        let w = build("mixed-timeline", 2, &Scale::SMOKE, now).unwrap();
        assert_eq!(w.load.len() as u64, Scale::SMOKE.history_windows);
        let end = now - now % ROLLUP_MS;
        let start = end - Scale::SMOKE.history_windows * ROLLUP_MS;
        for e in &w.expects {
            if let Expect::Range { t0, t1 } = e {
                assert!(*t0 >= start && *t1 <= end && t1 - t0 == Scale::SMOKE.range_ms);
            }
        }
        let schedules = open_schedules(&w, 2);
        let per_s = |client: usize, class: usize| {
            schedules[client]
                .iter()
                .filter(|&&(_, r)| w.requests[r].class == class)
                .count()
                / 3
        };
        assert_eq!((per_s(0, 1), per_s(0, 2), per_s(1, 0)), (20, 30, 5));
    }
}
