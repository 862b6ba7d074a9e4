//! Seeded inputs: rows, dimension assignment, ingest bodies and the Zipf
//! sampler the request pools draw from. Everything here is a pure
//! function of its arguments, so one `--seed` fixes every byte the
//! server is sent.

use msketch_datasets::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// Dimension cardinalities and row count of one workload's cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Distinct `app` values (Zipf popularity: `app0` is the busiest).
    pub apps: usize,
    /// Distinct `host` values (uniform).
    pub hosts: usize,
    /// Distinct `region` values; a function of the host (`host % regions`).
    /// Zero drops the dimension.
    pub regions: usize,
    /// Rows generated.
    pub rows: usize,
}

impl Shape {
    /// Populated cells: every `(app, host)` pair gets at least one row.
    pub fn cells(&self) -> usize {
        self.apps * self.hosts
    }

    /// The `--dims` list the server is started with.
    pub fn dims(&self) -> &'static str {
        if self.regions > 0 {
            "app,host,region"
        } else {
            "app,host"
        }
    }

    /// Region of a host.
    pub fn region_of(&self, host: u16) -> usize {
        host as usize % self.regions.max(1)
    }
}

/// Generated rows, column-major. Values are `Dataset::Milan` draws (heavy
/// tail, positive, so the sketch takes its log-moments path) scaled per
/// cell so that groups differ.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// `app` index per row.
    pub app: Vec<u16>,
    /// `host` index per row.
    pub host: Vec<u16>,
    /// Metric per row.
    pub value: Vec<f64>,
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// Per-cell scale factor in `[0.25, 4)`. It depends on the indices only,
/// never on the seed, so every seed sees the same population structure
/// and only the draws differ — medians then repeat across seeds. The
/// multiplicative hashes decouple an app's scale from its popularity.
pub fn scale(app: u16, host: u16) -> f64 {
    let unit = |i: u16, mul: u32| ((i as u32).wrapping_mul(mul) % 1024) as f64 / 1024.0;
    let a = unit(app, 619);
    let h = unit(host, 347);
    2f64.powf(2.0 * a - 1.0) * 2f64.powf(2.0 * h - 1.0)
}

/// Zipf(`s`) sampler over `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Table for ranks `0..n` with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n.max(1) {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank; rank 0 is the most likely.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Probability of `rank`.
    pub fn prob(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }
}

/// A seeded generator on its own stream: `stream` keeps rows, pools and
/// schedules of one seed independent of each other.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Generate `shape.rows` rows. The first `shape.cells()` rows visit every
/// cell once, so cell counts (and with them `cells_merged`) are exact by
/// construction; the rest draw `app` from Zipf(1) and `host` uniformly.
pub fn rows(shape: &Shape, seed: u64) -> Rows {
    let mut rng = rng(seed, 0x524F_5753);
    let zipf = Zipf::new(shape.apps, 1.0);
    rows_with(shape, seed, |i| {
        if i < shape.cells() {
            ((i / shape.hosts) as u16, (i % shape.hosts) as u16)
        } else {
            (
                zipf.sample(&mut rng) as u16,
                rng.gen_range(0..shape.hosts) as u16,
            )
        }
    })
}

/// Generate `shape.rows` rows that visit the cells round-robin: row `i`
/// belongs to cell `i % cells`, so every run of `cells` consecutive rows
/// (one timeline bucket) holds every cell once.
pub fn rows_round_robin(shape: &Shape, seed: u64) -> Rows {
    rows_with(shape, seed, |i| {
        let k = i % shape.cells();
        ((k / shape.hosts) as u16, (k % shape.hosts) as u16)
    })
}

/// Floor under the Milan draws. One draw in 2 000 is a "trace reading"
/// five to eight decades below the body; a population that happens to
/// hold one spans so much of log space that the solver leaves its ~0.6 ms
/// path for a 150–400 ms one (measured: 34 of 800 app×region groups at
/// seed 1). Whether a pool entry holds one is a coin flip per seed, which
/// would make every median bimodal across seeds, so the benchmark measures
/// the common path and the README records the slow one as a finding.
pub const MILAN_FLOOR: f64 = 0.1;

fn rows_with(shape: &Shape, seed: u64, mut cell_of: impl FnMut(usize) -> (u16, u16)) -> Rows {
    let n = shape.rows.max(shape.cells());
    let mut out = Rows {
        app: Vec::with_capacity(n),
        host: Vec::with_capacity(n),
        value: Vec::with_capacity(n),
    };
    for (i, v) in Dataset::Milan.generate(n, seed).into_iter().enumerate() {
        let (app, host) = cell_of(i);
        out.app.push(app);
        out.host.push(host);
        out.value.push(v.max(MILAN_FLOOR) * scale(app, host));
    }
    out
}

/// Dimension value strings, built once.
#[derive(Debug, Clone)]
pub struct Names {
    /// `app0`, `app1`, …
    pub app: Vec<String>,
    /// `host0`, `host1`, …
    pub host: Vec<String>,
    /// `r0`, `r1`, …
    pub region: Vec<String>,
}

impl Names {
    /// Names for every value of `shape`.
    pub fn new(shape: &Shape) -> Names {
        let list = |prefix: &str, n: usize| (0..n).map(|i| format!("{prefix}{i}")).collect();
        Names {
            app: list("app", shape.apps),
            host: list("host", shape.hosts),
            region: list("r", shape.regions),
        }
    }
}

/// The `POST /ingest` body for `rows[range]`: the server's columnar
/// format, with per-row `ts` when the rows are timestamped history.
pub fn ingest_body(
    shape: &Shape,
    names: &Names,
    rows: &Rows,
    range: std::ops::Range<usize>,
    ts: Option<&[u64]>,
) -> String {
    let n = range.len();
    let mut body = String::with_capacity(n * 48 + 64);
    fn column<'a>(
        body: &mut String,
        range: std::ops::Range<usize>,
        pick: impl Fn(usize) -> &'a str,
    ) {
        body.push('[');
        for (k, i) in range.enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push('"');
            body.push_str(pick(i));
            body.push('"');
        }
        body.push(']');
    }
    body.push_str("{\"columns\":[");
    column(&mut body, range.clone(), |i| {
        &names.app[rows.app[i] as usize]
    });
    body.push(',');
    column(&mut body, range.clone(), |i| {
        &names.host[rows.host[i] as usize]
    });
    if shape.regions > 0 {
        body.push(',');
        column(&mut body, range.clone(), |i| {
            &names.region[shape.region_of(rows.host[i])]
        });
    }
    body.push_str("],\"metrics\":[");
    for (k, i) in range.clone().enumerate() {
        if k > 0 {
            body.push(',');
        }
        // `{}` prints the shortest text that parses back to the same f64,
        // so the oracle and the server see identical values.
        let _ = write!(body, "{}", rows.value[i]);
    }
    body.push(']');
    if let Some(ts) = ts {
        body.push_str(",\"ts\":[");
        for (k, i) in range.enumerate() {
            if k > 0 {
                body.push(',');
            }
            let _ = write!(body, "{}", ts[i]);
        }
        body.push(']');
    }
    body.push('}');
    body
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: Shape = Shape {
        apps: 7,
        hosts: 5,
        regions: 4,
        rows: 2_000,
    };

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let names = Names::new(&SHAPE);
        let body = |seed| {
            let r = rows(&SHAPE, seed);
            ingest_body(&SHAPE, &names, &r, 0..r.len(), None)
        };
        assert_eq!(body(11), body(11));
        assert_ne!(body(11), body(12));
    }

    #[test]
    fn every_cell_is_populated_and_values_are_positive() {
        let r = rows(&SHAPE, 3);
        let mut seen = vec![false; SHAPE.cells()];
        for i in 0..r.len() {
            seen[r.app[i] as usize * SHAPE.hosts + r.host[i] as usize] = true;
            assert!(r.value[i] > 0.0 && r.value[i].is_finite());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn body_is_the_servers_columnar_json() {
        let names = Names::new(&SHAPE);
        let r = rows(&SHAPE, 5);
        let ts: Vec<u64> = (0..r.len() as u64).collect();
        let doc = serde_json::from_str(&ingest_body(&SHAPE, &names, &r, 10..14, Some(&ts)))
            .expect("valid JSON");
        let columns = doc.get("columns").and_then(|c| c.as_array()).unwrap();
        assert_eq!(columns.len(), 3);
        let metrics = doc.get("metrics").and_then(|m| m.as_array()).unwrap();
        assert_eq!(metrics.len(), 4);
        assert_eq!(metrics[0].as_f64(), Some(r.value[10]), "values round-trip");
        assert_eq!(
            doc.get("ts").and_then(|t| t.at(3)).and_then(|t| t.as_u64()),
            Some(13)
        );
    }

    #[test]
    fn zipf_sampler_follows_its_law() {
        let zipf = Zipf::new(16, 1.0);
        let mut rng = rng(9, 1);
        let mut hits = [0u32; 16];
        let draws = 200_000;
        for _ in 0..draws {
            hits[zipf.sample(&mut rng)] += 1;
        }
        for rank in [0, 1, 7, 15] {
            let got = hits[rank] as f64 / draws as f64;
            assert!(
                (got - zipf.prob(rank)).abs() < 0.005,
                "rank {rank}: {got} vs {}",
                zipf.prob(rank)
            );
        }
        assert!((zipf.prob(0) / zipf.prob(1) - 2.0).abs() < 1e-9);
    }
}
