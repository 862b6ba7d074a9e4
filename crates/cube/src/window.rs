//! Time panes and sliding windows (Section 7.2.2 of the paper).
//!
//! Data is pre-aggregated at pane granularity (e.g. 10 minutes); a sliding
//! window spans `w` consecutive panes. Generic summaries must re-merge all
//! `w` panes per window position, but the moments sketch supports
//! *turnstile* updates — subtract the departing pane's power sums, add the
//! arriving pane's — making each slide O(k) regardless of window length.
//! (`min`/`max` cannot shrink under subtraction; they remain conservative
//! bounds, which keeps every estimate and bound valid.)

use moments_sketch::MomentsSketch;
use msketch_sketches::traits::QuantileSummary;

/// Sliding aggregate over moments-sketch panes with O(k) slides.
///
/// # Examples
///
/// ```
/// use moments_sketch::MomentsSketch;
/// use msketch_cube::TurnstileWindow;
/// let mut w = TurnstileWindow::new(3);
/// for pane in 0..5 {
///     let data: Vec<f64> = (0..100).map(|i| (pane * 100 + i) as f64).collect();
///     let agg = w.push(MomentsSketch::from_data(8, &data));
///     assert!(agg.count() <= 300.0); // never more than 3 panes
/// }
/// assert_eq!(w.aggregate().unwrap().count(), 300.0);
/// ```
#[derive(Debug, Clone)]
pub struct TurnstileWindow {
    window: usize,
    panes: Vec<MomentsSketch>,
    current: Option<MomentsSketch>,
    /// Index of the first pane inside the current window.
    head: usize,
}

impl TurnstileWindow {
    /// Create a sliding window spanning `window` panes.
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        TurnstileWindow {
            window,
            panes: Vec::new(),
            current: None,
            head: 0,
        }
    }

    /// Number of panes pushed so far.
    pub fn pane_count(&self) -> usize {
        self.panes.len()
    }

    /// Push the next pane; returns the up-to-date window aggregate once at
    /// least one pane is in (windows shorter than `window` panes are
    /// partial aggregates, as at stream start).
    pub fn push(&mut self, pane: MomentsSketch) -> &MomentsSketch {
        match &mut self.current {
            None => self.current = Some(pane.clone()),
            Some(cur) => {
                cur.merge(&pane);
                if self.panes.len() - self.head >= self.window {
                    cur.sub(&self.panes[self.head]);
                    self.head += 1;
                }
            }
        }
        self.panes.push(pane);
        self.current.as_ref().unwrap()
    }

    /// The current window aggregate.
    pub fn aggregate(&self) -> Option<&MomentsSketch> {
        self.current.as_ref()
    }
}

/// Scan all length-`window` windows over `panes` with turnstile updates,
/// calling `visit` with each window's aggregate (start index, sketch).
pub fn sliding_windows_turnstile<Fv: FnMut(usize, &MomentsSketch)>(
    panes: &[MomentsSketch],
    window: usize,
    mut visit: Fv,
) {
    if panes.len() < window || window == 0 {
        return;
    }
    let mut agg = panes[0].clone();
    for p in &panes[1..window] {
        agg.merge(p);
    }
    visit(0, &agg);
    for start in 1..=panes.len() - window {
        agg.sub(&panes[start - 1]);
        agg.merge(&panes[start + window - 1]);
        visit(start, &agg);
    }
}

/// Scan all length-`window` windows by re-merging every pane per position
/// — the only option for generic summaries (the `Merge12` comparison of
/// Figure 14).
pub fn sliding_windows_remerge<S: QuantileSummary, Fv: FnMut(usize, &S)>(
    panes: &[S],
    window: usize,
    mut visit: Fv,
) {
    if panes.len() < window || window == 0 {
        return;
    }
    for start in 0..=panes.len() - window {
        let mut agg = panes[start].clone();
        for p in &panes[start + 1..start + window] {
            agg.merge_from(p);
        }
        visit(start, &agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moments_sketch::SolverConfig;
    use msketch_sketches::Sketch;

    fn panes(n: usize, per: usize) -> Vec<MomentsSketch> {
        (0..n)
            .map(|p| {
                let data: Vec<f64> = (0..per)
                    .map(|i| (p * per + i) as f64 % 1000.0 + 1.0)
                    .collect();
                MomentsSketch::from_data(8, &data)
            })
            .collect()
    }

    #[test]
    fn turnstile_matches_remerge_counts() {
        let panes = panes(20, 100);
        let mut turnstile_counts = Vec::new();
        sliding_windows_turnstile(&panes, 4, |_, s| turnstile_counts.push(s.count()));
        assert_eq!(turnstile_counts.len(), 17);
        assert!(turnstile_counts.iter().all(|&c| c == 400.0));
    }

    #[test]
    fn turnstile_quantiles_match_remerge() {
        let panes = panes(12, 200);
        let mut remerged: Vec<MomentsSketch> = Vec::new();
        for start in 0..=panes.len() - 4 {
            let mut agg = panes[start].clone();
            for p in &panes[start + 1..start + 4] {
                agg.merge(p);
            }
            remerged.push(agg);
        }
        let cfg = SolverConfig::default();
        let mut i = 0;
        sliding_windows_turnstile(&panes, 4, |start, s| {
            assert_eq!(start, i);
            let a = s.solve(&cfg).unwrap().quantile(0.9).unwrap();
            let b = remerged[i].solve(&cfg).unwrap().quantile(0.9).unwrap();
            // Power sums are identical up to float noise; min/max may be
            // conservative, so allow a small relative gap.
            assert!((a - b).abs() < 0.05 * b.abs().max(1.0), "{a} vs {b}");
            i += 1;
        });
        assert_eq!(i, remerged.len());
    }

    #[test]
    fn incremental_window_struct() {
        let ps = panes(10, 50);
        let mut w = TurnstileWindow::new(3);
        for (i, p) in ps.iter().enumerate() {
            let agg = w.push(p.clone());
            let expect = 50.0 * (i + 1).min(3) as f64;
            assert_eq!(agg.count(), expect, "pane {i}");
        }
        assert_eq!(w.pane_count(), 10);
    }

    #[test]
    fn remerge_visits_every_window() {
        let ps = panes(8, 10);
        let mut seen = 0;
        sliding_windows_remerge(
            &ps.iter()
                .map(|p| msketch_sketches::MSketchSummary::from_sketch(p.clone()))
                .collect::<Vec<_>>(),
            5,
            |_, s| {
                assert_eq!(s.count(), 50);
                seen += 1;
            },
        );
        assert_eq!(seen, 4);
    }

    #[test]
    fn short_streams_produce_no_windows() {
        let ps = panes(2, 10);
        let mut called = false;
        sliding_windows_turnstile(&ps, 5, |_, _| called = true);
        assert!(!called);
    }
}
