//! The physical rollup ladder: every segment width the store holds.
//!
//! [`TimelineConfig::fanouts`] names the *sealing* levels — the windows
//! whose closing makes their rows immutable (`[60, 24]`: hours and days
//! over minute buckets). A range read pays for the distance between
//! them: up to `fanout − 1` pieces at each unaligned end of each level.
//! So between two consecutive sealing levels the ladder adds
//! *intermediate* levels, each a small fixed number of pieces of the one
//! below (KLL's level hierarchy applied to time), by factoring the
//! fanout into steps of at most [`MAX_STEP`]: `60 → 5·4·3` and
//! `24 → 6·4`, so `[60, 24]` is physically `[5, 4, 3, 6, 4]` — widths
//! 1, 5, 20, 60, 360 and 1 440 buckets — and any range tiles in at most
//! `Σ 2·(step − 1) + range / top width` segments.
//!
//! Every physical width divides every sealing width above it, so a
//! window that seals is tiled exactly by its intermediates, and a
//! segment's level is a function of its width alone: that is how the
//! store keys its index, whatever level byte a file carries.

use crate::TimelineConfig;

/// Largest step between two consecutive physical levels. Six keeps the
/// ends of a cover short (at most five pieces per level and side) for a
/// quarter more bytes on disk: the first intermediate level holds a
/// fifth or a sixth of what the base level does, and each level above
/// it a fraction of that.
const MAX_STEP: u32 = 6;

/// The physical levels of a timeline, derived from its configuration
/// ([`TimelineConfig::ladder`]). Level 0 is the base bucket; level `p`
/// is `steps()[p − 1]` segments of level `p − 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ladder {
    /// `steps[p]` level-`p` segments make one of level `p + 1`.
    steps: Vec<u32>,
    /// `widths[p]`: milliseconds one level-`p` segment covers.
    widths: Vec<u64>,
    /// `sealing[p]`: level `p` is one of the configured fanout levels
    /// (or the base level), not an intermediate.
    sealing: Vec<bool>,
}

impl Ladder {
    pub(crate) fn new(config: &TimelineConfig) -> Ladder {
        let mut ladder = Ladder {
            steps: Vec::new(),
            widths: vec![config.bucket_ms.max(1)],
            sealing: vec![true],
        };
        // A level is a `u8` on the wire and in the index.
        let fanouts = config.fanouts.iter().map(|&f| f.max(2));
        'fanouts: for fanout in fanouts {
            let steps = factor(fanout);
            for (i, &step) in steps.iter().enumerate() {
                if ladder.widths.len() > u8::MAX as usize {
                    break 'fanouts;
                }
                let below = ladder.width_ms(ladder.max_level());
                ladder.steps.push(step);
                ladder.widths.push(below.saturating_mul(u64::from(step)));
                ladder.sealing.push(i + 1 == steps.len());
            }
        }
        ladder
    }

    /// The step from each level to the next, finest first: the
    /// configured fanouts with each one factored (`[5, 4, 3, 6, 4]` for
    /// `[60, 24]`).
    pub fn steps(&self) -> &[u32] {
        &self.steps
    }

    /// The coarsest physical level.
    pub fn max_level(&self) -> u8 {
        self.steps.len() as u8
    }

    /// Milliseconds one segment of `level` covers (the top width past
    /// the coarsest level).
    pub fn width_ms(&self, level: u8) -> u64 {
        let top = self.widths.len() - 1;
        self.widths[(level as usize).min(top)]
    }

    /// Whether `level` is a sealing level — the base level or one the
    /// configuration's fanouts name — rather than an intermediate.
    pub fn is_sealing(&self, level: u8) -> bool {
        self.sealing.get(level as usize).copied().unwrap_or(false)
    }

    /// The sealing levels, finest (level 0) first.
    pub fn sealing_levels(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=self.max_level()).filter(|&level| self.is_sealing(level))
    }

    /// The level whose segments are exactly as wide as `[start_ms,
    /// end_ms)` and aligned like it; `None` for a range no level of this
    /// ladder produces.
    pub fn level_of(&self, start_ms: u64, end_ms: u64) -> Option<u8> {
        let width = end_ms.checked_sub(start_ms)?;
        let level = self.widths.iter().position(|&w| w == width)?;
        start_ms.is_multiple_of(width).then_some(level as u8)
    }
}

/// Factor one sealing fanout into steps of at most [`MAX_STEP`], finest
/// level first: the fewest factors, of those the smallest sum (the
/// worst-case cover is `Σ 2·(step − 1)`), largest first — the bottom
/// step decides how many intermediate segments there are, so it is the
/// one to keep long. A fanout with a prime factor above [`MAX_STEP`]
/// stays one step.
fn factor(fanout: u32) -> Vec<u32> {
    /// Best non-increasing factorisation of `rest` into factors `≤ cap`.
    fn search(rest: u32, cap: u32) -> Option<Vec<u32>> {
        if rest == 1 {
            return Some(Vec::new());
        }
        (2..=cap.min(rest))
            .rev()
            .filter(|&d| rest.is_multiple_of(d))
            .filter_map(|d| {
                let mut steps = search(rest / d, d)?;
                steps.insert(0, d);
                Some(steps)
            })
            .min_by_key(|steps| (steps.len(), steps.iter().sum::<u32>()))
    }
    search(fanout, MAX_STEP).unwrap_or_else(|| vec![fanout])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanouts_factor_into_short_steps() {
        assert_eq!(factor(60), vec![5, 4, 3]);
        assert_eq!(factor(24), vec![6, 4]);
        assert_eq!(factor(12), vec![4, 3]);
        assert_eq!(factor(8), vec![4, 2]);
        assert_eq!(factor(100), vec![5, 5, 4]);
        // Already short, or not made of short factors: one step.
        for whole in [2, 3, 4, 5, 6, 7, 14, 22, 4_294_967_291] {
            assert_eq!(factor(whole), vec![whole]);
        }
        for fanout in 2..=2_000u32 {
            let steps = factor(fanout);
            assert_eq!(steps.iter().product::<u32>(), fanout);
            assert!(steps.windows(2).all(|w| w[0] >= w[1]), "{steps:?}");
            assert!(steps.len() == 1 || steps.iter().all(|&s| s <= MAX_STEP));
        }
    }

    #[test]
    fn default_ladder_keeps_the_sealing_widths() {
        let config = TimelineConfig::default().bucket_ms(250);
        let ladder = config.ladder();
        assert_eq!(ladder.steps(), &[5, 4, 3, 6, 4]);
        assert_eq!(ladder.max_level(), 5);
        let widths: Vec<u64> = (0..=5).map(|l| ladder.width_ms(l) / 250).collect();
        assert_eq!(widths, vec![1, 5, 20, 60, 360, 1_440]);
        // The configured levels are where they were; the rest are new.
        assert_eq!(ladder.sealing_levels().collect::<Vec<_>>(), vec![0, 3, 5]);
        assert_eq!(ladder.width_ms(3), config.level_width_ms(1));
        assert_eq!(ladder.width_ms(5), config.level_width_ms(2));
        // Every width divides the top sealing width: no window straddles
        // two sealed ones.
        assert!(widths.iter().all(|w| 1_440 % w == 0));

        assert_eq!(ladder.level_of(0, 250), Some(0));
        assert_eq!(ladder.level_of(15_000, 30_000), Some(3));
        assert_eq!(ladder.level_of(1_250, 2_500), Some(1));
        // Right width, wrong alignment; and a width no level has.
        assert_eq!(ladder.level_of(250, 1_500), None);
        assert_eq!(ladder.level_of(0, 500), None);
        assert_eq!(ladder.level_of(500, 250), None);
    }

    #[test]
    fn short_fanouts_add_no_levels() {
        let ladder = TimelineConfig::default().fanouts(&[4, 3]).ladder();
        assert_eq!(ladder.steps(), &[4, 3]);
        assert!((0..=2).all(|level| ladder.is_sealing(level)));
        assert!(!ladder.is_sealing(3));
        // No fanouts: the base level alone.
        let flat = TimelineConfig::default().fanouts(&[]).ladder();
        assert_eq!((flat.max_level(), flat.width_ms(9)), (0, 60_000));
    }

    #[test]
    fn a_ladder_never_outgrows_the_level_byte() {
        let ladder = TimelineConfig::default().fanouts(&[2; 300]).ladder();
        assert_eq!(ladder.max_level(), u8::MAX);
        assert_eq!(ladder.width_ms(u8::MAX), u64::MAX, "saturated, not wrapped");
    }
}
