//! Signal-strength handover between cells.
//!
//! The standard cellular recipe, sized for room-scale VLC: a user hands
//! over to a neighbour only when the neighbour's received signal beats
//! the serving cell's by a **hysteresis margin** for a full **dwell
//! window** (time-to-trigger), and the switch then costs an
//! **association outage** during which the user receives nothing (the
//! beacon/ACK exchange to join the new cell's TDMA schedule).
//!
//! Hysteresis plus dwell is what prevents ping-pong: a user standing on
//! the midline between two luminaires sees near-equal signal from both,
//! never clears the margin, and stays put (see the tests).

/// Handover tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct HandoverPolicy {
    /// A candidate must beat the serving cell by this margin, dB
    /// (received signal power ratio).
    pub hysteresis_db: f64,
    /// The margin must hold for this many consecutive ticks before the
    /// switch is executed (time-to-trigger).
    pub dwell_ticks: u32,
    /// Ticks of dead air while associating with the new cell.
    pub assoc_delay_ticks: u32,
}

impl HandoverPolicy {
    /// Defaults matched to the cell suite's 100 ms tick: 3 dB margin,
    /// 500 ms time-to-trigger, 300 ms association outage.
    pub fn standard() -> HandoverPolicy {
        HandoverPolicy {
            hysteresis_db: 3.0,
            dwell_ticks: 5,
            assoc_delay_ticks: 3,
        }
    }

    /// The linear power ratio a candidate must exceed.
    pub fn hysteresis_ratio(&self) -> f64 {
        10f64.powf(self.hysteresis_db / 10.0)
    }
}

/// A completed handover.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandoverEvent {
    /// Cell the user left.
    pub from: usize,
    /// Cell the user joined.
    pub to: usize,
    /// Ticks from the margin first holding to the new association being
    /// usable: dwell window plus association outage.
    pub latency_ticks: u32,
}

/// Per-user association state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Association {
    /// Currently associated cell.
    pub serving: usize,
    candidate: Option<(usize, u32)>,
    outage_left: u32,
}

impl Association {
    /// Associate with `serving` (no outage: the user starts joined).
    pub fn new(serving: usize) -> Association {
        Association {
            serving,
            candidate: None,
            outage_left: 0,
        }
    }

    /// Whether the user is currently in an association outage (receives
    /// nothing this tick).
    pub fn in_outage(&self) -> bool {
        self.outage_left > 0
    }

    /// Advance one tick given this tick's per-cell received signal powers
    /// (W, indexed by cell id). Returns the handover if one executes this
    /// tick.
    ///
    /// Ties (and everything within the hysteresis margin) resolve in
    /// favour of the serving cell; among equal candidates the lowest cell
    /// id wins, so the decision is deterministic.
    pub fn step(&mut self, rss_w: &[f64], policy: &HandoverPolicy) -> Option<HandoverEvent> {
        assert!(self.serving < rss_w.len(), "serving cell out of range");
        self.tick_outage();
        let mut best = 0usize;
        for (i, &p) in rss_w.iter().enumerate() {
            if p > rss_w[best] {
                best = i;
            }
        }
        let ratio = policy.hysteresis_ratio();
        self.decide(best, rss_w[best], rss_w[self.serving], ratio, policy)
    }

    /// Like [`Association::step`], but ranks only the cells in
    /// `candidates` (ascending cell ids; must include the serving cell).
    ///
    /// Reaches a bit-identical decision to [`Association::step`] whenever
    /// `candidates` contains every cell with nonzero received power:
    /// luminaires outside the receiver's field of view contribute exactly
    /// 0 W through the Lambertian path, so the event-driven core's
    /// neighbourhood window can prune them without perturbing the argmax
    /// (ties resolve to the lowest id in both variants, and an all-zero
    /// slate never clears the hysteresis margin either way).
    pub fn step_subset(
        &mut self,
        rss_w: &[f64],
        candidates: &[usize],
        policy: &HandoverPolicy,
    ) -> Option<HandoverEvent> {
        assert!(self.serving < rss_w.len(), "serving cell out of range");
        debug_assert!(
            candidates.contains(&self.serving),
            "candidates must include the serving cell"
        );
        debug_assert!(candidates.windows(2).all(|w| w[0] < w[1]), "ascending ids");
        self.tick_outage();
        let mut best = candidates[0];
        for &i in candidates {
            if rss_w[i] > rss_w[best] {
                best = i;
            }
        }
        let ratio = policy.hysteresis_ratio();
        self.decide(best, rss_w[best], rss_w[self.serving], ratio, policy)
    }

    /// Like [`Association::step`], from a slate already ranked: `best` is
    /// the RSS argmax over every cell, lowest id on ties (any cell when
    /// none beats 0 W: a 0 W argmax never clears the margin), `best_w`
    /// and `serving_w` are its and the serving cell's RSS, and `ratio` is
    /// `policy.hysteresis_ratio()`, which the caller computes once per
    /// run. Reaches [`Association::step`]'s decision bit for bit.
    pub(crate) fn step_ranked(
        &mut self,
        best: usize,
        best_w: f64,
        serving_w: f64,
        ratio: f64,
        policy: &HandoverPolicy,
    ) -> Option<HandoverEvent> {
        self.tick_outage();
        self.decide(best, best_w, serving_w, ratio, policy)
    }

    fn tick_outage(&mut self) {
        if self.outage_left > 0 {
            self.outage_left -= 1;
        }
    }

    fn decide(
        &mut self,
        best: usize,
        best_w: f64,
        serving_w: f64,
        ratio: f64,
        policy: &HandoverPolicy,
    ) -> Option<HandoverEvent> {
        let clears_margin = best != self.serving && best_w > serving_w * ratio;
        if !clears_margin {
            self.candidate = None;
            return None;
        }
        let dwell = match self.candidate {
            // The same candidate held for another tick.
            Some((cell, d)) if cell == best => d + 1,
            // New (or switched) candidate: the window restarts.
            _ => 1,
        };
        if dwell < policy.dwell_ticks.max(1) {
            self.candidate = Some((best, dwell));
            return None;
        }
        let ev = HandoverEvent {
            from: self.serving,
            to: best,
            // Saturating: the builder accepts any `u32` delay.
            latency_ticks: policy
                .dwell_ticks
                .max(1)
                .saturating_add(policy.assoc_delay_ticks),
        };
        self.serving = best;
        self.candidate = None;
        self.outage_left = policy.assoc_delay_ticks;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> HandoverPolicy {
        HandoverPolicy::standard()
    }

    #[test]
    fn no_ping_pong_between_equidistant_cells() {
        // A user on the midline between two cells: both signals equal,
        // with a small alternating wobble well inside the 3 dB margin.
        // The association must never move — in either direction.
        let mut assoc = Association::new(0);
        for tick in 0..10_000 {
            let wobble = if tick % 2 == 0 { 1.05 } else { 0.95 };
            let rss = [1.0e-6, 1.0e-6 * wobble];
            assert_eq!(
                assoc.step(&rss, &policy()),
                None,
                "ping-pong at tick {tick}"
            );
            assert_eq!(assoc.serving, 0);
        }
    }

    #[test]
    fn exactly_equal_signals_never_trigger() {
        let mut assoc = Association::new(1);
        for _ in 0..1_000 {
            assert_eq!(assoc.step(&[2.0e-6, 2.0e-6, 2.0e-6], &policy()), None);
        }
        assert_eq!(assoc.serving, 1);
    }

    #[test]
    fn clear_winner_hands_over_after_dwell_with_correct_latency() {
        let p = policy();
        let mut assoc = Association::new(0);
        // Cell 1 is 6 dB up: clears the 3 dB margin every tick.
        let rss = [1.0e-6, 4.0e-6];
        for tick in 0..p.dwell_ticks - 1 {
            assert_eq!(assoc.step(&rss, &p), None, "fired early at {tick}");
            assert_eq!(assoc.serving, 0);
        }
        let ev = assoc.step(&rss, &p).expect("handover must fire");
        assert_eq!(ev.from, 0);
        assert_eq!(ev.to, 1);
        assert_eq!(ev.latency_ticks, p.dwell_ticks + p.assoc_delay_ticks);
        assert_eq!(assoc.serving, 1);
        // The association outage lasts exactly assoc_delay_ticks ticks.
        let mut outage = 0;
        for _ in 0..20 {
            if assoc.in_outage() {
                outage += 1;
            }
            assoc.step(&rss, &p);
        }
        assert_eq!(outage, p.assoc_delay_ticks);
    }

    #[test]
    fn margin_blip_resets_the_dwell_window() {
        let p = policy();
        let mut assoc = Association::new(0);
        let strong = [1.0e-6, 4.0e-6];
        let weak = [1.0e-6, 1.1e-6]; // inside the margin
        for _ in 0..p.dwell_ticks - 1 {
            assert_eq!(assoc.step(&strong, &p), None);
        }
        // One tick back inside the margin: the trigger must restart.
        assert_eq!(assoc.step(&weak, &p), None);
        for tick in 0..p.dwell_ticks - 1 {
            assert_eq!(assoc.step(&strong, &p), None, "fired early at {tick}");
        }
        assert!(assoc.step(&strong, &p).is_some());
    }

    #[test]
    fn candidate_switch_restarts_the_window() {
        let p = policy();
        let mut assoc = Association::new(0);
        let cand1 = [1.0e-6, 4.0e-6, 1.0e-7];
        let cand2 = [1.0e-6, 1.0e-7, 4.0e-6];
        for _ in 0..p.dwell_ticks - 1 {
            assert_eq!(assoc.step(&cand1, &p), None);
        }
        // Best cell changes: no credit carries over.
        assert_eq!(assoc.step(&cand2, &p), None);
        for _ in 0..p.dwell_ticks - 2 {
            assert_eq!(assoc.step(&cand2, &p), None);
        }
        let ev = assoc.step(&cand2, &p).expect("handover to cell 2");
        assert_eq!(ev.to, 2);
    }

    #[test]
    fn step_subset_matches_full_step_on_zero_padded_slates() {
        // A slate where the far cells are exactly 0 W (outside the FoV):
        // ranking only the nonzero neighbourhood + serving must reproduce
        // the full scan, including through a complete handover.
        let p = policy();
        let mut full = Association::new(1);
        let mut sub = Association::new(1);
        let rss = [0.0, 1.0e-6, 4.1e-6, 0.0, 0.0];
        for _ in 0..p.dwell_ticks + 4 {
            let a = full.step(&rss, &p);
            let b = sub.step_subset(&rss, &[1, 2], &p);
            assert_eq!(a, b);
            assert_eq!(full.serving, sub.serving);
        }
        assert_eq!(full.serving, 2);
    }

    #[test]
    fn step_subset_all_zero_slate_is_inert() {
        // Every candidate at exactly 0 W (user outside everyone's FoV):
        // no margin can clear, the serving cell is retained — matching
        // the full scan, whose argmax lands on index 0 but goes unused.
        let p = policy();
        let mut sub = Association::new(3);
        for _ in 0..100 {
            assert_eq!(sub.step_subset(&[0.0; 5], &[2, 3, 4], &p), None);
            assert_eq!(sub.serving, 3);
        }
    }

    #[test]
    fn latency_saturates_at_the_largest_delay() {
        let p = HandoverPolicy {
            assoc_delay_ticks: u32::MAX,
            ..policy()
        };
        let mut assoc = Association::new(0);
        let rss = [1.0e-6, 4.0e-6];
        let ev = (0..p.dwell_ticks)
            .find_map(|_| assoc.step(&rss, &p))
            .expect("handover must fire");
        assert_eq!(ev.latency_ticks, u32::MAX);
        assert!(assoc.in_outage());
    }

    #[test]
    fn dead_serving_cell_recovers_via_handover() {
        // Serving signal collapses to zero (user walked out of its FoV):
        // any live neighbour clears the margin and takes over.
        let p = policy();
        let mut assoc = Association::new(0);
        let rss = [0.0, 3.0e-7];
        let mut fired = None;
        for _ in 0..p.dwell_ticks + 1 {
            if let Some(ev) = assoc.step(&rss, &p) {
                fired = Some(ev);
                break;
            }
        }
        assert_eq!(fired.expect("must escape a dead cell").to, 1);
    }
}
