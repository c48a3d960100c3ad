//! Predictive filtering (§5.1): rule-based filtering and predictive early
//! termination.

use gmorph_graph::CapacityVector;

/// Which rule of the capacity filter matched a skipped candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// The candidate repeats a recorded failure exactly.
    ExactMatch,
    /// The candidate shares strictly more capacity than a recorded failure.
    MoreAggressive,
    /// The candidate is structurally similar (same capacity or more
    /// aggressive) to a quarantined repeat offender — a graph whose
    /// evaluation failed (NaN, panic, timeout) past its retry budget.
    Quarantined,
}

impl FilterVerdict {
    /// Stable name for telemetry (`filter.rule.*` counters).
    pub fn as_str(&self) -> &'static str {
        match self {
            FilterVerdict::ExactMatch => "exact",
            FilterVerdict::MoreAggressive => "more_aggressive",
            FilterVerdict::Quarantined => "quarantined",
        }
    }
}

/// Rule-based filtering over capacity vectors.
///
/// "When a mutated abs-graph is trained and shown to be non-promising,
/// then all mutated abs-graphs that are more aggressive in feature sharing
/// are also non-promising." The filter records the capacity vectors of
/// failed candidates; a new candidate is skipped (never fine-tuned) when
/// it is more aggressive than any recorded failure.
///
/// The filter also holds the supervisor's **quarantine list**: graph
/// signature digests ([`gmorph_graph::AbsGraph::digest`], plus capacity
/// vectors) of candidates whose evaluation
/// failed past the retry budget. Unlike accuracy failures — which only
/// apply when the user opts into rule filtering — quarantine checks are
/// always consulted by the search driver, because re-evaluating a graph
/// that reliably NaNs or times out is never useful.
#[derive(Debug, Clone, Default)]
pub struct CapacityRuleFilter {
    failures: Vec<CapacityVector>,
    quarantined: Vec<(u128, CapacityVector)>,
}

impl CapacityRuleFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        CapacityRuleFilter::default()
    }

    /// Number of recorded failures.
    pub fn len(&self) -> usize {
        self.failures.len()
    }

    /// True when no failures are recorded.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Recorded failures in insertion order (checkpointed search state).
    pub fn failures(&self) -> &[CapacityVector] {
        &self.failures
    }

    /// Rebuilds a filter from checkpointed failures and quarantine
    /// entries, preserving order (resume must replay bit-exactly).
    pub fn from_parts(
        failures: Vec<CapacityVector>,
        quarantined: Vec<(u128, CapacityVector)>,
    ) -> Self {
        CapacityRuleFilter {
            failures,
            quarantined,
        }
    }

    /// Quarantine entries in insertion order (checkpointed search state).
    pub fn quarantined(&self) -> &[(u128, CapacityVector)] {
        &self.quarantined
    }

    /// Adds a repeat offender to the quarantine list, keyed by its
    /// signature digest. Idempotent per digest so retried checkpoint
    /// replays cannot double-record.
    pub fn record_quarantine(&mut self, digest: u128, cv: CapacityVector) {
        if self.quarantined.iter().any(|(d, _)| *d == digest) {
            return;
        }
        self.quarantined.push((digest, cv));
    }

    /// Quarantine check: `Some(Quarantined)` when `digest` is itself
    /// quarantined, or when `cv` matches / is more aggressive than a
    /// quarantined candidate's capacity (the same §5.1 dominance rule,
    /// applied to evaluation failures instead of accuracy failures).
    pub fn quarantine_verdict(&self, digest: u128, cv: &CapacityVector) -> Option<FilterVerdict> {
        let hit = self
            .quarantined
            .iter()
            .any(|(d, q)| *d == digest || cv == q || cv.more_aggressive_than(q));
        hit.then_some(FilterVerdict::Quarantined)
    }

    /// Records a candidate that failed to meet the accuracy target.
    ///
    /// Dominated entries (failures that are themselves more aggressive
    /// than the new one) are pruned: the new, *less* aggressive failure
    /// subsumes them.
    pub fn record_failure(&mut self, cv: CapacityVector) {
        self.failures
            .retain(|old| !old.more_aggressive_than(&cv) && old != &cv);
        self.failures.push(cv);
    }

    /// Why `cv` would be skipped, or `None` when it passes the filter.
    /// An exact repeat is reported as [`FilterVerdict::ExactMatch`] even
    /// though it is also trivially "as aggressive as" the failure.
    pub fn verdict(&self, cv: &CapacityVector) -> Option<FilterVerdict> {
        if self.failures.iter().any(|f| cv == f) {
            return Some(FilterVerdict::ExactMatch);
        }
        if self.failures.iter().any(|f| cv.more_aggressive_than(f)) {
            return Some(FilterVerdict::MoreAggressive);
        }
        None
    }
}

/// Predictive early termination via learning-curve extrapolation.
///
/// Implements the paper's convergence-rate formula over four consecutive
/// validation accuracies `f(x), f(x+δ), f(x+2δ), f(x+3δ)`:
///
/// ```text
/// α = [log|f(x+2δ)-f(x+3δ)| - log|f(x+δ)-f(x+2δ)|]
///   / [log|f(x+δ)-f(x+2δ)| - log|f(x)-f(x+δ)|]
/// ```
///
/// With the estimated per-step contraction the remaining improvement is
/// extrapolated geometrically to the end of the budget.
#[derive(Debug, Clone, Default)]
pub struct ConvergencePredictor {
    history: Vec<f32>,
}

impl ConvergencePredictor {
    /// Creates an empty predictor.
    pub fn new() -> Self {
        ConvergencePredictor::default()
    }

    /// Appends a validation accuracy measurement.
    pub fn push(&mut self, accuracy: f32) {
        self.history.push(accuracy);
    }

    /// Number of measurements so far.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when no measurements have been recorded.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Estimates the per-step contraction ratio of successive improvement
    /// deltas from the last four measurements, or `None` when fewer than
    /// four measurements exist or the deltas are degenerate.
    pub(crate) fn contraction(&self) -> Option<f32> {
        let n = self.history.len();
        if n < 4 {
            return None;
        }
        let f = &self.history[n - 4..];
        let d0 = (f[1] - f[0]).abs();
        let d1 = (f[2] - f[1]).abs();
        let d2 = (f[3] - f[2]).abs();
        if d0 < 1e-7 || d1 < 1e-7 || d2 < 1e-7 {
            return None;
        }
        // For geometrically converging curves the paper's α is ≈ 1 and the
        // per-step contraction of the deltas is the quantity that drives
        // the extrapolation.
        Some((d2 / d1).clamp(0.0, 0.999))
    }

    /// Extrapolates the accuracy after `steps_left` more validation
    /// intervals; `None` when not enough history exists.
    pub(crate) fn predict_final(&self, steps_left: usize) -> Option<f32> {
        let r = self.contraction()?;
        let n = self.history.len();
        let last = self.history[n - 1];
        let prev = self.history[n - 2];
        let direction = (last - prev).signum();
        let mut delta = (last - prev).abs();
        let mut acc = last;
        for _ in 0..steps_left {
            delta *= r;
            acc += direction * delta;
        }
        Some(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cv(total: usize, tt: Vec<usize>, ts: Vec<usize>, shared: usize) -> CapacityVector {
        CapacityVector {
            total,
            per_task_total: tt,
            per_task_specific: ts,
            shared,
        }
    }

    #[test]
    fn rule_filter_skips_more_aggressive_candidates() {
        let mut f = CapacityRuleFilter::new();
        assert!(f.is_empty());
        f.record_failure(cv(100, vec![60, 70], vec![40, 50], 20));
        // More aggressive than the failure: skipped.
        assert!(f.verdict(&cv(80, vec![50, 60], vec![20, 30], 30)).is_some());
        // Less aggressive: not skipped.
        assert!(f
            .verdict(&cv(120, vec![70, 80], vec![60, 70], 10))
            .is_none());
        // The exact same configuration is skipped too.
        assert!(f
            .verdict(&cv(100, vec![60, 70], vec![40, 50], 20))
            .is_some());
    }

    #[test]
    fn verdict_distinguishes_rules() {
        let mut f = CapacityRuleFilter::new();
        f.record_failure(cv(100, vec![60, 70], vec![40, 50], 20));
        assert_eq!(
            f.verdict(&cv(100, vec![60, 70], vec![40, 50], 20)),
            Some(FilterVerdict::ExactMatch)
        );
        assert_eq!(
            f.verdict(&cv(80, vec![50, 60], vec![20, 30], 30)),
            Some(FilterVerdict::MoreAggressive)
        );
        assert_eq!(f.verdict(&cv(120, vec![70, 80], vec![60, 70], 10)), None);
    }

    #[test]
    fn rule_filter_prunes_dominated_failures() {
        let mut f = CapacityRuleFilter::new();
        f.record_failure(cv(80, vec![50, 60], vec![20, 30], 30));
        assert_eq!(f.len(), 1);
        // A less aggressive failure subsumes the earlier one.
        f.record_failure(cv(100, vec![60, 70], vec![40, 50], 20));
        assert_eq!(f.len(), 1);
        assert!(f.verdict(&cv(80, vec![50, 60], vec![20, 30], 30)).is_some());
    }

    #[test]
    fn rule_filter_never_skips_on_empty() {
        let f = CapacityRuleFilter::new();
        assert!(f.verdict(&cv(10, vec![10], vec![10], 0)).is_none());
    }

    #[test]
    fn quarantine_matches_signature_and_capacity() {
        let mut f = CapacityRuleFilter::new();
        assert_eq!(
            f.quarantine_verdict(1, &cv(10, vec![10], vec![10], 0)),
            None
        );
        f.record_quarantine(1, cv(100, vec![60, 70], vec![40, 50], 20));
        // Same digest, regardless of capacity.
        assert_eq!(
            f.quarantine_verdict(1, &cv(999, vec![900], vec![900], 0)),
            Some(FilterVerdict::Quarantined)
        );
        // Different digest, identical capacity.
        assert_eq!(
            f.quarantine_verdict(2, &cv(100, vec![60, 70], vec![40, 50], 20)),
            Some(FilterVerdict::Quarantined)
        );
        // Different digest, more aggressive sharing.
        assert_eq!(
            f.quarantine_verdict(3, &cv(80, vec![50, 60], vec![20, 30], 30)),
            Some(FilterVerdict::Quarantined)
        );
        // Less aggressive: passes.
        assert_eq!(
            f.quarantine_verdict(4, &cv(120, vec![70, 80], vec![60, 70], 10)),
            None
        );
        // Quarantine never leaks into the accuracy-failure rule.
        assert!(f
            .verdict(&cv(100, vec![60, 70], vec![40, 50], 20))
            .is_none());
    }

    #[test]
    fn quarantine_is_idempotent_and_checkpointable() {
        let mut f = CapacityRuleFilter::new();
        f.record_quarantine(1, cv(10, vec![10], vec![10], 0));
        f.record_quarantine(1, cv(10, vec![10], vec![10], 0));
        assert_eq!(f.quarantined().len(), 1);
        let restored =
            CapacityRuleFilter::from_parts(f.failures().to_vec(), f.quarantined().to_vec());
        assert_eq!(
            restored.quarantine_verdict(1, &cv(10, vec![10], vec![10], 0)),
            Some(FilterVerdict::Quarantined)
        );
    }

    #[test]
    fn predictor_needs_four_points() {
        let mut p = ConvergencePredictor::new();
        p.push(0.5);
        p.push(0.6);
        p.push(0.65);
        assert!(p.contraction().is_none());
        assert!(p.predict_final(10).is_none());
        p.push(0.675);
        assert!(p.contraction().is_some());
    }

    #[test]
    fn predictor_extrapolates_geometric_curves() {
        // accuracy(e) = 0.8 - 0.4 * 0.5^e converges to 0.8.
        let mut p = ConvergencePredictor::new();
        for e in 1..=4 {
            p.push(0.8 - 0.4 * 0.5f32.powi(e));
        }
        let r = p.contraction().unwrap();
        assert!((r - 0.5).abs() < 0.05, "r = {r}");
        let projected = p.predict_final(50).unwrap();
        assert!((projected - 0.8).abs() < 0.02, "projected {projected}");
    }

    #[test]
    fn predictor_identifies_hopeless_candidates() {
        // Converging to 0.70: a 0.78 target is unreachable.
        let mut p = ConvergencePredictor::new();
        for e in 1..=4 {
            p.push(0.70 - 0.3 * 0.6f32.powi(e));
        }
        let projected = p.predict_final(100).unwrap();
        assert!(projected < 0.75, "projected {projected}");
    }

    #[test]
    fn predictor_handles_flat_curves() {
        let mut p = ConvergencePredictor::new();
        for _ in 0..4 {
            p.push(0.5);
        }
        // Degenerate deltas: no prediction rather than a bogus one.
        assert!(p.contraction().is_none());
    }
}
