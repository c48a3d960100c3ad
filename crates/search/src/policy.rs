//! Sampling policies (§4.3.1).

use gmorph_tensor::rng::Rng;

/// Which sampling policy a search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's simulated-annealing policy: explore from the original
    /// graph early, exploit elite candidates late.
    SimulatedAnnealing,
    /// The §6.4 baseline: always mutate the original multi-DNN graph.
    RandomSampling,
}

/// The simulated-annealing sampling state.
///
/// The paper updates the elite-sampling probability as
/// `p = (1 − exp(−(1−Δ)/τ)) · sqrt(Nc/Ni)` with temperature
/// `Tc = Ti · α^iter` (α = 0.99, Ti = 90, Ni = 16). We use the
/// dimensionless temperature `τ = Tc/Ti = α^iter` inside the exponent:
/// with the printed `Tc·Ti` denominator the exponent stays ≈ 1e-4 for the
/// whole run and the policy would essentially never exploit elites, which
/// contradicts the stated design ("in the later iterations, the policy
/// tends to find base abs-graphs from the elite candidates"). With the
/// normalized temperature, `p` starts near 0 (no elites, high τ) and
/// approaches `sqrt(Nc/Ni)` ≈ 1 as the temperature decays — the intended
/// explore-to-exploit schedule.
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    /// Initial temperature `Ti` (paper: 90).
    pub initial_temp: f32,
    /// Cooling constant `α` (paper: 0.99).
    pub alpha: f32,
    /// Elite-list capacity `Ni` (paper: 16).
    pub max_elites: usize,
    /// Most recent fine-tuning accuracy drop `Δ`.
    last_drop: f32,
}

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing {
            initial_temp: 90.0,
            alpha: 0.99,
            max_elites: 16,
            last_drop: 0.0,
        }
    }
}

impl SimulatedAnnealing {
    /// Creates the policy with the paper's constants.
    pub fn new() -> Self {
        SimulatedAnnealing::default()
    }

    /// Records the accuracy drop of the latest evaluated candidate.
    pub(crate) fn observe_drop(&mut self, drop: f32) {
        self.last_drop = drop.clamp(0.0, 1.0);
    }

    /// The most recent observed drop `Δ` (checkpointed search state).
    pub(crate) fn last_drop(&self) -> f32 {
        self.last_drop
    }

    /// Restores the observed drop bit-exactly from a checkpoint.
    pub(crate) fn restore_last_drop(&mut self, drop: f32) {
        self.last_drop = drop;
    }

    /// Current temperature `Tc = Ti · α^iter`.
    pub(crate) fn temperature(&self, iter: usize) -> f32 {
        self.initial_temp * self.alpha.powi(iter as i32)
    }

    /// Probability of sampling an elite as the base graph at `iter` with
    /// `n_elites` elites recorded.
    pub(crate) fn elite_probability(&self, iter: usize, n_elites: usize) -> f32 {
        if n_elites == 0 {
            return 0.0;
        }
        let tau = (self.temperature(iter) / self.initial_temp).max(1e-6);
        let explore = 1.0 - (-(1.0 - self.last_drop) / tau).exp();
        let fill = ((n_elites.min(self.max_elites)) as f32 / self.max_elites as f32).sqrt();
        (explore * fill).clamp(0.0, 1.0)
    }

    /// Decides whether to draw the base from the elites this iteration.
    pub(crate) fn sample_from_elites(&self, iter: usize, n_elites: usize, rng: &mut Rng) -> bool {
        rng.coin(self.elite_probability(iter, n_elites))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temperature_decays() {
        let p = SimulatedAnnealing::new();
        assert!((p.temperature(0) - 90.0).abs() < 1e-4);
        assert!(p.temperature(100) < p.temperature(10));
        assert!(p.temperature(200) > 0.0);
    }

    #[test]
    fn probability_zero_without_elites() {
        let p = SimulatedAnnealing::new();
        assert_eq!(p.elite_probability(50, 0), 0.0);
    }

    #[test]
    fn probability_grows_with_iterations() {
        let p = SimulatedAnnealing::new();
        let early = p.elite_probability(0, 8);
        let late = p.elite_probability(200, 8);
        assert!(late > early, "{late} !> {early}");
    }

    #[test]
    fn probability_grows_with_elite_count() {
        let p = SimulatedAnnealing::new();
        let few = p.elite_probability(100, 2);
        let many = p.elite_probability(100, 16);
        assert!(many > few);
    }

    #[test]
    fn probability_bounded_and_monotone_in_fill() {
        let mut p = SimulatedAnnealing::new();
        p.observe_drop(0.5);
        for iter in [0usize, 50, 100, 200, 400] {
            for n in 0..=16 {
                let prob = p.elite_probability(iter, n);
                assert!((0.0..=1.0).contains(&prob));
            }
        }
        // Elite counts above capacity saturate.
        assert_eq!(
            p.elite_probability(100, 16),
            p.elite_probability(100, 40)
        );
    }

    #[test]
    fn higher_drop_lowers_probability() {
        let mut good = SimulatedAnnealing::new();
        good.observe_drop(0.0);
        let mut bad = SimulatedAnnealing::new();
        bad.observe_drop(0.9);
        assert!(bad.elite_probability(150, 8) < good.elite_probability(150, 8));
    }

    #[test]
    fn sampling_respects_probability() {
        let p = SimulatedAnnealing::new();
        let mut rng = Rng::new(0);
        // Late iterations with a full elite list: should mostly exploit.
        let hits = (0..500)
            .filter(|_| p.sample_from_elites(300, 16, &mut rng))
            .count();
        assert!(hits > 350, "hits = {hits}");
    }
}
