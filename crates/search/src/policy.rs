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
    /// Cooling constant `α` (paper: 0.99).
    pub alpha: f32,
}

/// Initial temperature `Ti` (paper: 90).
pub const INITIAL_TEMP: f32 = 90.0;
/// Elite-list capacity `Ni` (paper: 16).
pub const MAX_ELITES: usize = 16;

impl Default for SimulatedAnnealing {
    fn default() -> Self {
        SimulatedAnnealing { alpha: 0.99 }
    }
}

impl SimulatedAnnealing {
    /// Creates the policy with the paper's constants.
    pub fn new() -> Self {
        SimulatedAnnealing::default()
    }

    /// Current temperature `Tc = Ti · α^iter`.
    pub(crate) fn temperature(&self, iter: usize) -> f32 {
        INITIAL_TEMP * self.alpha.powi(iter as i32)
    }

    /// Probability of sampling an elite as the base graph at `iter` with
    /// `n_elites` elites recorded, after the latest evaluated candidate
    /// dropped accuracy by `last_drop` (`Δ`, in `[0, 1]`).
    pub(crate) fn elite_probability(&self, iter: usize, n_elites: usize, last_drop: f32) -> f32 {
        if n_elites == 0 {
            return 0.0;
        }
        let tau = (self.temperature(iter) / INITIAL_TEMP).max(1e-6);
        let explore = 1.0 - (-(1.0 - last_drop) / tau).exp();
        let fill = ((n_elites.min(MAX_ELITES)) as f32 / MAX_ELITES as f32).sqrt();
        (explore * fill).clamp(0.0, 1.0)
    }

    /// Decides whether to draw the base from the elites this iteration.
    pub(crate) fn sample_from_elites(
        &self,
        iter: usize,
        n_elites: usize,
        last_drop: f32,
        rng: &mut Rng,
    ) -> bool {
        rng.coin(self.elite_probability(iter, n_elites, last_drop))
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
        assert_eq!(p.elite_probability(50, 0, 0.0), 0.0);
    }

    #[test]
    fn probability_grows_with_iterations() {
        let p = SimulatedAnnealing::new();
        let early = p.elite_probability(0, 8, 0.0);
        let late = p.elite_probability(200, 8, 0.0);
        assert!(late > early, "{late} !> {early}");
    }

    #[test]
    fn probability_grows_with_elite_count() {
        let p = SimulatedAnnealing::new();
        let few = p.elite_probability(100, 2, 0.0);
        let many = p.elite_probability(100, 16, 0.0);
        assert!(many > few);
    }

    #[test]
    fn probability_bounded_and_monotone_in_fill() {
        let p = SimulatedAnnealing::new();
        for iter in [0usize, 50, 100, 200, 400] {
            for n in 0..=16 {
                let prob = p.elite_probability(iter, n, 0.5);
                assert!((0.0..=1.0).contains(&prob));
            }
        }
        // Elite counts above capacity saturate.
        assert_eq!(
            p.elite_probability(100, 16, 0.5),
            p.elite_probability(100, 40, 0.5)
        );
    }

    #[test]
    fn higher_drop_lowers_probability() {
        let p = SimulatedAnnealing::new();
        assert!(p.elite_probability(150, 8, 0.9) < p.elite_probability(150, 8, 0.0));
    }

    #[test]
    fn sampling_respects_probability() {
        let p = SimulatedAnnealing::new();
        let mut rng = Rng::new(0);
        // Late iterations with a full elite list: should mostly exploit.
        let hits = (0..500)
            .filter(|_| p.sample_from_elites(300, 16, 0.0, &mut rng))
            .count();
        assert!(hits > 350, "hits = {hits}");
    }
}
