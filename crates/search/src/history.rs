//! The History Database: evaluated candidates and elite models.
//!
//! The Graph Mutator "saves abstract graphs and model weights in its
//! History Database" (§3). Elites are candidates that met the accuracy
//! target; they are the mutation bases exploitation draws from, and their
//! well-trained weights seed the mutations' initialization (§2.2.2).

use gmorph_graph::{AbsGraph, WeightStore};
use std::collections::HashSet;
use std::sync::OnceLock;

/// A candidate that met the accuracy target.
///
/// An elite never changes once built: its fields are private to this
/// crate, which only reads them, and `History::add_elite` replaces an
/// evicted elite whole. So a checkpoint encodes each elite once, caches
/// the record on the elite, and copies it into every later snapshot.
#[derive(Debug, Clone)]
pub struct Elite {
    /// Mini-scale (trainable) abstract graph.
    pub(crate) mini: AbsGraph,
    /// Paper-scale (estimation) abstract graph, node-id aligned with
    /// `mini`.
    pub(crate) paper: AbsGraph,
    /// Well-trained weights of the mini-scale model.
    pub(crate) weights: WeightStore,
    /// Accuracy drop achieved after fine-tuning.
    pub(crate) drop: f32,
    /// Optimized-metric value (paper-scale estimated latency, ms).
    pub(crate) latency_ms: f64,
    /// Per-task scores after fine-tuning.
    pub(crate) scores: Vec<f32>,
    /// This elite's checkpoint record, filled by the first snapshot that
    /// holds it (see `checkpoint::put_elite`); empty while checkpointing
    /// is off.
    pub(crate) record: OnceLock<Vec<u8>>,
}

impl Elite {
    /// An elite with no cached checkpoint record yet.
    pub fn new(
        mini: AbsGraph,
        paper: AbsGraph,
        weights: WeightStore,
        drop: f32,
        latency_ms: f64,
        scores: Vec<f32>,
    ) -> Elite {
        Elite {
            mini,
            paper,
            weights,
            drop,
            latency_ms,
            scores,
            record: OnceLock::new(),
        }
    }

    /// Accuracy drop achieved after fine-tuning.
    pub fn accuracy_drop(&self) -> f32 {
        self.drop
    }

    /// Optimized-metric value (paper-scale estimated latency, ms).
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }
}

/// Evaluated-candidate and elite bookkeeping.
///
/// Evaluated candidates are remembered by their 128-bit signature digest
/// ([`AbsGraph::digest`]), not by the signature text.
#[derive(Debug, Clone)]
pub struct History {
    pub(crate) evaluated: HashSet<u128>,
    /// In insertion order: the sampling policy indexes into the list with
    /// the run's RNG, so order is part of the deterministic-replay state.
    pub(crate) elites: Vec<Elite>,
    pub(crate) max_elites: usize,
}

impl History {
    /// Creates a history with the given elite-list capacity (paper: 16).
    pub fn new(max_elites: usize) -> Self {
        History {
            evaluated: HashSet::new(),
            elites: Vec::new(),
            max_elites: max_elites.max(1),
        }
    }

    /// Number of elites currently held.
    pub fn elite_count(&self) -> usize {
        self.elites.len()
    }

    /// Read access to the elites.
    pub fn elites(&self) -> &[Elite] {
        &self.elites
    }

    /// Records a candidate's signature digest; returns false when it was
    /// already evaluated (the caller should skip it).
    pub(crate) fn record_evaluated(&mut self, digest: u128) -> bool {
        self.evaluated.insert(digest)
    }

    /// True when a candidate with this signature digest was evaluated
    /// before.
    pub(crate) fn seen(&self, digest: u128) -> bool {
        self.evaluated.contains(&digest)
    }

    /// Evaluated signature digests in sorted order.
    ///
    /// The dedup set is order-free (membership only), so sorting gives a
    /// canonical serialization for checkpoints.
    pub(crate) fn evaluated_digests(&self) -> Vec<u128> {
        let mut digests: Vec<u128> = self.evaluated.iter().copied().collect();
        digests.sort_unstable();
        digests
    }

    /// Adds an elite, evicting the slowest one when full.
    pub(crate) fn add_elite(&mut self, elite: Elite) {
        if self.elites.len() >= self.max_elites {
            // Keep the list focused on the fastest satisfying models.
            if let Some((worst_idx, worst)) = self.elites.iter().enumerate().max_by(|a, b| {
                a.1.latency_ms
                    .partial_cmp(&b.1.latency_ms)
                    .unwrap_or(std::cmp::Ordering::Equal)
            }) {
                if worst.latency_ms > elite.latency_ms {
                    self.elites[worst_idx] = elite;
                }
                return;
            }
        }
        self.elites.push(elite);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmorph_data::TaskSpec;

    fn elite(latency: f64) -> Elite {
        let g = AbsGraph::new(vec![3, 8, 8], vec![TaskSpec::classification("t", 2)]);
        Elite::new(g.clone(), g, WeightStore::new(), 0.0, latency, vec![0.9])
    }

    #[test]
    fn dedup_by_signature() {
        let mut h = History::new(4);
        assert!(h.record_evaluated(0xA));
        assert!(!h.record_evaluated(0xA));
        assert!(h.seen(0xA));
        assert!(!h.seen(0xB));
        assert_eq!(h.evaluated.len(), 1);
    }

    #[test]
    fn elites_grow_until_capacity() {
        let mut h = History::new(3);
        for i in 0..3 {
            h.add_elite(elite(i as f64));
        }
        assert_eq!(h.elite_count(), 3);
        assert_eq!(h.max_elites, 3);
    }

    #[test]
    fn elite_capacity_evicts_slowest() {
        let mut h = History::new(2);
        h.add_elite(elite(5.0));
        h.add_elite(elite(3.0));
        assert_eq!(h.elite_count(), 2);
        // A faster elite replaces the 5.0 one.
        h.add_elite(elite(1.0));
        assert_eq!(h.elite_count(), 2);
        let lats: Vec<f64> = h.elites().iter().map(|e| e.latency_ms).collect();
        assert!(lats.contains(&1.0) && lats.contains(&3.0));
        // A slower elite is rejected when full.
        h.add_elite(elite(9.0));
        assert!(!h.elites().iter().any(|e| e.latency_ms == 9.0));
    }
}
