//! Layer-shape memoization: evaluate each distinct conv shape once per
//! machine configuration.
//!
//! Real networks repeat shapes heavily — ResNet-50's 53 conv layers collapse
//! to ~20 distinct `(HI, WI, CI, K, stride, pad, CO, groups)` tuples — so a
//! whole-model search re-derives the same best mapping again and again. A
//! [`ShapeMemo`] keyed by [`baton_model::ShapeKey`] shares those results.
//!
//! The memo is deliberately *per run*, not global: a cached value is only
//! valid for the exact `(PackageConfig, Technology, Objective, EnumOptions)`
//! it was computed under, and `Technology` carries `f64` fields that make a
//! robust composite key unattractive. Callers create one memo per machine
//! configuration (one per `map_model` call, one per sweep geometry) and let
//! it drop with the run.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::sync::{Arc, Mutex};

use baton_arch::{PackageConfig, Technology};
use baton_mapping::enumerate::EnumOptions;
use baton_model::{ConvSpec, ShapeKey};
use baton_telemetry::{count, Counter};

use crate::evaluate::Evaluation;
use crate::search::{search_layer_with, Objective, SearchError};

const SHARDS: usize = 8;

/// A concurrent shape-keyed cache, sharded to keep lock contention off the
/// parallel search path.
///
/// Values are computed *outside* the shard lock, so two workers racing on
/// the same fresh key may both compute; the first insert wins and both get
/// the same [`Arc`]. That trade keeps a slow search from blocking every
/// other lookup that happens to hash into its shard.
pub struct ShapeMemo<V> {
    shards: [Mutex<HashMap<ShapeKey, Arc<V>>>; SHARDS],
    hasher: RandomState,
}

impl<V> ShapeMemo<V> {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hasher: RandomState::new(),
        }
    }

    fn shard(&self, key: &ShapeKey) -> &Mutex<HashMap<ShapeKey, Arc<V>>> {
        &self.shards[(self.hasher.hash_one(key) as usize) % SHARDS]
    }

    /// Returns the cached value for `key`, or computes, caches and returns
    /// it. Counts a telemetry [`Counter::CacheHit`] or [`Counter::CacheMiss`].
    pub fn get_or_insert_with(&self, key: ShapeKey, compute: impl FnOnce() -> V) -> Arc<V> {
        let shard = self.shard(&key);
        if let Some(v) = lock(shard).get(&key) {
            count(Counter::CacheHit);
            return Arc::clone(v);
        }
        count(Counter::CacheMiss);
        let fresh = Arc::new(compute());
        Arc::clone(lock(shard).entry(key).or_insert(fresh))
    }

    /// Number of cached shapes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the memo holds nothing yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl<V> Default for ShapeMemo<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> fmt::Debug for ShapeMemo<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShapeMemo")
            .field("shapes", &self.len())
            .finish()
    }
}

/// The memo type the post-design flow shares across layers: one search
/// outcome per distinct shape.
pub type SearchMemo = ShapeMemo<Result<Evaluation, SearchError>>;

/// [`search_layer_with`] through a [`SearchMemo`]: the first layer of each
/// shape runs the full branch-and-bound search; repeats are served from the
/// cache.
///
/// The cached result is shape-level, so a cached [`SearchError`] reports the
/// *first-seen* layer's name and an [`Evaluation`] served from cache carries
/// the mapping found for that first layer — identical for any same-shape
/// layer by construction.
///
/// # Errors
///
/// Returns [`SearchError`] if every candidate is infeasible on this machine.
pub fn search_layer_memo(
    memo: &SearchMemo,
    layer: &ConvSpec,
    arch: &PackageConfig,
    tech: &Technology,
    objective: Objective,
    opts: EnumOptions,
) -> Result<Evaluation, SearchError> {
    let out = memo.get_or_insert_with(layer.shape_key(), || {
        search_layer_with(layer, arch, tech, objective, opts)
    });
    Result::clone(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baton_arch::presets;
    use baton_model::zoo;

    #[test]
    fn memo_computes_once_per_key() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let memo: ShapeMemo<u32> = ShapeMemo::new();
        let runs = AtomicU32::new(0);
        let a = zoo::vgg16(224).layer("conv1_1").cloned().unwrap();
        let b = zoo::vgg16(224).layer("conv1_2").cloned().unwrap(); // different shape
        for _ in 0..3 {
            memo.get_or_insert_with(a.shape_key(), || runs.fetch_add(1, Ordering::Relaxed));
        }
        memo.get_or_insert_with(b.shape_key(), || runs.fetch_add(1, Ordering::Relaxed));
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        assert_eq!(memo.len(), 2);
        assert!(!memo.is_empty());
    }

    #[test]
    fn memoized_search_matches_the_direct_search() {
        let arch = presets::case_study_accelerator();
        let tech = Technology::paper_16nm();
        let memo = SearchMemo::new();
        // res2a_branch2b and res2b_branch2b share a shape in ResNet-50.
        let model = zoo::resnet50(224);
        let first = model.layer("res2a_branch2b").cloned().unwrap();
        let repeat = model.layer("res2b_branch2b").cloned().unwrap();
        assert_eq!(first.shape_key(), repeat.shape_key());

        let direct = search_layer_with(
            &first,
            &arch,
            &tech,
            Objective::Energy,
            EnumOptions::default(),
        )
        .unwrap();
        let via_a = search_layer_memo(
            &memo,
            &first,
            &arch,
            &tech,
            Objective::Energy,
            EnumOptions::default(),
        )
        .unwrap();
        let via_b = search_layer_memo(
            &memo,
            &repeat,
            &arch,
            &tech,
            Objective::Energy,
            EnumOptions::default(),
        )
        .unwrap();
        assert_eq!(direct, via_a);
        assert_eq!(via_a, via_b, "repeat shape must be served from cache");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn concurrent_lookups_agree() {
        let memo: ShapeMemo<u64> = ShapeMemo::new();
        let layers: Vec<_> = zoo::resnet50(224).layers().to_vec();
        let outs = baton_parallel::map_chunks(
            layers.len(),
            4,
            2,
            || (),
            |(), range| {
                layers[range]
                    .iter()
                    .map(|l| *memo.get_or_insert_with(l.shape_key(), || l.macs()))
                    .collect::<Vec<_>>()
            },
        );
        let outs = outs.into_iter().flatten();
        for (l, got) in layers.iter().zip(outs) {
            assert_eq!(got, l.macs());
        }
        let distinct: std::collections::HashSet<_> = layers.iter().map(|l| l.shape_key()).collect();
        assert_eq!(memo.len(), distinct.len());
    }
}
