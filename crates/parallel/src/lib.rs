//! Dependency-free parallel executor for NN-Baton's exhaustive sweeps.
//!
//! The hermetic build has no rayon, so this crate provides the minimal
//! machinery the DSE hot loops need, on `std::thread::scope` alone:
//!
//! * [`map_chunks`] — a chunked work queue with an atomic cursor and an
//!   *ordered* reduce: results come back in chunk order, so a parallel sweep
//!   or search is bit-identical to the sequential one.
//! * [`AtomicBest`] — a shared "incumbent best score" encoded into one
//!   `AtomicU64`, the branch-and-bound bound of the parallel mapping search.
//! * [`TopK`] — the `k` lowest `(score, index)` entries offered, in any
//!   index order: the mapping search's ranking and the sweep's corner
//!   selection.
//! * [`threads`] / [`configure_threads`] — worker-count resolution:
//!   explicit `--threads N` override, then the `BATON_THREADS` environment
//!   variable, then `std::thread::available_parallelism()`.
//! * [`queue::BoundedQueue`] — a bounded, closeable MPMC hand-off for work
//!   that arrives from *outside* (HTTP requests in `baton serve`), where a
//!   full queue must shed load instead of buffering unboundedly.
//!
//! Determinism is the design constraint throughout: worker *scheduling* is
//! free, but every reduction is ordered by input index, so the thread count
//! can never change a result — only how fast it arrives.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use baton_telemetry::metrics::{self, kind, Family};
use baton_telemetry::span_labeled;
use baton_telemetry::trace;

use queue::QUEUE_DEPTH;

/// Gauge of workers currently inside a [`map_chunks`] scope, summed over
/// concurrent fan-outs.
const WORKERS: Family<kind::Gauge> = Family::gauge(
    "baton_parallel_workers",
    "Worker threads currently executing a parallel fan-out.",
);

/// The fan-out's series in the shared [`QUEUE_DEPTH`] family: chunks
/// not yet claimed by any worker (of the most recently progressed fan-out;
/// gauges are last-write-wins by design).
const FAN_OUT_QUEUE: &[(&str, &str)] = &[("queue", "fanout")];

/// Explicit thread-count override (0 = unset). Set once by the CLI from
/// `--threads`; everything downstream reads [`threads`].
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or clears, with `None`) the explicit worker-count override.
///
/// Thread counts never change results — only wall time — so this global is
/// safe to flip at any point; in-flight scopes keep the count they started
/// with.
pub fn configure_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// Parses a `BATON_THREADS`-style value: a positive integer, or `None` for
/// anything unusable (empty, zero, garbage).
pub fn parse_threads(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Resolves the worker count: the [`configure_threads`] override if set,
/// else `BATON_THREADS`, else the machine's available parallelism.
pub fn threads() -> usize {
    let explicit = OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("BATON_THREADS") {
        if let Some(n) = parse_threads(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Picks a work-queue chunk size for `items` units over `threads` workers:
/// small enough that the queue load-balances (several chunks per worker),
/// large enough that cursor traffic stays negligible.
pub fn chunk_size(items: usize, threads: usize) -> usize {
    if items == 0 {
        return 1;
    }
    (items / (threads.max(1) * 8)).clamp(1, 1024)
}

/// Applies `f` to every chunk of the index range `0..n`, in parallel over
/// `threads` workers, with **per-worker scratch**: `init()` runs once per
/// worker (once total on the sequential fast path) and the resulting state
/// is threaded through every chunk that worker claims. Returns one `R` per
/// chunk, **in chunk order**.
///
/// Work is handed out in `chunk`-sized runs of consecutive indices through a
/// shared atomic cursor; each worker writes a chunk's result into that
/// chunk's own slot, and the slots are read back in order after the join.
/// For any thread count and scheduling the output therefore equals the
/// sequential `chunks.map(|range| f(&mut scratch, range))` with a single
/// scratch. `f` receives each chunk as a range of indices, so the items need
/// not exist as a slice: callers address their own tables.
///
/// `f` runs under a `parallel_worker` telemetry span labeled `w<id>` so
/// profiles attribute time per worker. If the calling thread has a request
/// trace installed (see `baton_telemetry::trace`), that context is captured
/// once and re-installed in every worker, so worker-side spans attach to
/// the originating request's span tree. With one worker (or one chunk) the
/// sequential fast path runs on the calling thread, span-free; scratch
/// obtained from a thread-local pool in `init` then persists across calls
/// on that thread, which is what makes the steady-state allocation budget
/// hold at `--threads 1`.
pub fn map_chunks<R, S, I, F>(n: usize, threads: usize, chunk: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let chunk = chunk.max(1);
    let n_chunks = n.div_ceil(chunk);
    let workers = threads.max(1).min(n_chunks);
    if workers <= 1 || n_chunks <= 1 {
        let mut scratch = init();
        return (0..n_chunks)
            .map(|c| {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                f(&mut scratch, start..end)
            })
            .collect();
    }

    // Serving-mode occupancy gauges, chunk-grained. The layer's state is
    // read once so the workers gauge's rise and fall always pair, even if
    // the layer is switched on mid-fan-out.
    let observe = metrics::enabled();
    if observe {
        WORKERS.shift(&[], workers as f64);
        QUEUE_DEPTH.set(FAN_OUT_QUEUE, n_chunks as f64);
    }

    // One slot per chunk, written exactly once by whichever worker claimed
    // it; the lock is never contended.
    let slots: Vec<Mutex<Option<R>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Captured once on the calling thread; each worker re-installs it so
    // its spans land in the originating request's trace. Inert (one atomic
    // load) when tracing is off or no trace is active here.
    let fan_trace = trace::propagation();
    std::thread::scope(|s| {
        for w in 0..workers {
            let (slots, cursor, init, f, fan_trace) = (&slots, &cursor, &init, &f, &fan_trace);
            s.spawn(move || {
                // Context first, span second: the guard must outlive (and
                // therefore drop after) the worker span it parents.
                let _trace_ctx = fan_trace.install();
                let _worker_span = span_labeled("parallel_worker", || format!("w{w}"));
                let mut scratch = init();
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    if observe {
                        QUEUE_DEPTH.set(FAN_OUT_QUEUE, n_chunks.saturating_sub(c + 1) as f64);
                    }
                    let start = c * chunk;
                    let end = (start + chunk).min(n);
                    let out = f(&mut scratch, start..end);
                    *slots[c]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(out);
                }
            });
        }
    });
    if observe {
        WORKERS.shift(&[], -(workers as f64));
        QUEUE_DEPTH.set(FAN_OUT_QUEUE, 0.0);
    }
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every chunk slot is written exactly once")
        })
        .collect()
}

/// A shared minimization incumbent: the lowest `f64` score observed so far,
/// encoded into one `AtomicU64` so branch-and-bound workers can read and
/// tighten it without a lock.
///
/// The encoding maps the float total order onto the unsigned integer order
/// (sign-magnitude flip), so `fetch_min` on the bits *is* `min` on the
/// scores — including infinities; NaN scores are ignored by [`observe`].
///
/// The incumbent is monotonically non-increasing, which is what makes racy
/// reads safe for pruning: a stale (higher) value only prunes *less*.
///
/// [`observe`]: AtomicBest::observe
#[derive(Debug)]
pub struct AtomicBest(AtomicU64);

/// Monotone `f64 -> u64` key: preserves the IEEE-754 total order.
fn f64_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Inverse of [`f64_key`].
#[inline]
fn f64_unkey(k: u64) -> f64 {
    if k >> 63 == 1 {
        f64::from_bits(k & !(1 << 63))
    } else {
        f64::from_bits(!k)
    }
}

impl AtomicBest {
    /// Starts with no incumbent (`+inf`): everything beats it.
    pub fn new() -> Self {
        Self(AtomicU64::new(f64_key(f64::INFINITY)))
    }

    /// The current incumbent score (`+inf` until the first observation).
    /// Inlined across crates: the search's prune check reads it once per
    /// candidate.
    #[inline]
    pub fn get(&self) -> f64 {
        f64_unkey(self.0.load(Ordering::Relaxed))
    }

    /// Offers a score; returns `true` if it strictly improved the
    /// incumbent. NaN never improves.
    pub fn observe(&self, score: f64) -> bool {
        if score.is_nan() {
            return false;
        }
        let key = f64_key(score);
        self.0.fetch_min(key, Ordering::Relaxed) > key
    }
}

impl Default for AtomicBest {
    fn default() -> Self {
        Self::new()
    }
}

/// The `k` lowest `(score, index, item)` entries offered, ordered by
/// [`f64::total_cmp`] on the score with ties to the lower index: exactly
/// the first `k` of a stable sort of every offer by index, whatever order
/// the offers arrive in.
///
/// Storage grows on demand, so a caller-chosen `k` far above the offers
/// costs nothing up front; [`reset`](TopK::reset) keeps it for reuse.
#[derive(Debug)]
pub struct TopK<T> {
    k: usize,
    best: Vec<(f64, usize, T)>,
}

impl<T> Default for TopK<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T> TopK<T> {
    /// An empty selection of the `k` lowest.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            best: Vec::new(),
        }
    }

    /// Empties the selection for a new `k`, keeping its storage.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.best.clear();
    }

    /// Offers `item` at `(score, index)`. It is kept while fewer than `k`
    /// entries are held, or if it precedes the `k`-th, which it displaces.
    pub fn offer(&mut self, score: f64, index: usize, item: T) {
        let precedes =
            |(s, i, _): &(f64, usize, T)| s.total_cmp(&score).then(i.cmp(&index)).is_lt();
        // The common case, one comparison: a full selection whose `k`-th
        // entry precedes this offer (the index breaks score ties).
        if self.best.len() == self.k && self.best.last().is_none_or(precedes) {
            return;
        }
        self.best.truncate(self.k - 1);
        let at = self.best.partition_point(precedes);
        self.best.insert(at, (score, index, item));
    }

    /// The `k`-th lowest score held; `+inf` until `k` entries are held.
    pub fn kth(&self) -> f64 {
        match self.k.checked_sub(1).and_then(|i| self.best.get(i)) {
            Some(&(score, _, _)) => score,
            None => f64::INFINITY,
        }
    }

    /// The entries held, lowest first.
    pub fn entries(&self) -> &[(f64, usize, T)] {
        &self.best
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the tests that run [`map_chunks`] (and the queue gauge
    /// test in `queue.rs`): the occupancy test enables the process-global
    /// metrics registry, so a sibling fan-out running concurrently would
    /// mutate the same gauges and flake its exact-zero assertions (and see
    /// metrics flip off mid-run at reset).
    pub(crate) fn fan_out_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 16 "), Some(16));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("lots"), None);
        assert_eq!(parse_threads("-2"), None);
    }

    #[test]
    fn override_wins_and_clears() {
        configure_threads(Some(3));
        assert_eq!(threads(), 3);
        configure_threads(None);
        assert!(threads() >= 1);
    }

    #[test]
    fn chunk_size_is_bounded_and_positive() {
        assert_eq!(chunk_size(0, 8), 1);
        assert_eq!(chunk_size(7, 8), 1);
        assert_eq!(chunk_size(64_000, 4), 1024); // capped
        let c = chunk_size(1000, 4);
        assert!((1..=1024).contains(&c));
    }

    /// Per-item results through [`map_chunks`] the way the sweep uses it:
    /// no scratch, each chunk maps its items, chunks flattened in order.
    fn map_items<R: Send>(
        n: usize,
        threads: usize,
        chunk: usize,
        f: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        map_chunks(
            n,
            threads,
            chunk,
            || (),
            |(), range| range.map(&f).collect::<Vec<R>>(),
        )
        .into_iter()
        .flatten()
        .collect()
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let _guard = fan_out_lock();
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, v)| v * 3 + i as u64)
            .collect();
        for threads in [1, 2, 4, 7] {
            for chunk in [1, 3, 64, 2000] {
                let got = map_items(items.len(), threads, chunk, |i| items[i] * 3 + i as u64);
                assert_eq!(got, expect, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn map_chunks_handles_empty_and_singleton() {
        let _guard = fan_out_lock();
        let empty: Vec<u32> = vec![];
        assert!(map_items(empty.len(), 4, 8, |i| empty[i]).is_empty());
        let one = [42u32];
        assert_eq!(map_items(one.len(), 4, 8, |i| one[i] + i as u32), vec![42]);
    }

    #[test]
    fn map_chunks_actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        let _guard = fan_out_lock();
        let seen = Mutex::new(HashSet::new());
        map_items(256, 4, 1, |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        // On a single-core machine the scheduler may still serialize onto
        // one worker, but the scope must at least not run on the caller.
        assert!(!seen.lock().unwrap().contains(&std::thread::current().id()));
    }

    #[test]
    fn occupancy_gauges_settle_after_the_scope() {
        use baton_telemetry::metrics::SeriesValue;
        let _guard = fan_out_lock();
        metrics::enable();
        map_items(512, 4, 8, |i| i);
        let snap = baton_telemetry::metrics::registry().snapshot();
        let value = |name: &str| {
            snap.iter()
                .find(|f| f.name == name)
                .and_then(|f| f.series.first())
                .map(|(_, v)| v.clone())
        };
        let fanout_depth = snap
            .iter()
            .find(|f| f.name == QUEUE_DEPTH.name)
            .and_then(|f| {
                f.series
                    .iter()
                    .find(|(k, _)| k.iter().any(|(_, v)| v == "fanout"))
                    .map(|(_, v)| v.clone())
            });
        // Workers went up and came back down; the queue drained.
        assert_eq!(value(WORKERS.name), Some(SeriesValue::Gauge(0.0)));
        assert_eq!(fanout_depth, Some(SeriesValue::Gauge(0.0)));
        baton_telemetry::metrics::reset();
    }

    #[test]
    fn map_chunks_workers_record_into_the_callers_trace() {
        let _guard = fan_out_lock();
        trace::enable();
        let request = trace::TraceHandle::start();
        {
            let _ctx = request.install();
            let _fan = baton_telemetry::span("fan_out");
            map_items(64, 4, 4, |i| i * 2);
        }
        let done = request.finish("POST /map", 200);
        let fan = done.spans.iter().find(|s| s.name == "fan_out").unwrap();
        let workers: Vec<_> = done
            .spans
            .iter()
            .filter(|s| s.name == "parallel_worker")
            .collect();
        assert!(
            !workers.is_empty(),
            "worker spans must land in the request trace: {:?}",
            done.spans
        );
        for w in workers {
            assert_eq!(w.parent, fan.id, "worker spans nest under the fan-out");
            assert!(w.label.as_deref().unwrap_or("").starts_with('w'));
            // Worker spans carry allocation attribution captured on the
            // worker thread itself. This test binary does not install the
            // counting allocator, so the deltas must be exactly zero — the
            // inert ledger never invents churn. (The `baton` binary does
            // install it; tests/serve.rs asserts the live nonzero case.)
            assert_eq!((w.net_allocs, w.net_bytes), (0, 0));
        }
    }

    #[test]
    fn map_chunks_matches_the_sequential_reference() {
        let _guard = fan_out_lock();
        let items: Vec<u64> = (0..997).map(|i| i * 7 % 113).collect();
        // Reference: one scratch, chunks in order. The scratch accumulates
        // across chunks *on one worker*, so only scratch-independent outputs
        // are deterministic across thread counts — model that: the result
        // depends on (start, slice) alone, the scratch only proves reuse.
        let reference = |chunk: usize| -> Vec<u64> {
            items
                .chunks(chunk)
                .enumerate()
                .map(|(c, s)| s.iter().sum::<u64>() + (c * chunk) as u64)
                .collect()
        };
        for threads in [1, 2, 4, 7] {
            for chunk in [1, 3, 64, 2000] {
                let got = map_chunks(
                    items.len(),
                    threads,
                    chunk,
                    Vec::<u64>::new,
                    |scratch, range| {
                        scratch.clear();
                        scratch.extend_from_slice(&items[range.clone()]);
                        scratch.iter().sum::<u64>() + range.start as u64
                    },
                );
                assert_eq!(got, reference(chunk.max(1)), "t={threads} c={chunk}");
            }
        }
    }

    #[test]
    fn map_chunks_inits_scratch_once_per_worker() {
        let _guard = fan_out_lock();
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..256).collect();
        // Sequential fast path: exactly one scratch.
        inits.store(0, Ordering::Relaxed);
        map_chunks(
            items.len(),
            1,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, range| range.len(),
        );
        assert_eq!(inits.load(Ordering::Relaxed), 1);
        // Parallel: at most one scratch per worker, far fewer than chunks.
        inits.store(0, Ordering::Relaxed);
        let n_results = map_chunks(
            items.len(),
            4,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, range| range.len(),
        )
        .len();
        assert_eq!(n_results, 32);
        assert!(inits.load(Ordering::Relaxed) <= 4);
    }

    #[test]
    fn map_chunks_handles_empty_input_without_init() {
        let _guard = fan_out_lock();
        let inits = AtomicUsize::new(0);
        let out = map_chunks(
            0,
            4,
            8,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, range| range.len(),
        );
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn atomic_best_tightens_monotonically() {
        let best = AtomicBest::new();
        assert_eq!(best.get(), f64::INFINITY);
        assert!(best.observe(10.0));
        assert!(!best.observe(11.0), "worse score must not improve");
        assert!(best.observe(2.5));
        assert_eq!(best.get(), 2.5);
        assert!(!best.observe(2.5), "equal score is not an improvement");
        assert!(!best.observe(f64::NAN));
        assert_eq!(best.get(), 2.5);
    }

    #[test]
    fn f64_key_is_order_preserving() {
        let vals = [
            f64::NEG_INFINITY,
            -1.0e300,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1.0e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(f64_key(w[0]) <= f64_key(w[1]), "{} vs {}", w[0], w[1]);
        }
        for v in vals {
            assert_eq!(f64_unkey(f64_key(v)), v);
        }
    }

    #[test]
    fn concurrent_observers_agree_on_the_minimum() {
        let _guard = fan_out_lock();
        let best = AtomicBest::new();
        let scores: Vec<f64> = (0..1000).map(|i| ((i * 7919) % 1000) as f64).collect();
        map_items(scores.len(), 4, 16, |i| {
            best.observe(scores[i]);
        });
        assert_eq!(best.get(), 0.0);
    }

    /// Every offer stable-sorted by `(score, index)`, first `k`: the
    /// selection [`TopK`] must equal.
    fn sorted_prefix(offers: &[(f64, usize)], k: usize) -> Vec<(u64, usize)> {
        let mut all = offers.to_vec();
        all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        all.iter().take(k).map(|&(s, i)| (s.to_bits(), i)).collect()
    }

    #[test]
    fn top_k_equals_the_sorted_prefix_in_any_offer_order() {
        // Heavy ties (four score values), a NaN and signed zeros, offered
        // in index order, reversed and interleaved as racing workers would.
        let mut scores: Vec<f64> = (0..40).map(|i| f64::from((i * 7) % 4)).collect();
        scores.extend([f64::NAN, -0.0, 0.0, f64::INFINITY]);
        let offers: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
        let orders: [Vec<usize>; 3] = [
            (0..offers.len()).collect(),
            (0..offers.len()).rev().collect(),
            (0..offers.len()).map(|i| (i * 17) % offers.len()).collect(),
        ];
        for order in &orders {
            for k in [0, 1, 2, 3, 10, offers.len(), offers.len() + 5] {
                let mut top = TopK::new(k);
                for &j in order {
                    top.offer(offers[j].0, offers[j].1, j);
                }
                let got: Vec<(u64, usize)> = top
                    .entries()
                    .iter()
                    .map(|&(s, i, _)| (s.to_bits(), i))
                    .collect();
                assert_eq!(got, sorted_prefix(&offers, k), "k {k}, order {order:?}");
                assert!(top.entries().iter().all(|&(_, i, j)| i == j));
            }
        }
    }

    #[test]
    fn top_k_kth_is_infinite_until_full_and_reset_empties() {
        let mut top = TopK::new(2);
        assert_eq!(top.kth(), f64::INFINITY);
        top.offer(5.0, 1, ());
        assert_eq!(top.kth(), f64::INFINITY, "one entry of two");
        top.offer(7.0, 0, ());
        assert_eq!(top.kth(), 7.0);
        top.offer(5.0, 0, ());
        assert_eq!(top.kth(), 5.0, "the lower index wins the tie");
        assert_eq!(top.entries()[0].1, 0);
        top.reset(1);
        assert!(top.entries().is_empty());
        assert_eq!(top.kth(), f64::INFINITY);
        assert_eq!(TopK::<()>::default().kth(), f64::INFINITY);
    }
}
