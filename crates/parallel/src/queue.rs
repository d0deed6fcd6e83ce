//! A bounded MPMC work queue with close semantics and depth gauges.
//!
//! [`map_chunks`](crate::map_chunks) hands out *indices* through an atomic
//! cursor because its work set is known up front. A serving process has the
//! opposite shape: work arrives from outside at an unpredictable rate and
//! must be **refused** — not buffered without limit — once the system is
//! saturated. [`BoundedQueue`] is that admission point: `push` never blocks
//! (a full queue is the caller's signal to shed load), `pop` blocks until
//! work or close, and the current depth is exported as the
//! `baton_parallel_queue_depth{queue="<name>"}` gauge so saturation is
//! visible on `/metrics` before the first rejection.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use baton_telemetry::metrics::{kind, Family};
use baton_telemetry::trace;

/// Gauge family shared with [`map_chunks`](crate::map_chunks)'s fan-out
/// depth series; each queue instance owns one `queue="<name>"` series.
pub const QUEUE_DEPTH: Family<kind::Gauge> = Family::gauge(
    "baton_parallel_queue_depth",
    "Unclaimed items in a bounded parallel work queue, by queue name.",
);

/// A queue item bundled with its hand-off context: the producer's trace
/// propagation (so request-scoped spans recorded by the consumer attach to
/// the originating request — see `baton_telemetry::trace`) and the enqueue
/// instant (so the consumer can attribute queue wait).
///
/// Producers wrap work in [`Handoff::new`] before
/// [`BoundedQueue::push`]; consumers unwrap with [`Handoff::into_parts`]
/// and install the propagation for the item's lifetime. When tracing is
/// disabled the capture is one relaxed atomic load.
#[derive(Debug)]
pub struct Handoff<T> {
    item: T,
    trace: trace::Propagation,
    enqueued: Instant,
}

impl<T> Handoff<T> {
    /// Wraps `item`, capturing the calling thread's trace context and the
    /// current instant as the enqueue time.
    pub fn new(item: T) -> Self {
        Handoff {
            item,
            trace: trace::propagation(),
            enqueued: Instant::now(),
        }
    }

    /// When the item was wrapped for the queue.
    pub fn enqueued(&self) -> Instant {
        self.enqueued
    }

    /// Unwraps into `(item, producer trace context, enqueue instant)`.
    pub fn into_parts(self) -> (T, trace::Propagation, Instant) {
        (self.item, self.trace, self.enqueued)
    }
}

/// Why a [`BoundedQueue::push`] was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item comes back to the caller, who
    /// should shed load (HTTP 429, drop, retry later).
    Full(T),
    /// The queue was closed; no further work is accepted.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer queue (`Mutex` + `Condvar`, no
/// external dependencies) for handing work to a fixed pool of consumers.
///
/// * [`push`](Self::push) is non-blocking: it refuses instead of waiting,
///   so a producer (an HTTP acceptor, say) can answer back-pressure
///   immediately.
/// * [`pop`](Self::pop) blocks until an item arrives or the queue is
///   [`close`](Self::close)d *and* drained — consumers exit cleanly on
///   `None` without a sentinel item.
/// * Depth is mirrored into [`QUEUE_DEPTH`] under this queue's name
///   whenever the metrics layer is enabled.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
    name: &'static str,
}

impl<T> BoundedQueue<T> {
    /// An empty queue holding at most `capacity` items (minimum 1), whose
    /// depth gauge renders as `queue="<name>"`.
    pub fn new(capacity: usize, name: &'static str) -> Self {
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            name,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn gauge(&self, depth: usize) {
        QUEUE_DEPTH.set(&[("queue", self.name)], depth as f64);
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently queued (racy by nature; for observability only).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Offers an item without blocking. On refusal the item is handed back
    /// so the producer can answer the source (e.g. with an HTTP 429).
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](Self::close).
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let depth = {
            let mut inner = self.lock();
            if inner.closed {
                return Err(PushError::Closed(item));
            }
            if inner.items.len() >= self.capacity {
                return Err(PushError::Full(item));
            }
            inner.items.push_back(item);
            inner.items.len()
        };
        self.gauge(depth);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns `None`
    /// once the queue is closed **and** empty — the consumer's signal to
    /// exit. Items pushed before [`close`](Self::close) are always drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                let depth = inner.items.len();
                drop(inner);
                self.gauge(depth);
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Stops accepting new items and wakes every blocked consumer; already
    /// queued items still drain through [`pop`](Self::pop).
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// True once [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_preserves_fifo_order() {
        let q = BoundedQueue::new(8, "test");
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.depth(), 5);
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_queue_refuses_and_returns_the_item() {
        let q = BoundedQueue::new(2, "test");
        q.push("a").unwrap();
        q.push("b").unwrap();
        assert_eq!(q.push("c"), Err(PushError::Full("c")));
        assert_eq!(q.pop(), Some("a"));
        q.push("c").unwrap();
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), Some("c"));
    }

    #[test]
    fn capacity_zero_is_clamped_to_one() {
        let q = BoundedQueue::new(0, "test");
        assert_eq!(q.capacity(), 1);
        q.push(1).unwrap();
        assert_eq!(q.push(2), Err(PushError::Full(2)));
    }

    #[test]
    fn close_drains_queued_items_then_yields_none() {
        let q = BoundedQueue::new(4, "test");
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushError::Closed(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(q.is_closed());
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q = BoundedQueue::<u32>::new(4, "test");
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3).map(|_| s.spawn(|| q.pop())).collect();
            // Consumers are (eventually) parked in `pop`; close must free
            // them all without any item arriving.
            std::thread::sleep(std::time::Duration::from_millis(20));
            q.close();
            for c in consumers {
                assert_eq!(c.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = BoundedQueue::new(16, "test");
        let produced = 4 * 200;
        let consumed = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                s.spawn(move || {
                    let mut sent = 0;
                    while sent < 200 {
                        match q.push(t * 1000 + sent) {
                            Ok(()) => sent += 1,
                            Err(PushError::Full(_)) => std::thread::yield_now(),
                            Err(PushError::Closed(_)) => panic!("closed early"),
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (q, consumed) = (&q, &consumed);
                s.spawn(move || {
                    while q.pop().is_some() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            // Producers finish first (scope join order is ours to manage):
            // wait for the full count, then close to release the consumers.
            while consumed.load(std::sync::atomic::Ordering::Relaxed) + q.depth() < produced {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            q.close();
        });
        assert_eq!(
            consumed.load(std::sync::atomic::Ordering::Relaxed),
            produced
        );
    }

    #[test]
    fn handoff_carries_the_producer_trace_across_the_queue() {
        trace::enable();
        let producer_trace = trace::TraceHandle::start();
        let q = BoundedQueue::new(4, "handoff_test");
        {
            // Producer side: trace installed while the work is wrapped.
            let _ctx = producer_trace.install();
            q.push(Handoff::new(41u32)).unwrap();
        }
        q.close();
        // Consumer side: another thread, no context of its own.
        std::thread::scope(|s| {
            s.spawn(|| {
                let handoff = q.pop().expect("one queued item");
                assert!(handoff.enqueued() <= Instant::now());
                let (item, prop, _enqueued) = handoff.into_parts();
                assert_eq!(item, 41);
                assert!(prop.is_active(), "producer context must ride along");
                let _ctx = prop.install();
                drop(baton_telemetry::span("consumer_side"));
            });
        });
        let done = producer_trace.finish("queue", 200);
        assert_eq!(done.spans.len(), 1);
        assert_eq!(done.spans[0].name, "consumer_side");
        assert_eq!(done.spans[0].parent, 0);
    }

    #[test]
    fn depth_gauge_tracks_push_and_pop() {
        use baton_telemetry::metrics::{self, SeriesValue};
        // Serialized with the other metrics-touching test via the fan-out
        // lock in lib.rs? Queue tests use a distinct gauge label, so the
        // only cross-talk is enable/reset; hold the same lock to be safe.
        let _guard = crate::tests::fan_out_lock();
        metrics::enable();
        let q = BoundedQueue::new(4, "gauge_test");
        q.push(1).unwrap();
        q.push(2).unwrap();
        let depth = || {
            metrics::registry()
                .snapshot()
                .iter()
                .find(|f| f.name == QUEUE_DEPTH.name)
                .and_then(|f| {
                    f.series
                        .iter()
                        .find(|(k, _)| k.iter().any(|(_, v)| v == "gauge_test"))
                        .map(|(_, v)| v.clone())
                })
        };
        assert_eq!(depth(), Some(SeriesValue::Gauge(2.0)));
        q.pop();
        q.pop();
        assert_eq!(depth(), Some(SeriesValue::Gauge(0.0)));
        metrics::reset();
    }
}
