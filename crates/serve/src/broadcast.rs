//! SSE fan-out for the observability plane.
//!
//! [`EventBus`] hands each rendered frame to every `/events` subscriber
//! through a bounded queue of its own. The publisher (the aggregator
//! thread) `try_send`s each frame; a subscriber that cannot keep up
//! loses frames (counted), rather than exerting backpressure upstream.
//! Serving threads never touch it: they reach the aggregator only
//! through the store writer's channel (see `stats::AggEvent`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;

/// How deep each SSE subscriber's frame queue is before frames drop.
pub const SUBSCRIBER_QUEUE_DEPTH: usize = 256;

/// One SSE subscriber's receive side.
pub struct Subscription {
    rx: Receiver<Arc<String>>,
}

impl Subscription {
    /// Takes the next queued frame, if any (never blocks).
    pub fn try_next(&self) -> Option<Arc<String>> {
        self.rx.try_recv().ok()
    }
}

/// Fan-out of rendered SSE frames to live subscribers.
///
/// Published frames are reference-counted, rendered once, and
/// `try_send`-delivered: a full subscriber queue drops the frame for
/// that subscriber only (counted in [`EventBus::dropped_frames`]).
/// The subscriber list is behind a mutex, but it is touched only by the
/// aggregator thread, which also runs the HTTP plane — never by a
/// connection shard.
#[derive(Default)]
pub struct EventBus {
    subs: parking_lot::Mutex<Vec<SyncSender<Arc<String>>>>,
    dropped: AtomicU64,
}

impl EventBus {
    /// A bus with no subscribers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a subscriber; frames published from now on are queued
    /// for it (up to [`SUBSCRIBER_QUEUE_DEPTH`]).
    pub fn subscribe(&self) -> Subscription {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUBSCRIBER_QUEUE_DEPTH);
        self.subs.lock().push(tx);
        Subscription { rx }
    }

    /// Publishes one rendered frame to every live subscriber.
    /// Disconnected subscribers are dropped from the list; full queues
    /// lose this frame and bump the drop counter.
    pub fn publish(&self, frame: String) {
        let frame = Arc::new(frame);
        let mut subs = self.subs.lock();
        subs.retain(|tx| match tx.try_send(Arc::clone(&frame)) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Live subscriber count.
    pub fn subscribers(&self) -> usize {
        self.subs.lock().len()
    }

    /// Frames lost to slow subscribers since startup.
    pub fn dropped_frames(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_bus_delivers_and_drops_only_on_full_queues() {
        let bus = EventBus::new();
        let sub = bus.subscribe();
        assert_eq!(bus.subscribers(), 1);
        bus.publish("frame-1".into());
        bus.publish("frame-2".into());
        assert_eq!(
            sub.try_next().as_deref().map(String::as_str),
            Some("frame-1")
        );
        assert_eq!(
            sub.try_next().as_deref().map(String::as_str),
            Some("frame-2")
        );
        assert!(sub.try_next().is_none());

        // Overflow: the slow subscriber loses frames, the bus survives.
        for i in 0..(SUBSCRIBER_QUEUE_DEPTH + 10) {
            bus.publish(format!("f{i}"));
        }
        assert_eq!(bus.dropped_frames(), 10);
        // Dropping the subscription unregisters on the next publish.
        drop(sub);
        bus.publish("gone".into());
        assert_eq!(bus.subscribers(), 0);
    }
}
