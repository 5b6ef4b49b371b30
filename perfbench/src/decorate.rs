//! Timing decorators around the public `Store` and `TraceSink` traits,
//! and the in-memory `Store` the fleet workload runs on. The decorators
//! forward every call unchanged and only add a wall-clock sample, so a
//! traced run must reproduce the untraced run's fingerprints.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use iobt_ckpt::{decode_checkpoint, encode_checkpoint, CkptError};
use iobt_fleet::Store;
use iobt_obs::{TraceRecord, TraceSink};

use crate::measure::{millis, secs, Samples};

/// A [`Store`] that keeps each ticket's latest checkpoint in memory as
/// an `iobt-ckpt` envelope: saving encodes and checksums it, loading
/// verifies and decodes it, as `DiskStore` does, but no file is written
/// or synced. On a 2-vCPU VM with a shared virtual disk, the median
/// `DiskStore` save took 0.8 ms in one run and 3.6 ms in another an
/// hour later, and fleet throughput on disk followed the disk (270 to
/// 900 missions/s) rather than the code.
#[derive(Debug, Default)]
pub struct MemStore(Mutex<BTreeMap<u64, Vec<u8>>>);

impl Store for MemStore {
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError> {
        let envelope = encode_checkpoint(seed, window, payload);
        self.0
            .lock()
            .expect("store map is never poisoned")
            .insert(ticket, envelope);
        Ok(())
    }

    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let map = self.0.lock().expect("store map is never poisoned");
        let Some(envelope) = map.get(&ticket) else {
            return Ok(None);
        };
        let (header, payload) = decode_checkpoint(envelope)?;
        Ok((header.seed == seed).then(|| (header.window, payload.to_vec())))
    }

    fn clear(&self, ticket: u64) {
        self.0
            .lock()
            .expect("store map is never poisoned")
            .remove(&ticket);
    }
}

/// Per-operation latencies gathered by a [`TimedStore`].
#[derive(Debug, Default)]
pub struct StoreClock {
    pub save_ms: Mutex<Samples>,
    pub load_ms: Mutex<Samples>,
    pub clear_ms: Mutex<Samples>,
    pub bytes_saved: AtomicU64,
}

impl StoreClock {
    fn push(slot: &Mutex<Samples>, ms: f64) {
        slot.lock().expect("store clock is never poisoned").push(ms);
    }

    pub fn take(slot: &Mutex<Samples>) -> Samples {
        std::mem::take(&mut *slot.lock().expect("store clock is never poisoned"))
    }
}

/// A [`Store`] that times each call into the store it wraps.
#[derive(Debug)]
pub struct TimedStore<S> {
    inner: S,
    clock: Arc<StoreClock>,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, clock: Arc<StoreClock>) -> Self {
        TimedStore { inner, clock }
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn save(&self, ticket: u64, seed: u64, window: u64, payload: &[u8]) -> Result<(), CkptError> {
        let start = Instant::now();
        let result = self.inner.save(ticket, seed, window, payload);
        StoreClock::push(&self.clock.save_ms, millis(start));
        // Statistic only: publishes no other data.
        self.clock
            .bytes_saved
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        result
    }

    fn load_latest(&self, ticket: u64, seed: u64) -> Result<Option<(u64, Vec<u8>)>, CkptError> {
        let start = Instant::now();
        let result = self.inner.load_latest(ticket, seed);
        StoreClock::push(&self.clock.load_ms, millis(start));
        result
    }

    fn clear(&self, ticket: u64) {
        let start = Instant::now();
        self.inner.clear(ticket);
        StoreClock::push(&self.clock.clear_ms, millis(start));
    }
}

/// Time spent in, and records passed to, a [`TimedSink`].
#[derive(Debug, Default)]
pub struct SinkClock {
    pub accept_s: f64,
    pub records: u64,
}

/// A [`TraceSink`] that times each call into the sink it wraps.
pub struct TimedSink<S> {
    inner: S,
    clock: Rc<RefCell<SinkClock>>,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S, clock: Rc<RefCell<SinkClock>>) -> Self {
        TimedSink { inner, clock }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn accept(&mut self, record: &TraceRecord) {
        let start = Instant::now();
        self.inner.accept(record);
        let mut clock = self.clock.borrow_mut();
        clock.accept_s += secs(start);
        clock.records += 1;
    }

    fn flush(&mut self) {
        let start = Instant::now();
        self.inner.flush();
        self.clock.borrow_mut().accept_s += secs(start);
    }
}
