//! Content-addressed response cache.
//!
//! Keyed on the pair already used by the exploration memo cache —
//! [`hls_core::cdfg_fingerprint`] of the compiled behavior ×
//! [`Synthesizer::fingerprint`] of the fully resolved configuration —
//! plus the request's output flags (whether Verilog was asked for). The
//! cached value is the *rendered response body*, so a hit serves bytes
//! identical to what the miss produced, by construction.
//!
//! The cache is bounded: at capacity, an insert evicts the least
//! recently inserted entry (FIFO). Synthesis is deterministic, so
//! eviction only costs latency, never correctness.
//!
//! [`Synthesizer::fingerprint`]: hls_core::Synthesizer::fingerprint

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// A bounded FIFO map from content key to rendered response body.
#[derive(Debug)]
pub struct ResponseCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<u64, Arc<Vec<u8>>>,
    order: VecDeque<u64>,
}

impl ResponseCache {
    /// A cache holding at most `capacity` responses (0 disables it).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            inner: Mutex::new(Inner::default()),
            capacity,
        }
    }

    /// Looks up a body by key.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        self.inner
            .lock()
            .expect("cache lock")
            .map
            .get(&key)
            .cloned()
    }

    /// Inserts a body, evicting the oldest entry at capacity.
    pub fn insert(&self, key: u64, body: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.contains_key(&key) {
            return; // deterministic bodies: first insert is as good as any
        }
        while inner.map.len() >= self.capacity {
            match inner.order.pop_front() {
                Some(old) => {
                    inner.map.remove(&old);
                }
                None => break,
            }
        }
        inner.map.insert(key, body);
        inner.order.push_back(key);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Combines an endpoint tag, the two fingerprints, and endpoint-specific
/// flags into one cache key (FNV-1a over the digests, same construction
/// as the exploration memo key). The tag keeps `/v1/synthesize` and
/// `/v1/explore` entries for the same behavior+config pair apart.
pub fn response_key(tag: &str, behavior_fp: u64, config_fp: u64, flags: u64) -> u64 {
    let mut w = hls_testkit::FnvWriter::new();
    w.update(tag.as_bytes());
    w.update(&behavior_fp.to_le_bytes());
    w.update(&config_fp.to_le_bytes());
    w.update(&flags.to_le_bytes());
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_returns_inserted_body() {
        let c = ResponseCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, Arc::new(b"body".to_vec()));
        assert_eq!(c.get(1).unwrap().as_slice(), b"body");
    }

    #[test]
    fn eviction_is_fifo_and_bounded() {
        let c = ResponseCache::new(2);
        c.insert(1, Arc::new(vec![1]));
        c.insert(2, Arc::new(vec![2]));
        c.insert(3, Arc::new(vec![3]));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest evicted");
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn zero_capacity_disables_inserts() {
        let c = ResponseCache::new(0);
        c.insert(1, Arc::new(vec![1]));
        assert!(c.is_empty());
    }

    #[test]
    fn keys_separate_flags_and_endpoints() {
        let a = response_key("synthesize", 10, 20, 0);
        let b = response_key("synthesize", 10, 20, 1);
        let c = response_key("explore", 10, 20, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
