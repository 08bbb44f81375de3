//! Fixed-slab recycle pool for datagram buffers.
//!
//! The receive thread used to allocate a fresh `Vec` for every datagram and
//! copy the filled prefix into it; the reactor then dropped it after decode.
//! Under flood that is one allocation + one copy per frame on the hottest
//! path in the runtime. [`BufferPool`] replaces it with a bounded set of
//! reusable slabs:
//!
//! - [`BufferPool::try_take`] hands out a pooled slab (no allocation); the
//!   slab is written in place by the socket backend and travels
//!   **by ownership** through the `recv → mpsc → reactor` pipeline;
//! - dropping the [`PoolBuf`] anywhere returns the slab to the free list,
//!   so steady-state receive traffic allocates nothing per frame;
//! - when the pool is dry (more frames in flight than slabs — a flood the
//!   bounded inbound channel is about to shed anyway), callers fall back to
//!   an exact-size heap buffer ([`PoolBuf::copied_from`]) and the miss is
//!   counted, so memory stays proportional to the data actually queued.
//!
//! The send path reuses the same type: a [`PoolBuf`] implements
//! [`BufMut`](bytes::BufMut), so the reactor encodes envelopes straight
//! into recycled slabs and batched sends share them by `Arc` across the
//! mesh fan-out.
//!
//! Occupancy (`in_use`/`capacity`) and the hit/miss counters feed the
//! `pool.*` gauges in the live metrics registry.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared pool state; [`PoolBuf`]s hold an `Arc` back to it for recycling.
#[derive(Debug)]
struct PoolShared {
    free: Mutex<Vec<Vec<u8>>>,
    slab_bytes: usize,
    capacity: usize,
    in_use: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A bounded recycle pool of fixed-size byte slabs.
///
/// Clones share the same slabs (on a hub, the reactor that reads the
/// socket and the shard that walks a forwarded buffer each hold one end).
#[derive(Clone, Debug)]
pub struct BufferPool {
    shared: Arc<PoolShared>,
}

impl BufferPool {
    /// A pool of `capacity` slabs of `slab_bytes` each, all allocated up
    /// front so the steady state never touches the allocator.
    pub fn new(capacity: usize, slab_bytes: usize) -> Self {
        let capacity = capacity.max(1);
        let slab_bytes = slab_bytes.max(64);
        let free = (0..capacity).map(|_| vec![0u8; slab_bytes]).collect();
        BufferPool {
            shared: Arc::new(PoolShared {
                free: Mutex::new(free),
                slab_bytes,
                capacity,
                in_use: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Take a pooled slab, or `None` if every slab is in flight. The
    /// returned buffer is logically empty (`filled == 0`); write into
    /// [`PoolBuf::slab_mut`] and call [`PoolBuf::set_filled`].
    pub fn try_take(&self) -> Option<PoolBuf> {
        let data = self.shared.free.lock().expect("pool lock").pop()?;
        self.shared.in_use.fetch_add(1, Ordering::Relaxed);
        self.shared.hits.fetch_add(1, Ordering::Relaxed);
        Some(PoolBuf {
            data,
            filled: 0,
            home: Some(Arc::clone(&self.shared)),
        })
    }

    /// Record a pool miss (the caller built a [`PoolBuf::copied_from`]
    /// heap buffer instead).
    pub fn note_miss(&self) {
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Slab size in bytes.
    pub fn slab_bytes(&self) -> usize {
        self.shared.slab_bytes
    }

    /// (slabs out, total slabs): the occupancy gauge pair.
    pub fn occupancy(&self) -> (u64, u64) {
        (
            self.shared.in_use.load(Ordering::Relaxed),
            self.shared.capacity as u64,
        )
    }

    /// (pooled takes, heap fallbacks) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.misses.load(Ordering::Relaxed),
        )
    }
}

/// An owned datagram buffer: either a recycled pool slab (returned on
/// drop) or a plain heap buffer (pool-miss fallback, freed on drop).
///
/// Dereferences to the *filled* prefix — the bytes a socket backend
/// actually wrote — not the whole slab.
#[derive(Debug)]
pub struct PoolBuf {
    data: Vec<u8>,
    filled: usize,
    home: Option<Arc<PoolShared>>,
}

impl PoolBuf {
    /// An exact-size heap buffer holding a copy of `src` — the receive
    /// side's pool-miss fallback (and the portable backend's filled-prefix
    /// copy-out).
    pub fn copied_from(src: &[u8]) -> Self {
        PoolBuf {
            data: src.to_vec(),
            filled: src.len(),
            home: None,
        }
    }

    /// An empty heap buffer of `slab_bytes` — the send side's pool-miss
    /// fallback: an encode appends into it as into a pooled slab, without
    /// growing it step by step from nothing.
    pub fn with_capacity(slab_bytes: usize) -> Self {
        PoolBuf {
            data: vec![0u8; slab_bytes],
            filled: 0,
            home: None,
        }
    }

    /// The whole backing slab, for socket backends to receive into.
    pub fn slab_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Declare how many leading bytes of the slab are real data.
    ///
    /// # Panics
    /// Panics if `n` exceeds the slab size.
    pub fn set_filled(&mut self, n: usize) {
        assert!(n <= self.data.len(), "filled beyond slab");
        self.filled = n;
    }

    /// Logical length (the filled prefix).
    pub fn len(&self) -> usize {
        self.filled
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Reset to logically empty (keeps the slab for reuse in place).
    pub fn clear(&mut self) {
        self.filled = 0;
    }
}

impl Deref for PoolBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[..self.filled]
    }
}

impl AsRef<[u8]> for PoolBuf {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl bytes::BufMut for PoolBuf {
    fn put_slice(&mut self, src: &[u8]) {
        let end = self.filled + src.len();
        if end > self.data.len() {
            // An oversized encode grows the slab once; the bigger slab
            // then recycles at its new size.
            self.data.resize(end, 0);
        }
        self.data[self.filled..end].copy_from_slice(src);
        self.filled = end;
    }
}

impl Drop for PoolBuf {
    fn drop(&mut self) {
        if let Some(home) = self.home.take() {
            let slab = std::mem::take(&mut self.data);
            home.in_use.fetch_sub(1, Ordering::Relaxed);
            home.free.lock().expect("pool lock").push(slab);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BufMut;

    #[test]
    fn slabs_recycle_and_occupancy_tracks() {
        let pool = BufferPool::new(2, 128);
        assert_eq!(pool.occupancy(), (0, 2));
        let a = pool.try_take().unwrap();
        let b = pool.try_take().unwrap();
        assert_eq!(pool.occupancy(), (2, 2));
        assert!(pool.try_take().is_none(), "pool must be dry");
        drop(a);
        assert_eq!(pool.occupancy(), (1, 2));
        let c = pool.try_take().unwrap();
        assert_eq!(pool.occupancy(), (2, 2));
        drop(b);
        drop(c);
        assert_eq!(pool.occupancy(), (0, 2));
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (3, 0));
    }

    #[test]
    fn filled_prefix_is_the_deref_view() {
        let pool = BufferPool::new(1, 64);
        let mut b = pool.try_take().unwrap();
        b.slab_mut()[..5].copy_from_slice(b"hello");
        b.set_filled(5);
        assert_eq!(&*b, b"hello");
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    fn heap_fallback_copies_exactly() {
        let pool = BufferPool::new(1, 64);
        let _held = pool.try_take().unwrap();
        assert!(pool.try_take().is_none());
        pool.note_miss();
        let b = PoolBuf::copied_from(b"overflow frame");
        assert_eq!(&*b, b"overflow frame");
        assert_eq!(pool.stats().1, 1);
    }

    #[test]
    fn bufmut_appends_and_grows_past_the_slab() {
        let pool = BufferPool::new(1, 64);
        let mut b = pool.try_take().unwrap();
        b.put_slice(b"head");
        b.put_u32(7);
        assert_eq!(b.len(), 8);
        assert_eq!(&b[..4], b"head");
        b.put_slice(&[0xAB; 128]);
        assert_eq!(b.len(), 136, "oversized encode grows the slab");
        drop(b);
        // The grown slab recycles at its new size.
        let again = pool.try_take().unwrap();
        assert!(again.data.len() >= 136);
    }
}
