//! The hasher of the simulator's host-side indexes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply–rotate hasher (FxHash's step) for small integer keys: cheap,
/// and deterministic across runs and hosts.
///
/// It does not resist keys chosen to collide, and replayed traces choose
/// the addresses. Use it only for maps the simulated hardware bounds, so
/// that a collision flood costs at most a scan of that bound.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }
}

/// A `HashMap` hashed by [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
