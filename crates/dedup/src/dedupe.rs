//! The duplicate-detection cache (stage 3 of Fig. 3).
//!
//! Serial and stateful: one global table maps block digests to the ordinal
//! of the first occurrence. PARSEC's Dedup uses a locked hash table; here
//! the pipeline keeps the stage at `Replicate(1)` so the state needs no
//! lock — the same design choice the paper's SPar version makes.

use std::collections::HashMap;

use crate::sha1::Digest;

/// Classification of one block against the global cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockClass {
    /// First time this content is seen; it becomes unique block `ordinal`.
    Unique {
        /// Index among unique blocks, in stream order.
        ordinal: u64,
    },
    /// Content already stored as unique block `of`.
    Dup {
        /// Ordinal of the unique block holding the content.
        of: u64,
    },
}

/// The global digest → unique-ordinal table.
#[derive(Default)]
pub struct DedupCache {
    map: HashMap<Digest, u64>,
    next_ordinal: u64,
}

impl DedupCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classify a block by digest, registering it if new.
    pub fn classify(&mut self, digest: Digest) -> BlockClass {
        match self.map.get(&digest) {
            Some(&of) => BlockClass::Dup { of },
            None => {
                let ordinal = self.next_ordinal;
                self.next_ordinal += 1;
                self.map.insert(digest, ordinal);
                BlockClass::Unique { ordinal }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha1::sha1;

    #[test]
    fn first_sighting_is_unique_then_dup() {
        let mut c = DedupCache::new();
        let d = sha1(b"block");
        assert_eq!(c.classify(d), BlockClass::Unique { ordinal: 0 });
        assert_eq!(c.classify(d), BlockClass::Dup { of: 0 });
        assert_eq!(c.classify(d), BlockClass::Dup { of: 0 });
    }

    #[test]
    fn ordinals_assigned_in_stream_order() {
        let mut c = DedupCache::new();
        let a = sha1(b"a");
        let b = sha1(b"b");
        assert_eq!(c.classify(a), BlockClass::Unique { ordinal: 0 });
        assert_eq!(c.classify(b), BlockClass::Unique { ordinal: 1 });
        assert_eq!(c.classify(a), BlockClass::Dup { of: 0 });
        assert_eq!(c.classify(b), BlockClass::Dup { of: 1 });
    }
}
