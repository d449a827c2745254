//! Per-tile resources: the SRAM budget.
//!
//! Each WSE-2 tile has 48 kB of single-cycle SRAM and no other memory
//! (Sec. IV-A); everything a worker holds — atom state, interpolation
//! tables, receive buffers, neighbor list, scratch — must fit. The
//! [`SramBudget`] type makes that constraint explicit and auditable.

use std::fmt;

/// SRAM capacity of a WSE-2 tile in bytes.
pub const TILE_SRAM_BYTES: usize = 48 * 1024;

/// Error returned when a tile's memory plan exceeds its SRAM.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SramOverflow {
    pub requested: usize,
    pub used: usize,
    pub capacity: usize,
    pub region: String,
}

impl fmt::Display for SramOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SRAM overflow allocating {} bytes for '{}': {}/{} bytes already used",
            self.requested, self.region, self.used, self.capacity
        )
    }
}

impl std::error::Error for SramOverflow {}

/// A named-region bump accountant for one tile's 48 kB SRAM.
#[derive(Clone, Debug)]
pub struct SramBudget {
    capacity: usize,
    regions: Vec<(String, usize)>,
    used: usize,
}

impl Default for SramBudget {
    fn default() -> Self {
        Self::new(TILE_SRAM_BYTES)
    }
}

impl SramBudget {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            regions: Vec::new(),
            used: 0,
        }
    }

    /// Reserve `bytes` for a named region; fails if the tile would
    /// exceed its SRAM.
    pub fn alloc(&mut self, region: &str, bytes: usize) -> Result<(), SramOverflow> {
        if self.used + bytes > self.capacity {
            return Err(SramOverflow {
                requested: bytes,
                used: self.used,
                capacity: self.capacity,
                region: region.to_string(),
            });
        }
        self.regions.push((region.to_string(), bytes));
        self.used += bytes;
        Ok(())
    }

    pub fn used(&self) -> usize {
        self.used
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn remaining(&self) -> usize {
        self.capacity - self.used
    }

    /// Iterate `(region, bytes)` entries, e.g. for a memory-map report.
    pub fn regions(&self) -> impl Iterator<Item = (&str, usize)> {
        self.regions.iter().map(|(n, b)| (n.as_str(), *b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_48_kib() {
        let b = SramBudget::default();
        assert_eq!(b.capacity(), 49_152);
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn allocation_tracks_usage_and_regions() {
        let mut b = SramBudget::new(1000);
        b.alloc("tables", 600).unwrap();
        b.alloc("buffers", 300).unwrap();
        assert_eq!(b.used(), 900);
        assert_eq!(b.remaining(), 100);
        let regions: Vec<_> = b.regions().collect();
        assert_eq!(regions, vec![("tables", 600), ("buffers", 300)]);
    }

    #[test]
    fn overflow_is_rejected_with_context() {
        let mut b = SramBudget::new(100);
        b.alloc("a", 80).unwrap();
        let err = b.alloc("b", 30).unwrap_err();
        assert_eq!(err.requested, 30);
        assert_eq!(err.used, 80);
        assert_eq!(err.region, "b");
        // The failed allocation must not corrupt the accounting.
        assert_eq!(b.used(), 80);
        assert!(err.to_string().contains("SRAM overflow"));
    }

    #[test]
    fn exact_fit_is_allowed() {
        let mut b = SramBudget::new(100);
        b.alloc("all", 100).unwrap();
        assert_eq!(b.remaining(), 0);
        assert!(b.alloc("one more", 1).is_err());
    }
}
