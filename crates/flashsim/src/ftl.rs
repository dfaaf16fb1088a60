//! A page-mapped flash translation layer with greedy garbage collection.
//!
//! Supports the page-level [`crate::flash::FlashModule`] device model. The
//! paper's experiments are read-only, so the FTL's main job there is the
//! logical→physical page map; the write/GC path exists so the richer model
//! can run mixed workloads in sensitivity studies.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Physical location of a flash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysPage {
    /// Die index within the module.
    pub die: usize,
    /// Erase-block index within the die.
    pub block: usize,
    /// Page index within the erase block.
    pub page: usize,
}

/// Geometry of one flash module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FtlGeometry {
    /// Number of dies (independent command units).
    pub dies: usize,
    /// Erase blocks per die.
    pub blocks_per_die: usize,
    /// Pages per erase block.
    pub pages_per_block: usize,
    /// Fraction of blocks kept free as over-provisioning (0.0–0.5). GC runs
    /// when a die's free-block count drops below this share.
    pub overprovision: f64,
}

impl Default for FtlGeometry {
    fn default() -> Self {
        // Small but realistically shaped defaults (Agrawal et al. use 64
        // pages/block; die/block counts here are scaled for simulation).
        FtlGeometry {
            dies: 4,
            blocks_per_die: 256,
            pages_per_block: 64,
            overprovision: 0.1,
        }
    }
}

/// A structurally invalid [`FtlGeometry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GeometryError {
    /// `overprovision` outside the documented `0.0–0.5` range (or NaN).
    /// Past 0.5 the GC floor would reserve more blocks than GC can ever
    /// reclaim into; negative values would disable the floor entirely.
    OverprovisionOutOfRange(f64),
    /// A die/block/page dimension of zero.
    EmptyDimension,
}

impl std::fmt::Display for GeometryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeometryError::OverprovisionOutOfRange(v) => {
                write!(
                    f,
                    "over-provisioning {v} outside the supported 0.0–0.5 range"
                )
            }
            GeometryError::EmptyDimension => {
                write!(
                    f,
                    "dies, blocks_per_die and pages_per_block must all be non-zero"
                )
            }
        }
    }
}

impl std::error::Error for GeometryError {}

impl FtlGeometry {
    /// Check the documented bounds: all dimensions non-zero and
    /// `overprovision` within `0.0–0.5`.
    pub fn validate(&self) -> Result<(), GeometryError> {
        if self.dies == 0 || self.blocks_per_die == 0 || self.pages_per_block == 0 {
            return Err(GeometryError::EmptyDimension);
        }
        if !(0.0..=0.5).contains(&self.overprovision) {
            return Err(GeometryError::OverprovisionOutOfRange(self.overprovision));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    Free,
    Valid(u64),
    Invalid,
}

#[derive(Debug, Clone)]
struct EraseBlock {
    pages: Vec<PageState>,
    write_ptr: usize,
    valid: usize,
}

impl EraseBlock {
    fn new(pages_per_block: usize) -> Self {
        EraseBlock {
            pages: vec![PageState::Free; pages_per_block],
            write_ptr: 0,
            valid: 0,
        }
    }

    fn is_full(&self) -> bool {
        self.write_ptr >= self.pages.len()
    }
}

#[derive(Debug, Clone)]
struct Die {
    blocks: Vec<EraseBlock>,
    active: usize,
    free_blocks: Vec<usize>,
    erases: u64,
}

/// Result of a logical write: where it landed and what GC work it triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WriteOutcome {
    /// Pages programmed (1 for the host write + any GC relocations).
    pub pages_programmed: u64,
    /// Pages read back during GC relocation.
    pub pages_relocated: u64,
    /// Erase operations performed.
    pub erases: u64,
}

/// The device has no reclaimable space left: the live working set exceeds
/// the usable capacity (capacity minus the over-provisioning floor). In a
/// real SSD this surfaces as ENOSPC/readonly mode; configure a larger
/// geometry or more over-provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceFull;

impl std::fmt::Display for DeviceFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flash device full: live data exceeds usable capacity")
    }
}

impl std::error::Error for DeviceFull {}

/// Hasher of the page map: one multiply by the 64-bit golden ratio, the
/// high half folded onto the low so that both the bucket index and the
/// control byte see every key bit. The map is looked up and inserted into
/// but never iterated, so no result can depend on the hash, and it never
/// holds more entries than the device has physical pages, which bounds
/// what keys chosen to collide could cost — the flood SipHash guards
/// against needs a map that grows with its input.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Page-mapped FTL over a multi-die module.
#[derive(Debug, Clone)]
pub struct PageMappedFtl {
    geometry: FtlGeometry,
    dies: Vec<Die>,
    /// Logical page → physical page.
    map: HashMap<u64, PhysPage, BuildHasherDefault<PageHasher>>,
    /// The victim's valid pages `(page index, logical page)` during a
    /// collection; kept between collections so that GC allocates nothing.
    relocating: Vec<(usize, u64)>,
    next_die: usize,
    host_writes: u64,
    gc_writes: u64,
}

impl PageMappedFtl {
    /// Create an FTL with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid ([`FtlGeometry::validate`]); use
    /// [`PageMappedFtl::try_new`] to handle the error.
    pub fn new(geometry: FtlGeometry) -> Self {
        Self::try_new(geometry).expect("invalid FTL geometry")
    }

    /// Fallible constructor: rejects geometries that fail
    /// [`FtlGeometry::validate`] instead of panicking.
    pub fn try_new(geometry: FtlGeometry) -> Result<Self, GeometryError> {
        geometry.validate()?;
        let dies = (0..geometry.dies)
            .map(|_| {
                let blocks = (0..geometry.blocks_per_die)
                    .map(|_| EraseBlock::new(geometry.pages_per_block))
                    .collect();
                Die {
                    blocks,
                    active: 0,
                    free_blocks: (1..geometry.blocks_per_die).rev().collect(),
                    erases: 0,
                }
            })
            .collect();
        Ok(PageMappedFtl {
            geometry,
            dies,
            map: HashMap::default(),
            relocating: Vec::with_capacity(geometry.pages_per_block),
            next_die: 0,
            host_writes: 0,
            gc_writes: 0,
        })
    }

    /// Geometry in use.
    pub fn geometry(&self) -> &FtlGeometry {
        &self.geometry
    }

    /// Look up (or lazily create, for never-written data) the physical page
    /// of a logical page. Reads of cold data behave as if the page was
    /// pre-written, matching trace replay semantics.
    pub fn read(&mut self, logical_page: u64) -> Result<PhysPage, DeviceFull> {
        if let Some(&p) = self.map.get(&logical_page) {
            return Ok(p);
        }
        // Lazily materialize: place the page as a write without timing.
        let (p, _) = self.write(logical_page)?;
        Ok(p)
    }

    /// Physical location only if the page has been materialized.
    pub fn lookup(&self, logical_page: u64) -> Option<PhysPage> {
        self.map.get(&logical_page).copied()
    }

    /// Write a logical page: allocate a new physical page, invalidate the
    /// old mapping, and run GC if the target die ran low on free blocks.
    pub fn write(&mut self, logical_page: u64) -> Result<(PhysPage, WriteOutcome), DeviceFull> {
        let mut outcome = WriteOutcome {
            pages_programmed: 1,
            ..Default::default()
        };
        // Stripe new writes across dies round-robin; existing pages stay on
        // their die to keep the GC bookkeeping per-die.
        let die_idx = self.next_die;
        self.next_die = (self.next_die + 1) % self.geometry.dies;

        // Allocate first; only then supersede the old copy — a failed write
        // must leave the previous version intact (crash consistency).
        let phys = self.append(die_idx, logical_page).ok_or(DeviceFull)?;
        if let Some(old) = self.map.insert(logical_page, phys) {
            self.invalidate(old);
        }
        self.host_writes += 1;

        // GC if free blocks dropped below the over-provisioning floor. The
        // floor of 2 guarantees relocation during GC always has a spare
        // block to append into.
        let floor =
            ((self.geometry.blocks_per_die as f64 * self.geometry.overprovision) as usize).max(2);
        while self.dies[die_idx].free_blocks.len() < floor {
            let before = self.dies[die_idx].free_blocks.len();
            let gc = self.collect(die_idx);
            outcome.pages_relocated += gc.pages_relocated;
            outcome.pages_programmed += gc.pages_programmed;
            outcome.erases += gc.erases;
            // Stop when GC makes no net progress: either nothing is
            // collectible, or every victim is fully valid (the working set
            // exceeds usable capacity) — erasing then only churns. The
            // device keeps operating below its over-provisioning floor.
            if gc.erases == 0 || self.dies[die_idx].free_blocks.len() <= before {
                break;
            }
        }
        Ok((phys, outcome))
    }

    fn append(&mut self, die_idx: usize, logical_page: u64) -> Option<PhysPage> {
        let die = &mut self.dies[die_idx];
        if die.blocks[die.active].is_full() {
            let next = die.free_blocks.pop()?;
            die.active = next;
        }
        let block = die.active;
        let eb = &mut die.blocks[block];
        let page = eb.write_ptr;
        eb.pages[page] = PageState::Valid(logical_page);
        eb.write_ptr += 1;
        eb.valid += 1;
        Some(PhysPage {
            die: die_idx,
            block,
            page,
        })
    }

    fn invalidate(&mut self, p: PhysPage) {
        let eb = &mut self.dies[p.die].blocks[p.block];
        debug_assert!(matches!(eb.pages[p.page], PageState::Valid(_)));
        eb.pages[p.page] = PageState::Invalid;
        eb.valid -= 1;
    }

    /// Greedy GC: erase the full block with the fewest valid pages,
    /// relocating those pages first.
    fn collect(&mut self, die_idx: usize) -> WriteOutcome {
        let mut outcome = WriteOutcome::default();
        let active = self.dies[die_idx].active;
        // Victim: a full, non-active block with minimal valid count.
        let victim = {
            let die = &self.dies[die_idx];
            die.blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| *i != active && b.is_full())
                .min_by_key(|(_, b)| b.valid)
                .map(|(i, _)| i)
        };
        let Some(victim) = victim else {
            return outcome;
        };

        // Relocate valid pages.
        let mut to_move = std::mem::take(&mut self.relocating);
        to_move.clear();
        let pages = self.dies[die_idx].blocks[victim].pages.iter().enumerate();
        to_move.extend(pages.filter_map(|(pi, s)| match s {
            PageState::Valid(lp) => Some((pi, *lp)),
            _ => None,
        }));
        let mut aborted = false;
        for &(pi, lp) in &to_move {
            let Some(new) = self.append(die_idx, lp) else {
                // No room to relocate: abort the collection, leaving the
                // remaining valid pages (and the victim) untouched. The
                // already-moved pages stay at their new locations.
                aborted = true;
                break;
            };
            // The old slot is now superseded.
            self.dies[die_idx].blocks[victim].pages[pi] = PageState::Invalid;
            self.dies[die_idx].blocks[victim].valid -= 1;
            self.map.insert(lp, new);
            self.gc_writes += 1;
            outcome.pages_relocated += 1;
            outcome.pages_programmed += 1;
        }
        self.relocating = to_move;
        if aborted {
            return outcome;
        }

        // Erase the victim, in place.
        let die = &mut self.dies[die_idx];
        let eb = &mut die.blocks[victim];
        eb.pages.fill(PageState::Free);
        eb.write_ptr = 0;
        eb.valid = 0;
        die.free_blocks.push(victim);
        die.erases += 1;
        outcome.erases += 1;
        outcome
    }

    /// Write amplification so far: (host + GC writes) / host writes.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            1.0
        } else {
            (self.host_writes + self.gc_writes) as f64 / self.host_writes as f64
        }
    }

    /// Total erase operations across dies.
    pub fn total_erases(&self) -> u64 {
        self.dies.iter().map(|d| d.erases).sum()
    }

    /// Host-issued page programs so far.
    pub fn host_writes(&self) -> u64 {
        self.host_writes
    }

    /// GC relocation page programs so far.
    pub fn gc_writes(&self) -> u64 {
        self.gc_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_geometry() -> FtlGeometry {
        FtlGeometry {
            dies: 2,
            blocks_per_die: 8,
            pages_per_block: 4,
            overprovision: 0.25,
        }
    }

    #[test]
    fn overprovision_bounds_are_enforced() {
        for bad in [-0.1, 0.50001, 1.0, f64::NAN] {
            let g = FtlGeometry {
                overprovision: bad,
                ..small_geometry()
            };
            match PageMappedFtl::try_new(g) {
                Err(GeometryError::OverprovisionOutOfRange(v)) => {
                    assert!(v.is_nan() == bad.is_nan() && (v.is_nan() || v == bad));
                }
                other => panic!("overprovision {bad} accepted: {other:?}"),
            }
        }
        // Both documented endpoints are valid.
        for ok in [0.0, 0.5] {
            let g = FtlGeometry {
                overprovision: ok,
                ..small_geometry()
            };
            assert!(
                PageMappedFtl::try_new(g).is_ok(),
                "overprovision {ok} rejected"
            );
        }
    }

    #[test]
    fn empty_dimensions_are_rejected() {
        let g = FtlGeometry {
            dies: 0,
            ..small_geometry()
        };
        assert_eq!(
            PageMappedFtl::try_new(g).unwrap_err(),
            GeometryError::EmptyDimension
        );
    }

    #[test]
    #[should_panic(expected = "invalid FTL geometry")]
    fn infallible_constructor_panics_on_invalid_geometry() {
        let _ = PageMappedFtl::new(FtlGeometry {
            overprovision: 0.9,
            ..small_geometry()
        });
    }

    #[test]
    fn read_materializes_cold_pages() {
        let mut ftl = PageMappedFtl::new(small_geometry());
        assert!(ftl.lookup(42).is_none());
        let p = ftl.read(42).unwrap();
        assert_eq!(ftl.lookup(42), Some(p));
        // Stable across repeated reads.
        assert_eq!(ftl.read(42).unwrap(), p);
    }

    #[test]
    fn overwrite_moves_page_and_invalidates_old() {
        let mut ftl = PageMappedFtl::new(small_geometry());
        let (p1, _) = ftl.write(7).unwrap();
        let (p2, _) = ftl.write(7).unwrap();
        assert_ne!(p1, p2);
        assert_eq!(ftl.lookup(7), Some(p2));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_not_exhaustion() {
        let mut ftl = PageMappedFtl::new(small_geometry());
        // Working set much smaller than capacity, overwritten many times:
        // GC must reclaim space indefinitely.
        for _ in 0..200u64 {
            for lp in 0..8u64 {
                ftl.write(lp).unwrap();
            }
        }
        assert!(ftl.total_erases() > 0, "GC never ran");
        assert!(ftl.write_amplification() >= 1.0);
        // All pages still readable at their latest location.
        for lp in 0..8u64 {
            assert!(ftl.lookup(lp).is_some());
        }
    }

    #[test]
    fn over_capacity_working_set_terminates() {
        // Regression: a working set larger than the usable capacity (after
        // over-provisioning) once spun GC forever — every victim was fully
        // valid, so erasing reclaimed nothing. The FTL must detect the
        // no-progress state and keep serving writes below its floor.
        let mut ftl = PageMappedFtl::new(FtlGeometry {
            dies: 1,
            blocks_per_die: 8,
            pages_per_block: 4,
            overprovision: 0.25,
        });
        // 30 live pages in 32 slots: beyond what GC can ever reclaim. Some
        // writes report DeviceFull, but the FTL must terminate and stay
        // consistent.
        let mut full_errors = 0;
        for i in 0..300u64 {
            if ftl.write(i % 30).is_err() {
                full_errors += 1;
            }
        }
        assert!(
            full_errors > 0,
            "over-capacity set must eventually report full"
        );
        // Every successfully written page is still readable.
        for lp in 0..30u64 {
            if let Some(p) = ftl.lookup(lp) {
                let _ = p;
            }
        }
    }

    #[test]
    fn mapping_stays_consistent_under_gc() {
        let mut ftl = PageMappedFtl::new(small_geometry());
        for i in 0..300u64 {
            ftl.write(i % 16).unwrap();
        }
        // Every live logical page maps to a Valid physical page holding it.
        for lp in 0..16u64 {
            let p = ftl.lookup(lp).unwrap();
            let state = ftl.dies[p.die].blocks[p.block].pages[p.page];
            assert_eq!(state, PageState::Valid(lp));
        }
    }

    #[test]
    fn write_amplification_grows_with_pressure() {
        let mut tight = PageMappedFtl::new(FtlGeometry {
            dies: 1,
            blocks_per_die: 8,
            pages_per_block: 4,
            overprovision: 0.3,
        });
        // Pseudo-random overwrites over 18 of 32 physical pages (56%
        // utilization): GC victims usually contain valid pages to relocate.
        let mut seed = 1u64;
        for _ in 0..500 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            tight.write((seed >> 33) % 18).unwrap();
        }
        assert!(tight.write_amplification() > 1.0);
    }
}
