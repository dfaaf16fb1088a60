//! `fqos_flashsim::PageMappedFtl` as it was before its collection erased
//! in place, reused one relocation buffer and hashed its page map with one
//! multiply: a fresh `Vec<PageState>` per erase, a `Vec` per collection,
//! SipHash. Copied, with the public types imported instead of redefined,
//! so that the property tests can hold the two side by side.

use fqos_flashsim::ftl::{DeviceFull, FtlGeometry, GeometryError, PhysPage, WriteOutcome};

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

/// Page-mapped FTL over a multi-die module.
#[derive(Debug, Clone)]
pub struct ReferenceFtl {
    geometry: FtlGeometry,
    dies: Vec<Die>,
    /// Logical page → physical page.
    map: std::collections::HashMap<u64, PhysPage>,
    next_die: usize,
    host_writes: u64,
    gc_writes: u64,
}

impl ReferenceFtl {
    /// Create an FTL with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid ([`FtlGeometry::validate`]); use
    /// [`ReferenceFtl::try_new`] to handle the error.
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
        Ok(ReferenceFtl {
            geometry,
            dies,
            map: std::collections::HashMap::new(),
            next_die: 0,
            host_writes: 0,
            gc_writes: 0,
        })
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
        let to_move: Vec<(usize, u64)> = self.dies[die_idx].blocks[victim]
            .pages
            .iter()
            .enumerate()
            .filter_map(|(pi, s)| match s {
                PageState::Valid(lp) => Some((pi, *lp)),
                _ => None,
            })
            .collect();
        for (pi, lp) in &to_move {
            let Some(new) = self.append(die_idx, *lp) else {
                // No room to relocate: abort the collection, leaving the
                // remaining valid pages (and the victim) untouched. The
                // already-moved pages stay at their new locations.
                return outcome;
            };
            // The old slot is now superseded.
            self.dies[die_idx].blocks[victim].pages[*pi] = PageState::Invalid;
            self.dies[die_idx].blocks[victim].valid -= 1;
            self.map.insert(*lp, new);
            self.gc_writes += 1;
            outcome.pages_relocated += 1;
            outcome.pages_programmed += 1;
        }

        // Erase the victim.
        let die = &mut self.dies[die_idx];
        die.blocks[victim] = EraseBlock::new(self.geometry.pages_per_block);
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
