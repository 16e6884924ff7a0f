//! The Attribute Cache (Fig. 8): a Primitive Buffer over an Attribute
//! Buffer, with OPT replacement and write bypass.
//!
//! * The **Primitive Buffer** is set-associative over primitive IDs
//!   (XOR-based set index \[12\]). Each line: valid / lock / dirty bits,
//!   tag, the OPT Number, and the Attribute Buffer Pointer (ABP) to the
//!   first attribute.
//! * The **Attribute Buffer** stores one 48-byte attribute per entry;
//!   a primitive's attributes form a linked list, and free entries form a
//!   free list. A primitive fits only if enough free entries exist.
//!
//! Replacement (§III.C.6): among *unlocked* lines of the set, evict the
//! one with the **greatest** OPT Number (used farthest in the future; a
//! primitive never used again carries [`TileRank::NEVER`], the greatest of
//! all). Locks pin primitives whose ABP sits in the Tile Fetcher output
//! queue until the Rasterizer consumes them (§III.C.3/5).
//!
//! Writes (§III.C.4): the Polygon List Builder writes each primitive
//! once. If the best victim's OPT Number is **greater** than the write's,
//! the victim is evicted and the write allocated; otherwise (including
//! equality) the write is **bypassed** to the L2.

use tcor_cache::Indexing;
use tcor_common::{AccessStats, PrimitiveId, TileRank};

/// Geometry and policy knobs of the Attribute Cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttributeCacheConfig {
    /// Primitive Buffer associativity.
    pub ways: usize,
    /// Primitive Buffer lines (must be a multiple of `ways`).
    pub pb_lines: usize,
    /// Attribute Buffer entries (one 48-byte attribute each).
    pub ab_entries: usize,
    /// Set-index function over primitive IDs. The paper uses the
    /// XOR-based function of \[12\]; `Modulo` is the ablation.
    pub indexing: Indexing,
    /// Polygon-List-Builder write bypass (§III.C.4). Disabling it makes
    /// every write allocate (evicting the farthest-future line) — the
    /// ablation for design decision D2.
    pub write_bypass: bool,
}

impl AttributeCacheConfig {
    /// Splits a byte budget into the two structures the way the paper's
    /// zero-overhead argument implies: the budget buys `bytes / 64`
    /// attribute entries (48 B data + pointer/valid/lock overhead, which
    /// the removed per-line tags pay for), and one Primitive Buffer line
    /// per potential resident primitive (at the 1-attribute worst case).
    ///
    /// # Panics
    ///
    /// Panics if the budget is too small to hold `ways` primitives of one
    /// attribute each.
    pub fn from_budget(bytes: u64, ways: usize) -> Self {
        let ab_entries = (bytes / 64) as usize;
        let pb_lines = (ab_entries / ways).max(1) * ways;
        assert!(
            ab_entries >= ways,
            "attribute cache budget {bytes} too small"
        );
        AttributeCacheConfig {
            ways,
            pb_lines,
            ab_entries,
            indexing: Indexing::Xor,
            write_bypass: true,
        }
    }

    /// Returns the config with a different set-index function.
    pub fn with_indexing(mut self, indexing: Indexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// Returns the config with write bypass enabled or disabled.
    pub fn with_write_bypass(mut self, on: bool) -> Self {
        self.write_bypass = on;
        self
    }

    /// Number of Primitive Buffer sets.
    pub fn num_sets(&self) -> usize {
        self.pb_lines / self.ways
    }
}

/// A primitive displaced from the Attribute Cache. If `dirty`, its
/// attributes must be written back to the L2 (the system driver issues
/// one write per attribute block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedPrim {
    /// The displaced primitive.
    pub prim: PrimitiveId,
    /// Whether its attributes were dirty (written by the Polygon List
    /// Builder and never yet flushed).
    pub dirty: bool,
    /// How many attributes it held.
    pub attr_count: u8,
}

/// Outcome of a Tile Fetcher read (§III.C.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadResult {
    /// Present: line and first attribute locked, OPT Number updated, ABP
    /// pushed to the output queue.
    Hit,
    /// Absent: a line was reserved (evicting `evicted`, possibly several
    /// to free Attribute Buffer space); the driver fetches the attribute
    /// blocks from the L2.
    Miss {
        /// Primitives displaced to make room.
        evicted: Vec<EvictedPrim>,
    },
    /// No unlocked victim (or not enough unlockable space): the fetcher
    /// must wait for the Rasterizer to consume queued primitives and
    /// retry.
    Stalled,
}

/// Outcome of a Polygon List Builder write (§III.C.4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteResult {
    /// Stored in the Attribute Cache (dirty), possibly evicting
    /// farther-future primitives.
    Allocated {
        /// Primitives displaced to make room.
        evicted: Vec<EvictedPrim>,
    },
    /// Every unlocked candidate will be used sooner than (or at the same
    /// tile as) this primitive: the write goes straight to the L2.
    Bypassed,
}

/// The per-line fields only a resident line's own paths read; the
/// valid/lock bits and the OPT Number live in the dense columns of
/// [`AttributeCache`], which the policy and the self-check scan.
#[derive(Clone, Copy, Debug, Default)]
struct PbLine {
    dirty: bool,
    prim: PrimitiveId,
    abp: u32,
    attr_count: u8,
}

/// `state` column: an empty line.
const INVALID: u8 = 0;
/// `state` column: resident and locked (pinned for the Rasterizer).
const LOCKED: u8 = 1;
/// `state` column: resident and unlocked — a replacement candidate.
const CANDIDATE: u8 = 2;

// The `opt` column stores saturated OPT Numbers as `u16`.
const _: () = assert!(TileRank::OPT_MAX <= u16::MAX as u32);

/// Incremental index over the replacement *candidates* (valid, unlocked
/// lines) that answers the cache-wide questions of the policy in
/// O(log N) instead of a scan of every Primitive Buffer line — the
/// model's counterpart of the hardware comparator tree:
///
/// * the victim: greatest OPT Number, ties to the **highest** line index
///   (what `max_by_key` returns over an index-ordered scan);
/// * the Attribute Buffer entries all candidates hold (read feasibility);
/// * the entries held by candidates strictly above an OPT floor (write
///   feasibility).
///
/// A max tree over line indices keys each candidate by `(opt, index)`;
/// a Fenwick tree over the 4,096 saturated OPT Numbers sums entries.
#[derive(Clone, Debug)]
struct VictimIndex {
    /// `tree[lines + i]` is line `i`'s key (0: not a candidate) and
    /// `tree[k] = max(tree[2k], tree[2k + 1])`, so `tree[1]` is the
    /// maximum over every line.
    tree: Vec<u64>,
    /// Entries held by all candidates.
    held: usize,
    /// Fenwick tree (1-based) of entries held, by OPT Number. Removals
    /// add the two's complement; every prefix sum is a true count.
    by_opt: Vec<u32>,
}

impl VictimIndex {
    fn new(lines: usize) -> Self {
        VictimIndex {
            tree: vec![0; 2 * lines],
            held: 0,
            by_opt: vec![0; TileRank::OPT_MAX as usize + 2],
        }
    }

    fn set_key(&mut self, line: usize, key: u64) {
        let mut k = line + self.tree.len() / 2;
        self.tree[k] = key;
        while k > 1 {
            k /= 2;
            let m = self.tree[2 * k].max(self.tree[2 * k + 1]);
            if self.tree[k] == m {
                break; // ancestors already agree
            }
            self.tree[k] = m;
        }
    }

    fn add_held(&mut self, opt: TileRank, delta: u32) {
        let mut k = opt.0 as usize + 1;
        while k < self.by_opt.len() {
            self.by_opt[k] = self.by_opt[k].wrapping_add(delta);
            k += k & k.wrapping_neg();
        }
    }

    /// `line` became a candidate holding `attrs` entries.
    fn insert(&mut self, line: usize, opt: TileRank, attrs: u8) {
        self.set_key(line, ((opt.0 as u64 + 1) << 32) | line as u64);
        self.held += attrs as usize;
        self.add_held(opt, attrs as u32);
    }

    /// `line` (a candidate with these fields) stops being one.
    fn remove(&mut self, line: usize, opt: TileRank, attrs: u8) {
        self.set_key(line, 0);
        self.held -= attrs as usize;
        self.add_held(opt, (attrs as u32).wrapping_neg());
    }

    /// The candidate with the greatest `(opt, line index)`.
    fn victim(&self) -> Option<usize> {
        let top = self.tree[1];
        (top != 0).then_some(top as u32 as usize)
    }

    /// Entries held by candidates whose OPT Number exceeds `floor`.
    fn held_above(&self, floor: TileRank) -> usize {
        let mut at_or_below = 0u32;
        let mut k = floor.0 as usize + 1;
        while k > 0 {
            at_or_below = at_or_below.wrapping_add(self.by_opt[k]);
            k &= k - 1;
        }
        self.held - at_or_below as usize
    }
}

/// The Attribute Cache.
#[derive(Clone, Debug)]
pub struct AttributeCache {
    cfg: AttributeCacheConfig,
    /// Per line: [`INVALID`], [`LOCKED`] or [`CANDIDATE`]. With `opt`
    /// this is the line state itself (structure of arrays), kept dense
    /// so the self-check scans it at SIMD width.
    state: Vec<u8>,
    /// Per line: the 12-bit saturated OPT Number. Stale, not cleared,
    /// once the line is invalid.
    opt: Vec<u16>,
    lines: Vec<PbLine>,
    /// Attribute Buffer: next-entry links (the attribute payloads carry no
    /// information the simulator needs).
    ab_next: Vec<Option<u32>>,
    free: Vec<u32>,
    /// The candidate lines, kept in step with `state`/`opt` at every
    /// lock, unlock, OPT change, fill and eviction.
    index: VictimIndex,
    stats: AccessStats,
    locked_prims: u64,
    resident: usize,
    occ_samples: u64,
    occ_entries_sum: u64,
    occ_prims_sum: u64,
    stall_events: u64,
    /// Attribute blocks evicted dirty (each becomes one L2 write in the
    /// system driver), counted at the eviction site. Kept separate from
    /// `stats.writebacks` so the energy model's inputs are untouched.
    wb_blocks: u64,
    /// OPT self-check failures: a selected victim that was not the
    /// farthest-future eligible candidate (Hawkeye-style self-checking
    /// oracle; always 0 unless victim selection regresses).
    opt_violations: u64,
}

impl AttributeCache {
    /// Creates an empty Attribute Cache.
    pub fn new(cfg: AttributeCacheConfig) -> Self {
        assert!(cfg.ways > 0 && cfg.pb_lines.is_multiple_of(cfg.ways));
        AttributeCache {
            cfg,
            state: vec![INVALID; cfg.pb_lines],
            opt: vec![0; cfg.pb_lines],
            lines: vec![PbLine::default(); cfg.pb_lines],
            ab_next: vec![None; cfg.ab_entries],
            free: (0..cfg.ab_entries as u32).rev().collect(),
            index: VictimIndex::new(cfg.pb_lines),
            stats: AccessStats::new(),
            locked_prims: 0,
            resident: 0,
            occ_samples: 0,
            occ_entries_sum: 0,
            occ_prims_sum: 0,
            stall_events: 0,
            wb_blocks: 0,
            opt_violations: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &AttributeCacheConfig {
        &self.cfg
    }

    /// Accumulated statistics. Bypassed writes count in
    /// [`AccessStats::bypasses`], not as accesses.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Free Attribute Buffer entries.
    pub fn free_entries(&self) -> usize {
        self.free.len()
    }

    /// Resident (valid) primitives.
    pub fn resident_primitives(&self) -> usize {
        self.resident
    }

    /// Mean Attribute Buffer occupancy over the accesses so far, as a
    /// fraction of `ab_entries` — evidence for the paper's zero-overhead
    /// sizing argument (§III.C.2).
    pub fn avg_buffer_utilization(&self) -> f64 {
        if self.occ_samples == 0 {
            0.0
        } else {
            self.occ_entries_sum as f64 / (self.occ_samples as f64 * self.cfg.ab_entries as f64)
        }
    }

    /// Mean Primitive Buffer occupancy over the accesses so far, as a
    /// fraction of `pb_lines`.
    pub fn avg_line_utilization(&self) -> f64 {
        if self.occ_samples == 0 {
            0.0
        } else {
            self.occ_prims_sum as f64 / (self.occ_samples as f64 * self.cfg.pb_lines as f64)
        }
    }

    /// Read attempts that stalled on locks (the fetcher had to wait for
    /// the Rasterizer).
    pub fn stall_events(&self) -> u64 {
        self.stall_events
    }

    /// Attribute blocks evicted dirty, counted at the eviction site.
    pub fn writeback_blocks(&self) -> u64 {
        self.wb_blocks
    }

    /// OPT self-check failures (0 in a correct run).
    pub fn opt_violations(&self) -> u64 {
        self.opt_violations
    }

    fn sample_occupancy(&mut self) {
        self.occ_samples += 1;
        self.occ_entries_sum += (self.cfg.ab_entries - self.free.len()) as u64;
        self.occ_prims_sum += self.resident as u64;
    }

    /// Number of currently locked primitives.
    pub fn locked_primitives(&self) -> u64 {
        self.locked_prims
    }

    fn set_of(&self, prim: PrimitiveId) -> usize {
        self.cfg
            .indexing
            .set_of(prim.0 as u64, self.cfg.num_sets() as u64) as usize
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    fn find(&self, prim: PrimitiveId) -> Option<usize> {
        let set = self.set_of(prim);
        self.set_range(set)
            .find(|&i| self.state[i] != INVALID && self.lines[i].prim == prim)
    }

    /// Line `i`'s stored OPT Number.
    fn rank(&self, i: usize) -> TileRank {
        TileRank(u32::from(self.opt[i]))
    }

    fn alloc_chain(&mut self, count: u8) -> u32 {
        debug_assert!(self.free.len() >= count as usize);
        let head = self.free.pop().expect("space checked");
        let mut cur = head;
        for _ in 1..count {
            let nxt = self.free.pop().expect("space checked");
            self.ab_next[cur as usize] = Some(nxt);
            cur = nxt;
        }
        self.ab_next[cur as usize] = None;
        head
    }

    fn free_chain(&mut self, head: u32) {
        let mut cur = Some(head);
        while let Some(i) = cur {
            cur = self.ab_next[i as usize].take();
            self.free.push(i);
        }
    }

    /// Makes the (empty) line `idx` resident: allocates its attribute
    /// chain and, unless it starts locked, enters it in the index.
    fn fill(&mut self, idx: usize, prim: PrimitiveId, attr_count: u8, opt: TileRank, lock: bool) {
        debug_assert_eq!(self.state[idx], INVALID);
        debug_assert!(opt.0 <= TileRank::OPT_MAX);
        let abp = self.alloc_chain(attr_count);
        self.state[idx] = if lock { LOCKED } else { CANDIDATE };
        self.opt[idx] = opt.0 as u16;
        self.lines[idx] = PbLine {
            // Read fills arrive locked and clean; Polygon List Builder
            // writes arrive unlocked and dirty.
            dirty: !lock,
            prim,
            abp,
            attr_count,
        };
        self.resident += 1;
        if lock {
            self.locked_prims += 1;
        } else {
            self.index.insert(idx, opt, attr_count);
        }
    }

    fn evict_line(&mut self, idx: usize) -> EvictedPrim {
        let line = self.lines[idx];
        debug_assert_eq!(self.state[idx], CANDIDATE);
        self.index.remove(idx, self.rank(idx), line.attr_count);
        if line.dirty {
            self.wb_blocks += line.attr_count as u64;
        }
        self.free_chain(line.abp);
        self.state[idx] = INVALID;
        self.lines[idx] = PbLine::default();
        self.resident -= 1;
        EvictedPrim {
            prim: line.prim,
            dirty: line.dirty,
            attr_count: line.attr_count,
        }
    }

    fn unlock_line(&mut self, idx: usize) {
        if self.state[idx] == LOCKED {
            self.state[idx] = CANDIDATE;
            self.locked_prims -= 1;
            self.index
                .insert(idx, self.rank(idx), self.lines[idx].attr_count);
        }
    }

    /// The unlocked line in `set` with the greatest OPT Number, if any.
    fn best_victim(&self, set: usize) -> Option<usize> {
        self.set_range(set)
            .filter(|&i| self.state[i] == CANDIDATE)
            .max_by_key(|&i| self.opt[i])
    }

    /// OPT self-check over the set-scoped eviction: counts a violation if
    /// an unlocked survivor of `set` will be used farther in the future
    /// than the chosen victim. Re-derived with an independent scan, not
    /// the selection code — call *before* `evict_line`.
    fn audit_set_victim(&mut self, set: usize, chosen: usize) {
        let range = self.set_range(set);
        let bar = self.opt[chosen];
        self.opt_violations += violations(&self.state[range.clone()], &self.opt[range], bar);
    }

    /// OPT self-check over a cache-wide eviction. `floor` restricts the
    /// eligible candidates (the write path may only evict lines strictly
    /// farther-future than the written primitive).
    fn audit_global_victim(&mut self, chosen: usize, floor: Option<TileRank>) {
        let floor = floor.map_or(0, |f| f.saturated().0 as u16);
        let bar = self.opt[chosen].max(floor);
        self.opt_violations += violations(&self.state, &self.opt, bar);
    }

    /// Frees Attribute Buffer space by evicting unlocked primitives
    /// cache-wide in OPT order (only those strictly above `floor`, if
    /// given) until `needed` entries are free. The caller has checked
    /// that enough such entries exist.
    fn make_space(
        &mut self,
        needed: usize,
        floor: Option<TileRank>,
        evicted: &mut Vec<EvictedPrim>,
    ) {
        while self.free.len() < needed {
            let victim = self
                .index
                .victim()
                .filter(|&i| floor.is_none_or(|f| self.rank(i) > f))
                .expect("feasibility checked");
            self.audit_global_victim(victim, floor);
            evicted.push(self.evict_line(victim));
        }
    }

    /// Reserves a line and `attr_count` Attribute Buffer entries for
    /// `prim`, evicting the farthest-future unlocked lines: the set's
    /// best victim if the set is full, then cache-wide for space. The
    /// read-miss path, and the write path of the no-bypass ablation.
    /// Returns `None`, leaving the cache untouched, when locks make it
    /// impossible.
    fn reserve(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        opt: TileRank,
        lock: bool,
    ) -> Option<Vec<EvictedPrim>> {
        let set = self.set_of(prim);
        let line_idx = self
            .set_range(set)
            .find(|&i| self.state[i] == INVALID)
            .or_else(|| self.best_victim(set))?; // every line of the set locked
        if self.free.len() + self.index.held < attr_count as usize {
            return None; // locked primitives hold the buffer
        }
        let mut evicted = Vec::new();
        if self.state[line_idx] != INVALID {
            self.audit_set_victim(set, line_idx);
            evicted.push(self.evict_line(line_idx));
        }
        // §III.C.3 Miss: "In case of a dearth of space, more primitives
        // are evicted using OPT".
        self.make_space(attr_count as usize, None, &mut evicted);
        self.fill(line_idx, prim, attr_count, opt, lock);
        Some(evicted)
    }

    /// Tile Fetcher read of `prim` (which has `attr_count` attributes) on
    /// behalf of the tile whose PMD supplied `opt_number` (§III.C.3).
    ///
    /// On a hit the line is locked and its OPT Number updated from the
    /// request. On a miss a line is reserved (and locked): the caller
    /// fetches the attribute blocks from the L2 and, when they arrive,
    /// the primitive is resident. `Stalled` means every candidate is
    /// locked; the caller must let the Rasterizer drain and retry.
    pub fn read(&mut self, prim: PrimitiveId, attr_count: u8, opt_number: TileRank) -> ReadResult {
        // OPT Numbers are a 12-bit hardware field (§III.C): saturate the
        // incoming rank exactly where hardware latches it.
        let opt_number = opt_number.saturated();
        self.sample_occupancy();
        if let Some(idx) = self.find(prim) {
            self.stats.record_read(true);
            if self.state[idx] == CANDIDATE {
                self.index
                    .remove(idx, self.rank(idx), self.lines[idx].attr_count);
                self.state[idx] = LOCKED;
                self.locked_prims += 1;
            }
            self.opt[idx] = opt_number.0 as u16;
            self.stats.probes += 1;
            return ReadResult::Hit;
        }
        match self.reserve(prim, attr_count, opt_number, true) {
            Some(evicted) => {
                self.stats.record_read(false);
                self.stats.probes += 1;
                ReadResult::Miss { evicted }
            }
            None => {
                self.stall_events += 1;
                ReadResult::Stalled
            }
        }
    }

    /// Polygon List Builder write of a new primitive whose first use is
    /// the tile at rank `first_use` (§III.C.4).
    pub fn write(&mut self, prim: PrimitiveId, attr_count: u8, first_use: TileRank) -> WriteResult {
        // Same 12-bit saturation as the read path (§III.C).
        let first_use = first_use.saturated();
        self.sample_occupancy();
        debug_assert!(
            self.find(prim).is_none(),
            "each primitive is written exactly once"
        );
        let evicted = if self.cfg.write_bypass {
            self.write_or_bypass(prim, attr_count, first_use)
        } else {
            // Ablation: no bypass — allocate like a read (evict the
            // farthest-future unlocked line unconditionally), falling
            // back to bypass only when locks leave no room.
            self.reserve(prim, attr_count, first_use, false)
        };
        match evicted {
            Some(evicted) => {
                self.stats.record_write(false); // every PLB write is a (compulsory) miss
                self.stats.probes += 1;
                WriteResult::Allocated { evicted }
            }
            None => {
                self.stats.bypasses += 1;
                WriteResult::Bypassed
            }
        }
    }

    /// The write path with bypass (§III.C.4): allocate only by evicting
    /// primitives strictly farther-future than `first_use`; `None` means
    /// bypass to the L2.
    fn write_or_bypass(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        first_use: TileRank,
    ) -> Option<Vec<EvictedPrim>> {
        let set = self.set_of(prim);
        let line_idx = match self.set_range(set).find(|&i| self.state[i] == INVALID) {
            Some(i) => i,
            // Full set: the best victim must be used strictly later than
            // this primitive; otherwise every line of the set is used no
            // later, and equality also bypasses.
            None => self
                .best_victim(set)
                .filter(|&v| self.rank(v) > first_use)?,
        };
        // Attribute Buffer space: free entries plus those held by
        // unlocked primitives strictly farther-future than this write
        // (only those may be evicted on the write path).
        if self.free.len() + self.index.held_above(first_use) < attr_count as usize {
            return None;
        }
        let mut evicted = Vec::new();
        if self.state[line_idx] != INVALID {
            self.audit_set_victim(set, line_idx);
            evicted.push(self.evict_line(line_idx));
        }
        self.make_space(attr_count as usize, Some(first_use), &mut evicted);
        self.fill(line_idx, prim, attr_count, first_use, false);
        Some(evicted)
    }

    /// Rasterizer consumed `prim`'s attributes: unlock its line and
    /// attribute chain (§III.C.3 "Rasterizer Read"). Idempotent; a
    /// primitive already evicted (only possible when unlocked) is a no-op.
    pub fn unlock(&mut self, prim: PrimitiveId) {
        if let Some(idx) = self.find(prim) {
            self.unlock_line(idx);
        }
    }

    /// Whether `prim` is resident.
    pub fn contains(&self, prim: PrimitiveId) -> bool {
        self.find(prim).is_some()
    }

    /// The stored OPT Number of a resident primitive.
    pub fn peek_opt(&self, prim: PrimitiveId) -> Option<TileRank> {
        self.find(prim).map(|i| self.rank(i))
    }

    /// End of frame: evicts every resident primitive (unlocking first),
    /// returning them for dirty write-back accounting.
    pub fn drain(&mut self) -> Vec<EvictedPrim> {
        let mut out = Vec::new();
        for i in 0..self.state.len() {
            if self.state[i] != INVALID {
                self.unlock_line(i);
                out.push(self.evict_line(i));
            }
        }
        debug_assert_eq!(self.free.len(), self.cfg.ab_entries);
        debug_assert_eq!(self.index.held, 0);
        out
    }
}

/// 1 if some [`CANDIDATE`] line holds an OPT Number above `bar`, else
/// 0: a branch-free fold over every line with no early exit, so the
/// compiler vectorizes it (a clean run scans every line anyway). The
/// chosen victim itself never exceeds `bar`.
fn violations(state: &[u8], opt: &[u16], bar: u16) -> u64 {
    let opt = &opt[..state.len()];
    let hit = state.iter().zip(opt).fold(0u8, |acc, (&s, &o)| {
        acc | (u8::from(s == CANDIDATE) & u8::from(o > bar))
    });
    u64::from(hit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(ways: usize, pb_lines: usize, ab_entries: usize) -> AttributeCache {
        AttributeCache::new(AttributeCacheConfig {
            ways,
            pb_lines,
            ab_entries,
            indexing: Indexing::Xor,
            write_bypass: true,
        })
    }

    /// A fully-associative 2-primitive cache as in the paper's worked
    /// example (Fig. 9/10): 2 lines, 6 attribute entries (3 each).
    fn example_cache() -> AttributeCache {
        cache(2, 2, 6)
    }

    #[test]
    fn write_allocates_until_full() {
        let mut c = example_cache();
        assert!(matches!(
            c.write(PrimitiveId(0), 3, TileRank(0)),
            WriteResult::Allocated { .. }
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1)),
            WriteResult::Allocated { .. }
        ));
        assert_eq!(c.resident_primitives(), 2);
        assert_eq!(c.free_entries(), 0);
    }

    /// The paper's example, write 3 (Fig. 10, OPT side): prim 2 has first
    /// use at tile 3 (rank 3); residents have OPT numbers 0 and 1 — all
    /// sooner — so the write is bypassed.
    #[test]
    fn write_bypasses_when_residents_are_nearer_future() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0));
        c.write(PrimitiveId(1), 3, TileRank(1));
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(3)),
            WriteResult::Bypassed
        );
        assert!(c.contains(PrimitiveId(0)));
        assert!(c.contains(PrimitiveId(1)));
        assert_eq!(c.stats().bypasses, 1);
    }

    #[test]
    fn write_evicts_farther_future_resident() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5));
        c.write(PrimitiveId(1), 3, TileRank(9));
        // New primitive first used at rank 2: evict prim 1 (rank 9).
        match c.write(PrimitiveId(2), 3, TileRank(2)) {
            WriteResult::Allocated { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].prim, PrimitiveId(1));
                assert!(evicted[0].dirty);
            }
            other => panic!("expected allocation, got {other:?}"),
        }
        assert!(c.contains(PrimitiveId(2)));
        assert!(!c.contains(PrimitiveId(1)));
    }

    #[test]
    fn equal_opt_number_bypasses() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(4));
        c.write(PrimitiveId(1), 3, TileRank(4));
        assert_eq!(
            c.write(PrimitiveId(2), 3, TileRank(4)),
            WriteResult::Bypassed
        );
    }

    #[test]
    fn read_hit_locks_and_updates_opt() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0));
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(3)), ReadResult::Hit);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(3)));
        assert_eq!(c.locked_primitives(), 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn read_miss_reserves_and_can_evict() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7));
        c.write(PrimitiveId(1), 3, TileRank(8));
        // Reading prim 2 (next use rank 9): must evict one of the others.
        match c.read(PrimitiveId(2), 3, TileRank(9)) {
            ReadResult::Miss { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].prim, PrimitiveId(1)); // farthest (8)
            }
            other => panic!("expected miss, got {other:?}"),
        }
        assert!(c.contains(PrimitiveId(2)));
    }

    #[test]
    fn locked_lines_are_not_victims() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(7));
        c.write(PrimitiveId(1), 3, TileRank(8));
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(9)), ReadResult::Hit); // locks prim 0
        assert_eq!(c.read(PrimitiveId(1), 3, TileRank(9)), ReadResult::Hit); // locks prim 1
                                                                             // Everything locked: a read miss must stall.
        assert_eq!(c.read(PrimitiveId(2), 3, TileRank(10)), ReadResult::Stalled);
        c.unlock(PrimitiveId(0));
        // Now prim 0 is evictable.
        assert!(matches!(
            c.read(PrimitiveId(2), 3, TileRank(10)),
            ReadResult::Miss { .. }
        ));
    }

    #[test]
    fn variable_attr_counts_share_the_buffer() {
        // 4 lines, 8 entries: a 5-attribute primitive plus a 3-attribute
        // one exactly fill the buffer.
        let mut c = cache(4, 4, 8);
        assert!(matches!(
            c.write(PrimitiveId(0), 5, TileRank(0)),
            WriteResult::Allocated { .. }
        ));
        assert!(matches!(
            c.write(PrimitiveId(1), 3, TileRank(1)),
            WriteResult::Allocated { .. }
        ));
        assert_eq!(c.free_entries(), 0);
        // A third one first-used later than both residents: bypass.
        assert_eq!(
            c.write(PrimitiveId(2), 1, TileRank(2)),
            WriteResult::Bypassed
        );
        // First-used EARLIER than prim 0 (rank 0)? No line is
        // strictly-later than rank 0 except... prim 1 (rank 1) is. Evicting
        // prim 1 frees 3 entries for a 2-attribute newcomer at rank 0.
        // (Write-path evictions only take strictly-farther lines.)
        match c.write(PrimitiveId(3), 2, TileRank(0)) {
            WriteResult::Allocated { evicted } => {
                assert!(evicted.iter().any(|e| e.prim == PrimitiveId(1)));
            }
            other => panic!("expected allocation, got {other:?}"),
        }
    }

    #[test]
    fn free_list_never_leaks() {
        let mut c = cache(2, 8, 24);
        // Churn: write, read, evict many primitives with varied sizes.
        for i in 0..200u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 50));
            if i % 3 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 50 + 1),
                );
            }
            if i % 4 == 0 {
                c.unlock(PrimitiveId(i / 2));
            }
        }
        // Every entry is either free or owned by exactly one resident.
        let owned: usize = (0..c.lines.len())
            .filter(|&i| c.state[i] != INVALID)
            .map(|i| c.lines[i].attr_count as usize)
            .sum();
        assert_eq!(owned + c.free_entries(), c.config().ab_entries);
        let drained = c.drain();
        assert_eq!(c.free_entries(), c.config().ab_entries);
        assert_eq!(
            drained.iter().map(|e| e.attr_count as usize).sum::<usize>(),
            owned
        );
    }

    #[test]
    fn drain_reports_dirty_lines() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0)); // dirty
        c.read(PrimitiveId(1), 3, TileRank(1)); // miss fill: clean
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        let by_prim = |p: u32| drained.iter().find(|e| e.prim == PrimitiveId(p)).unwrap();
        assert!(by_prim(0).dirty);
        assert!(!by_prim(1).dirty);
    }

    #[test]
    fn probes_count_only_classified_accesses() {
        // Stalls and bypasses record neither hit nor miss — probes must
        // match the classified accesses exactly (the audit invariant).
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(0)); // allocated (write miss)
        c.write(PrimitiveId(1), 3, TileRank(1)); // allocated
        c.write(PrimitiveId(2), 3, TileRank(3)); // bypassed: no probe
        assert_eq!(c.read(PrimitiveId(0), 3, TileRank(2)), ReadResult::Hit);
        assert_eq!(c.read(PrimitiveId(1), 3, TileRank(2)), ReadResult::Hit);
        assert_eq!(c.read(PrimitiveId(3), 3, TileRank(5)), ReadResult::Stalled); // no probe
        let s = c.stats();
        assert_eq!(s.probes, s.hits() + s.misses());
        assert_eq!(s.probes, 4);
        assert_eq!(s.bypasses, 1);
        assert_eq!(c.stall_events(), 1);
    }

    #[test]
    fn dirty_evictions_count_writeback_blocks() {
        let mut c = example_cache();
        c.write(PrimitiveId(0), 3, TileRank(5)); // dirty
        c.write(PrimitiveId(1), 3, TileRank(9)); // dirty
                                                 // Rank-2 write evicts prim 1 (3 dirty attribute blocks).
        c.write(PrimitiveId(2), 3, TileRank(2));
        assert_eq!(c.writeback_blocks(), 3);
        // Clean (read-filled) evictions add nothing.
        c.read(PrimitiveId(0), 3, TileRank(3));
        c.unlock(PrimitiveId(0));
        let drained = c.drain();
        let dirty_attrs: u64 = drained
            .iter()
            .filter(|e| e.dirty)
            .map(|e| e.attr_count as u64)
            .sum();
        assert_eq!(c.writeback_blocks(), 3 + dirty_attrs);
    }

    #[test]
    fn opt_self_check_is_clean_under_churn() {
        let mut c = cache(2, 8, 24);
        for i in 0..500u32 {
            let attrs = 1 + (i % 5) as u8;
            let _ = c.write(PrimitiveId(i), attrs, TileRank(i % 40));
            if i % 2 == 0 {
                let _ = c.read(
                    PrimitiveId(i / 2),
                    1 + ((i / 2) % 5) as u8,
                    TileRank(i % 40 + 1),
                );
            }
            if i % 3 == 0 {
                c.unlock(PrimitiveId(i / 3));
            }
        }
        assert_eq!(c.opt_violations(), 0);
    }

    #[test]
    fn opt_numbers_saturate_at_twelve_bits() {
        let mut c = example_cache();
        // A first use past the 12-bit field stores as 4095, exactly like
        // a NEVER rank: the two become indistinguishable, as in hardware.
        c.write(PrimitiveId(0), 3, TileRank(5000));
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        c.read(PrimitiveId(0), 3, TileRank::NEVER);
        assert_eq!(c.peek_opt(PrimitiveId(0)), Some(TileRank(4095)));
        // Saturated residents still lose to nearer-future newcomers…
        c.unlock(PrimitiveId(0));
        c.write(PrimitiveId(1), 3, TileRank(4094));
        match c.write(PrimitiveId(2), 3, TileRank(10)) {
            WriteResult::Allocated { evicted } => {
                assert_eq!(
                    evicted[0].prim,
                    PrimitiveId(0),
                    "farthest (4095) goes first"
                );
            }
            other => panic!("expected allocation, got {other:?}"),
        }
    }

    #[test]
    fn budget_constructor_is_consistent() {
        let cfg = AttributeCacheConfig::from_budget(48 << 10, 4);
        assert_eq!(cfg.ab_entries, 768);
        assert_eq!(cfg.pb_lines % 4, 0);
        assert!(cfg.num_sets() > 0);
        let c = AttributeCache::new(cfg);
        assert_eq!(c.free_entries(), 768);
    }

    /// One fully-associative set holding prim 0 (OPT 5) and prim 1
    /// (OPT 9), both unlocked; returns the cache and prim 0's line.
    fn audit_fixture() -> (AttributeCache, usize) {
        let mut c = cache(4, 4, 12);
        c.write(PrimitiveId(0), 3, TileRank(5));
        c.write(PrimitiveId(1), 3, TileRank(9));
        let near = c.find(PrimitiveId(0)).unwrap();
        (c, near)
    }

    #[test]
    fn audits_count_a_non_maximal_victim() {
        let (mut c, near) = audit_fixture();
        let far = c.find(PrimitiveId(1)).unwrap();
        c.audit_global_victim(far, None);
        c.audit_set_victim(0, far);
        assert_eq!(c.opt_violations(), 0, "the farthest line is a clean pick");
        c.audit_global_victim(near, None);
        assert_eq!(c.opt_violations(), 1);
        c.audit_set_victim(0, near);
        assert_eq!(c.opt_violations(), 2);
    }

    #[test]
    fn the_global_audit_honours_the_floor() {
        let (mut c, near) = audit_fixture();
        // Only lines strictly above the floor were eligible: prim 1
        // (OPT 9) is not above a floor of 9, so taking prim 0 was fine.
        c.audit_global_victim(near, Some(TileRank(9)));
        assert_eq!(c.opt_violations(), 0);
        c.audit_global_victim(near, Some(TileRank(8)));
        assert_eq!(c.opt_violations(), 1);
    }

    #[test]
    fn audits_ignore_a_farther_future_locked_line() {
        let (mut c, near) = audit_fixture();
        assert_eq!(c.read(PrimitiveId(1), 3, TileRank(20)), ReadResult::Hit);
        c.audit_global_victim(near, None);
        c.audit_set_victim(0, near);
        assert_eq!(c.opt_violations(), 0);
    }

    #[test]
    fn audits_ignore_the_stale_opt_of_an_invalid_line() {
        let (mut c, near) = audit_fixture();
        let far = c.find(PrimitiveId(1)).unwrap();
        c.evict_line(far);
        // The freed slot keeps its old OPT Number in the column.
        assert_eq!((c.state[far], c.opt[far]), (INVALID, 9));
        c.audit_global_victim(near, None);
        c.audit_set_victim(0, near);
        assert_eq!(c.opt_violations(), 0);
    }
}
