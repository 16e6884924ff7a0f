//! Differential test of the Attribute Cache's indexed victim selection.
//!
//! [`ScanCache`] is the straightforward model of §III.C: every
//! cache-wide question (the farthest-future unlocked victim, how many
//! entries unlocked primitives hold) is answered by scanning every
//! Primitive Buffer line. The production [`AttributeCache`] answers them
//! from an incrementally maintained index. Both are driven with the same
//! seeded operation sequences and must agree on every result, in every
//! counter, and in the order of every eviction list.

use tcor::{AttributeCache, AttributeCacheConfig, EvictedPrim, ReadResult, WriteResult};
use tcor_cache::Indexing;
use tcor_common::{AccessStats, PrimitiveId, SmallRng, TileRank};

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    lock: bool,
    dirty: bool,
    prim: PrimitiveId,
    opt: TileRank,
    attr_count: u8,
}

/// The scan-based reference model. Attribute Buffer entries are only
/// counted: which entries a chain occupies never affects a decision.
struct ScanCache {
    cfg: AttributeCacheConfig,
    lines: Vec<Line>,
    free: usize,
    stats: AccessStats,
    stall_events: u64,
    wb_blocks: u64,
}

impl ScanCache {
    fn new(cfg: AttributeCacheConfig) -> Self {
        ScanCache {
            cfg,
            lines: vec![Line::default(); cfg.pb_lines],
            free: cfg.ab_entries,
            stats: AccessStats::new(),
            stall_events: 0,
            wb_blocks: 0,
        }
    }

    fn set_range(&self, prim: PrimitiveId) -> std::ops::Range<usize> {
        let set = self
            .cfg
            .indexing
            .set_of(prim.0 as u64, self.cfg.num_sets() as u64) as usize;
        set * self.cfg.ways..(set + 1) * self.cfg.ways
    }

    fn find(&self, prim: PrimitiveId) -> Option<usize> {
        self.set_range(prim)
            .find(|&i| self.lines[i].valid && self.lines[i].prim == prim)
    }

    fn unlocked(&self, i: usize) -> bool {
        self.lines[i].valid && !self.lines[i].lock
    }

    /// Greatest OPT Number among unlocked lines of `range` above `floor`;
    /// `max_by_key` keeps the last maximum, so ties go to the highest line.
    fn scan_victim(&self, range: std::ops::Range<usize>, floor: Option<TileRank>) -> Option<usize> {
        range
            .filter(|&i| self.unlocked(i) && floor.is_none_or(|f| self.lines[i].opt > f))
            .max_by_key(|&i| self.lines[i].opt)
    }

    fn reclaimable(&self, floor: Option<TileRank>) -> usize {
        (0..self.lines.len())
            .filter(|&i| self.unlocked(i) && floor.is_none_or(|f| self.lines[i].opt > f))
            .map(|i| self.lines[i].attr_count as usize)
            .sum()
    }

    fn evict(&mut self, i: usize) -> EvictedPrim {
        let line = std::mem::take(&mut self.lines[i]);
        if line.dirty {
            self.wb_blocks += line.attr_count as u64;
        }
        self.free += line.attr_count as usize;
        EvictedPrim {
            prim: line.prim,
            dirty: line.dirty,
            attr_count: line.attr_count,
        }
    }

    fn make_space(&mut self, needed: usize, floor: Option<TileRank>, out: &mut Vec<EvictedPrim>) {
        while self.free < needed {
            let v = self
                .scan_victim(0..self.lines.len(), floor)
                .expect("feasibility checked");
            out.push(self.evict(v));
        }
    }

    fn fill(&mut self, i: usize, prim: PrimitiveId, attr_count: u8, opt: TileRank, lock: bool) {
        self.free -= attr_count as usize;
        self.lines[i] = Line {
            valid: true,
            lock,
            dirty: !lock,
            prim,
            opt,
            attr_count,
        };
    }

    fn reserve(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        opt: TileRank,
        lock: bool,
    ) -> Option<Vec<EvictedPrim>> {
        let range = self.set_range(prim);
        let empty = range.clone().find(|&i| !self.lines[i].valid);
        let victim = self.scan_victim(range, None);
        if empty.is_none() && victim.is_none() {
            return None;
        }
        if self.free + self.reclaimable(None) < attr_count as usize {
            return None;
        }
        let mut evicted = Vec::new();
        let idx = match empty {
            Some(i) => i,
            None => {
                let v = victim.expect("checked above");
                evicted.push(self.evict(v));
                v
            }
        };
        self.make_space(attr_count as usize, None, &mut evicted);
        self.fill(idx, prim, attr_count, opt, lock);
        Some(evicted)
    }

    fn read(&mut self, prim: PrimitiveId, attr_count: u8, opt: TileRank) -> ReadResult {
        let opt = opt.saturated();
        if let Some(i) = self.find(prim) {
            self.stats.record_read(true);
            self.stats.probes += 1;
            self.lines[i].lock = true;
            self.lines[i].opt = opt;
            return ReadResult::Hit;
        }
        match self.reserve(prim, attr_count, opt, true) {
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

    fn write(&mut self, prim: PrimitiveId, attr_count: u8, first_use: TileRank) -> WriteResult {
        let first_use = first_use.saturated();
        let evicted = if self.cfg.write_bypass {
            self.write_or_bypass(prim, attr_count, first_use)
        } else {
            self.reserve(prim, attr_count, first_use, false)
        };
        match evicted {
            Some(evicted) => {
                self.stats.record_write(false);
                self.stats.probes += 1;
                WriteResult::Allocated { evicted }
            }
            None => {
                self.stats.bypasses += 1;
                WriteResult::Bypassed
            }
        }
    }

    fn write_or_bypass(
        &mut self,
        prim: PrimitiveId,
        attr_count: u8,
        first_use: TileRank,
    ) -> Option<Vec<EvictedPrim>> {
        let range = self.set_range(prim);
        let empty = range.clone().find(|&i| !self.lines[i].valid);
        let feasible = self.free + self.reclaimable(Some(first_use)) >= attr_count as usize;
        let idx = match empty {
            Some(i) if feasible => i,
            _ => {
                let victim = self.scan_victim(range, None)?;
                if empty.is_none() && self.lines[victim].opt <= first_use {
                    return None;
                }
                if !feasible {
                    return None;
                }
                empty.unwrap_or(victim)
            }
        };
        let mut evicted = Vec::new();
        if self.lines[idx].valid {
            evicted.push(self.evict(idx));
        }
        self.make_space(attr_count as usize, Some(first_use), &mut evicted);
        self.fill(idx, prim, attr_count, first_use, false);
        Some(evicted)
    }

    fn unlock(&mut self, prim: PrimitiveId) {
        if let Some(i) = self.find(prim) {
            self.lines[i].lock = false;
        }
    }

    fn drain(&mut self) -> Vec<EvictedPrim> {
        let resident: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].valid)
            .collect();
        resident.into_iter().map(|i| self.evict(i)).collect()
    }

    fn resident(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }

    fn locked(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid && l.lock).count() as u64
    }
}

/// A rank drawn to exercise ties (a handful of small values), the 12-bit
/// saturation boundary and the `NEVER` sentinel.
fn rank(rng: &mut SmallRng) -> TileRank {
    match rng.random_range(0..20u32) {
        0 => TileRank(4095),
        1 => TileRank(rng.random_range(4096..10_000u32)),
        2 => TileRank::NEVER,
        3..=9 => TileRank(rng.random_range(0..6u32)),
        _ => TileRank(rng.random_range(0..300u32)),
    }
}

fn assert_same(step: usize, fast: &AttributeCache, slow: &ScanCache) {
    assert_eq!(fast.stats(), &slow.stats, "stats diverged at op {step}");
    assert_eq!(fast.free_entries(), slow.free, "free entries at op {step}");
    assert_eq!(fast.stall_events(), slow.stall_events, "op {step}");
    assert_eq!(fast.writeback_blocks(), slow.wb_blocks, "op {step}");
    assert_eq!(fast.opt_violations(), 0, "OPT self-check at op {step}");
    if step.is_multiple_of(64) {
        // Counting scans of the reference: sampled to keep the test fast.
        assert_eq!(fast.resident_primitives(), slow.resident(), "op {step}");
        assert_eq!(fast.locked_primitives(), slow.locked(), "op {step}");
    }
}

/// Drives both models through `ops` seeded operations: Polygon List
/// Builder writes of fresh primitives, Tile Fetcher reads of any
/// primitive seen so far (locking it into a bounded output queue, as the
/// system driver does), stray unlocks, and occasional end-of-frame drains.
/// A `queue_depth` near the line count lets locks pile up into stalls.
/// Returns how often the paths under test were taken.
fn run(cfg: AttributeCacheConfig, queue_depth: usize, seed: u64, ops: usize) -> Coverage {
    let mut seen = Coverage::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fast = AttributeCache::new(cfg);
    let mut slow = ScanCache::new(cfg);
    let max_attrs = (cfg.ab_entries / 2).clamp(1, 8) as u32;
    let mut attrs: Vec<u8> = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for step in 0..ops {
        // End-of-frame drains, about once per two lines' worth of ops so
        // that large caches fill up between them.
        if rng.random_range(0..2 * cfg.pb_lines) == 0 {
            assert_eq!(fast.drain(), slow.drain(), "drain at op {step}");
            queue.clear();
            assert_same(step, &fast, &slow);
            continue;
        }
        match rng.random_range(0..100u32) {
            0..=34 => {
                let prim = PrimitiveId(attrs.len() as u32);
                let n = rng.random_range(1..max_attrs + 1) as u8;
                attrs.push(n);
                let r = rank(&mut rng);
                let got = fast.write(prim, n, r);
                assert_eq!(got, slow.write(prim, n, r), "op {step}");
                match got {
                    WriteResult::Allocated { evicted } => seen.evictions(&evicted),
                    WriteResult::Bypassed => seen.bypasses += 1,
                }
            }
            35..=89 if !attrs.is_empty() => {
                let prim = PrimitiveId(rng.random_range(0..attrs.len() as u32));
                let n = attrs[prim.index()];
                let r = rank(&mut rng);
                let got = fast.read(prim, n, r);
                assert_eq!(got, slow.read(prim, n, r), "op {step}");
                match &got {
                    ReadResult::Miss { evicted } => seen.evictions(evicted),
                    ReadResult::Stalled => seen.stalls += 1,
                    ReadResult::Hit => {}
                }
                if got == ReadResult::Stalled {
                    if let Some(oldest) = queue.pop_front() {
                        fast.unlock(oldest);
                        slow.unlock(oldest);
                    }
                } else {
                    queue.push_back(prim);
                    if queue.len() > queue_depth {
                        let oldest = queue.pop_front().expect("nonempty");
                        fast.unlock(oldest);
                        slow.unlock(oldest);
                    }
                }
            }
            90.. if !attrs.is_empty() => {
                let prim = PrimitiveId(rng.random_range(0..attrs.len() as u32));
                fast.unlock(prim);
                slow.unlock(prim);
            }
            _ => {}
        }
        assert_same(step, &fast, &slow);
    }
    assert_eq!(fast.drain(), slow.drain(), "final drain");
    assert_same(ops, &fast, &slow);
    assert_eq!(fast.free_entries(), cfg.ab_entries);
    seen
}

/// Path counts of a run: a differential test only covers what it hits.
#[derive(Debug, Default)]
struct Coverage {
    /// Results that evicted anything.
    evicting: u64,
    /// Results that evicted more than one primitive (cache-wide victims).
    multi_evicting: u64,
    stalls: u64,
    bypasses: u64,
}

impl Coverage {
    fn evictions(&mut self, evicted: &[EvictedPrim]) {
        self.evicting += u64::from(!evicted.is_empty());
        self.multi_evicting += u64::from(evicted.len() > 1);
    }

    fn add(&mut self, o: Coverage) {
        self.evicting += o.evicting;
        self.multi_evicting += o.multi_evicting;
        self.stalls += o.stalls;
        self.bypasses += o.bypasses;
    }

    fn assert_all_taken(&self) {
        assert!(
            self.evicting > 0 && self.multi_evicting > 0 && self.stalls > 0 && self.bypasses > 0,
            "a path went unexercised: {self:?}"
        );
    }
}

fn variants(base: AttributeCacheConfig) -> impl Iterator<Item = AttributeCacheConfig> {
    [Indexing::Xor, Indexing::Modulo]
        .into_iter()
        .flat_map(move |ix| {
            [true, false].map(|bypass| base.with_indexing(ix).with_write_bypass(bypass))
        })
}

#[test]
fn small_geometries_match_the_scan_model() {
    // Few lines and entries: ties, full sets, lock stalls and buffer
    // pressure on almost every operation.
    let geometries = [(2, 2, 6), (2, 8, 24), (4, 8, 8), (4, 16, 40), (8, 64, 96)];
    let mut seen = Coverage::default();
    for (g, &(ways, pb_lines, ab_entries)) in geometries.iter().enumerate() {
        let base = AttributeCacheConfig {
            ways,
            pb_lines,
            ab_entries,
            indexing: Indexing::Xor,
            write_bypass: true,
        };
        for (v, cfg) in variants(base).enumerate() {
            for seed in 0..6u64 {
                let depth = 1 + seed as usize * pb_lines / 5;
                seen.add(run(
                    cfg,
                    depth,
                    (g as u64) << 16 | (v as u64) << 8 | seed,
                    1_500,
                ));
            }
        }
    }
    seen.assert_all_taken();
}

#[test]
fn paper_budgets_match_the_scan_model() {
    // Budgets of the Tile Cache sweep: 16 KiB (256 lines) to 240 KiB
    // (3,840 lines), 4-way as in Table I.
    for kib in [16u64, 48, 112, 240] {
        let base = AttributeCacheConfig::from_budget(kib << 10, 4);
        let mut seen = Coverage::default();
        for (v, cfg) in variants(base).enumerate() {
            // The system's 16-deep fetcher output queue, then a deep one.
            let ops = base.pb_lines + 512;
            seen.add(run(cfg, 16, kib << 8 | v as u64, ops));
            seen.add(run(cfg, base.pb_lines, kib << 8 | v as u64 | 0x80, ops));
        }
        seen.assert_all_taken();
    }
}
