//! Full-system frame drivers.
//!
//! [`BaselineSystem`] and [`TcorSystem`] replay one frame — geometry,
//! binning, both Tiling Engine phases, raster-side traffic — through
//! their respective Tile Cache organizations over a shared
//! [`MemoryHierarchy`], producing a [`FrameReport`]. The access *streams*
//! are identical by construction; only the memory system differs, exactly
//! as in the paper's methodology.

use crate::attribute_cache::{
    AttributeCache, AttributeCacheConfig, EvictedPrim, ReadResult, WriteResult,
};
use crate::baseline::BaselineTileCache;
use crate::list_cache::ListCache;
use crate::report::{FrameReport, StructureActivity};
use std::collections::VecDeque;
use tcor_cache::policy::Lru;
use tcor_cache::{AccessKind, AccessMeta, Cache, Indexing};
use tcor_common::{
    BlockAddr, CacheParams, FrameTrace, GpuConfig, PrimitiveId, TileCacheOrg, TileGrid,
    TraversalOrder, LINE_SIZE,
};
use tcor_gpu::{
    bin_scene_with, fetch_ops, plb_ops, FetchOp, Frame, GeometryPipeline, MshrTiming, OverlapTest,
    PlbOp, RasterParams, RasterTraffic, Scene,
};
use tcor_mem::{L2Mode, MemoryHierarchy, PbTag};
use tcor_pbuf::{AttributesLayout, BinnedFrame, ListsLayout, ListsScheme};

/// Number of fragment processors (Fig. 5 shows four texture/instruction
/// cache pairs).
pub const FRAGMENT_PROCESSORS: u32 = 4;

/// SIMD lanes per fragment processor: each processor shades a 4-fragment
/// quad per instruction cycle (the quad granularity of §II.A).
pub const SIMD_LANES: u32 = 4;

/// Configuration for a full-system run.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Table I parameters plus the Tile Cache organization.
    pub gpu: GpuConfig,
    /// L2 behaviour ([`L2Mode::Baseline`] gives the "TCOR without L2
    /// enhancements" ablation when combined with the TCOR L1s).
    pub l2_mode: L2Mode,
    /// Tile Fetcher MSHRs (outstanding-miss overlap).
    pub mshrs: usize,
    /// Tile Fetcher output-queue depth (locked primitives in flight).
    pub queue_depth: usize,
    /// Raster-side traffic parameters.
    pub raster: RasterParams,
    /// PB-Lists layout used by the TCOR Primitive List Cache
    /// ([`ListsScheme::Baseline`] gives the layout ablation).
    pub list_scheme: ListsScheme,
    /// Warm-start the L2 with the previous frame's Parameter Buffer
    /// contents (clean lines at the same addresses — the PB is rebuilt in
    /// place every frame, so steady state keeps much of it resident).
    pub warm_l2: bool,
    /// Whether block-granularity caches (the unified Tile Cache and the
    /// Primitive List Cache) fetch the line from the L2 on a write miss.
    /// Required for correctness with partial-line writes (a PMD is 4
    /// bytes, an attribute 48 of 64); the TCOR Attribute Cache needs no
    /// fill because a primitive write carries its complete data —
    /// one of the structural advantages of the decoupled design.
    pub fetch_on_write_miss: bool,
    /// Instruction-cache geometry (shared model for the V./F. Inst caches
    /// of Fig. 5).
    pub instr_cache: CacheParams,
    /// Attribute Cache write bypass (§III.C.4); disable for the D2
    /// ablation.
    pub attr_write_bypass: bool,
    /// Attribute Cache set-index function; `Modulo` is the D5 ablation of
    /// the XOR placement \[12\].
    pub attr_indexing: Indexing,
    /// Polygon List Builder tile-overlap test (bounding box by default;
    /// the exact SAT test is the Antochi/Yang-style extension \[2\], \[39\]).
    pub overlap_test: OverlapTest,
    /// Fragment processors (4 in Fig. 5). The paper's conclusion points
    /// at "more aggressive Raster Pipeline implementations, including
    /// Parallel Renderers" — scale this up to study when the Tiling
    /// Engine becomes the bottleneck (`tcor-sim scaling`).
    pub fragment_processors: u32,
    /// SIMD lanes per fragment processor (quad granularity).
    pub simd_lanes: u32,
}

impl SystemConfig {
    fn base(gpu: GpuConfig, l2_mode: L2Mode) -> Self {
        SystemConfig {
            gpu,
            l2_mode,
            mshrs: 8,
            queue_depth: 16,
            raster: RasterParams::default(),
            list_scheme: ListsScheme::Interleaved,
            warm_l2: true,
            fetch_on_write_miss: true,
            instr_cache: CacheParams::new(8 << 10, LINE_SIZE, 4, 1),
            attr_write_bypass: true,
            attr_indexing: Indexing::Xor,
            overlap_test: OverlapTest::BoundingBox,
            fragment_processors: FRAGMENT_PROCESSORS,
            simd_lanes: SIMD_LANES,
        }
    }

    /// Baseline GPU, 64 KiB unified Tile Cache (Table I).
    pub fn paper_baseline_64k() -> Self {
        Self::base(GpuConfig::paper_baseline(), L2Mode::Baseline)
    }

    /// Baseline GPU, 128 KiB unified Tile Cache (§V.B).
    pub fn paper_baseline_128k() -> Self {
        Self::base(GpuConfig::paper_baseline_128k(), L2Mode::Baseline)
    }

    /// TCOR matching the 64 KiB budget: 16 KiB list + 48 KiB attribute
    /// caches, TCOR L2.
    pub fn paper_tcor_64k() -> Self {
        Self::base(GpuConfig::paper_tcor(), L2Mode::TcorEnhanced)
    }

    /// TCOR matching the 128 KiB budget: 16 KiB + 112 KiB.
    pub fn paper_tcor_128k() -> Self {
        Self::base(GpuConfig::paper_tcor_128k(), L2Mode::TcorEnhanced)
    }

    /// Ablation: keep the TCOR L1s but run the baseline L2 (the middle
    /// bars of Figures 20–21).
    pub fn without_l2_enhancements(mut self) -> Self {
        self.l2_mode = L2Mode::Baseline;
        self
    }

    /// Replaces the raster traffic parameters (per-benchmark
    /// calibration).
    pub fn with_raster(mut self, raster: RasterParams) -> Self {
        self.raster = raster;
        self
    }
}

/// The read-only L1s surrounding the Tile Cache (Fig. 5): vertex,
/// texture ×4 and instruction caches. Their lines are never dirty, so
/// misses are the only traffic they forward.
#[derive(Debug)]
struct OtherL1s {
    vertex: Cache<Lru>,
    textures: Vec<Cache<Lru>>,
    instr: Cache<Lru>,
    tex_rr: usize,
}

impl OtherL1s {
    fn new(cfg: &SystemConfig) -> Self {
        OtherL1s {
            vertex: Cache::new(cfg.gpu.vertex_cache, Indexing::Modulo, Lru::new()),
            textures: (0..cfg.gpu.num_texture_caches)
                .map(|_| Cache::new(cfg.gpu.texture_cache, Indexing::Modulo, Lru::new()))
                .collect(),
            instr: Cache::new(cfg.instr_cache, Indexing::Modulo, Lru::new()),
            tex_rr: 0,
        }
    }

    fn read_through(cache: &mut Cache<Lru>, block: BlockAddr, h: &mut MemoryHierarchy) {
        if !cache.access(block, AccessKind::Read, AccessMeta::NONE).hit {
            h.access(block, AccessKind::Read, PbTag::NONE);
        }
    }

    fn vertex_read(&mut self, block: BlockAddr, h: &mut MemoryHierarchy) {
        Self::read_through(&mut self.vertex, block, h);
    }

    fn texture_read(&mut self, block: BlockAddr, h: &mut MemoryHierarchy) {
        let i = self.tex_rr;
        self.tex_rr = (self.tex_rr + 1) % self.textures.len();
        Self::read_through(&mut self.textures[i], block, h);
    }

    fn instr_read(&mut self, block: BlockAddr, h: &mut MemoryHierarchy) {
        Self::read_through(&mut self.instr, block, h);
    }

    /// Zeroes all statistics while keeping cache contents (steady-state
    /// frame boundaries).
    fn reset_stats(&mut self) {
        self.vertex.reset_stats();
        for t in &mut self.textures {
            t.reset_stats();
        }
        self.instr.reset_stats();
    }
}

/// Classifies Tile Cache blocks for the L2's PB tags.
struct Tagger<'a> {
    lists: ListsLayout,
    attrs: &'a AttributesLayout,
    frame: &'a BinnedFrame,
    order: &'a TraversalOrder,
}

impl Tagger<'_> {
    fn tag_of(&self, block: BlockAddr) -> PbTag {
        use tcor_pbuf::Region;
        match Region::of_block(block) {
            Region::PbLists => match self.lists.tile_of_block(block) {
                Some(tile) => PbTag::lists(self.order.rank_of(tile)),
                None => PbTag::NONE,
            },
            Region::PbAttributes => match self.attrs.primitive_of_block(block) {
                Some(p) => {
                    PbTag::attributes(self.frame.primitive(PrimitiveId(p as u32)).last_use())
                }
                None => PbTag::NONE,
            },
            _ => PbTag::NONE,
        }
    }

    fn attr_tag(&self, prim: PrimitiveId) -> PbTag {
        PbTag::attributes(self.frame.primitive(prim).last_use())
    }
}

/// Installs the previous frame's Parameter Buffer into the L2 as clean
/// lines (steady-state warm start; the PB occupies the same addresses
/// every frame).
fn warm_l2(
    hierarchy: &mut MemoryHierarchy,
    frame: &BinnedFrame,
    order: &TraversalOrder,
    tagger: &Tagger<'_>,
    attrs_layout: &AttributesLayout,
) {
    for tile in order.iter() {
        let n_pmds = frame.tile_list(tile).len() as u32;
        let mut n = 0u32;
        while n < n_pmds {
            let b = tagger.lists.pmd_block(tile, n);
            hierarchy.warm_fill(b, tagger.tag_of(b));
            n += tcor_pbuf::PMDS_PER_BLOCK;
        }
    }
    for p in 0..attrs_layout.num_primitives() {
        for k in 0..attrs_layout.attr_count(p) {
            let b = attrs_layout.attr_block(p, k);
            hierarchy.warm_fill(b, tagger.tag_of(b));
        }
    }
}

/// Builds a fresh memory hierarchy for `cfg`.
fn new_hierarchy(cfg: &SystemConfig) -> MemoryHierarchy {
    MemoryHierarchy::new(cfg.gpu.l2, cfg.gpu.memory, cfg.l2_mode)
}

/// Runs the Geometry Pipeline (vertex traffic through the persistent
/// L1s) and bins the frame.
fn geometry_and_bin(
    cfg: &SystemConfig,
    scene: &Scene,
    l1s: &mut OtherL1s,
    hierarchy: &mut MemoryHierarchy,
) -> (TileGrid, TraversalOrder, Frame) {
    let grid = TileGrid::new(
        cfg.gpu.screen_width,
        cfg.gpu.screen_height,
        cfg.gpu.tile_size,
    );
    let order = cfg.gpu.traversal.order(&grid);
    let geo = GeometryPipeline::new(grid).run(scene);
    for b in &geo.vertex_fetch_blocks {
        l1s.vertex_read(*b, hierarchy);
    }
    let frame = bin_scene_with(&geo.visible, &grid, &order, cfg.overlap_test);
    (grid, order, frame)
}

/// Raster-side traffic for a finished tile.
fn raster_tile(
    tile_index: usize,
    frame: &Frame,
    grid: &TileGrid,
    raster: &mut RasterTraffic,
    l1s: &mut OtherL1s,
    hierarchy: &mut MemoryHierarchy,
) {
    let fragments = frame.fragments_per_tile[tile_index];
    raster.each_texture_block(fragments, |b| l1s.texture_read(b, hierarchy));
    raster.each_instruction_block(|b| l1s.instr_read(b, hierarchy));
    raster.each_framebuffer_block(tile_index, grid.tile_size(), |b| hierarchy.write_direct(b));
}

/// Assembles the final report from the run's parts.
#[allow(clippy::too_many_arguments)]
fn build_report(
    system: &'static str,
    mut structures: Vec<StructureActivity>,
    hierarchy: &MemoryHierarchy,
    l1s: &OtherL1s,
    raster: &RasterTraffic,
    frame: &Frame,
    fetch_cycles: u64,
    prims_fetched: u64,
    plb_cycles: u64,
    coupled_cycles: f64,
    pb_footprint_bytes: u64,
    shader_throughput: f64,
) -> FrameReport {
    let fragments = frame.total_fragments();
    let shader_instructions = raster.shader_instructions_executed(fragments);
    let tex_stats = l1s
        .textures
        .iter()
        .map(|c| *c.stats())
        .sum::<tcor_common::AccessStats>();
    structures.push(StructureActivity {
        name: "vertex$",
        size_bytes: l1s.vertex.params().size_bytes,
        instances: 1,
        stats: *l1s.vertex.stats(),
    });
    structures.push(StructureActivity {
        name: "tex$",
        size_bytes: l1s.textures[0].params().size_bytes,
        instances: l1s.textures.len() as u32,
        stats: tex_stats,
    });
    structures.push(StructureActivity {
        name: "instr$",
        size_bytes: l1s.instr.params().size_bytes,
        instances: 1,
        stats: *l1s.instr.stats(),
    });
    FrameReport {
        system,
        structures,
        l2_stats: *hierarchy.l2_stats(),
        l2_traffic: *hierarchy.l2_traffic(),
        mm_traffic: *hierarchy.mm_traffic(),
        dead_drops: hierarchy.dead_drops(),
        l2_wb_blocks: hierarchy.writeback_blocks(),
        pb_fill_blocks: hierarchy.pb_fill_blocks(),
        attr_wb_blocks: 0,
        attr_opt_violations: 0,
        fetch_cycles,
        prims_fetched,
        plb_cycles,
        raster_cycles: shader_instructions / shader_throughput,
        coupled_cycles,
        fragments,
        shader_instructions,
        num_primitives: frame.binned.num_primitives(),
        pb_footprint_bytes,
        attr_buffer_utilization: 0.0,
        attr_line_utilization: 0.0,
        attr_stalls: 0,
    }
}

/// Emits one tile's fetch span plus the memory-side counter samples the
/// timeline viewer plots: MSHR occupancy and the cumulative L2
/// miss/writeback/dead-drop series. Timestamps are offset by
/// `plb_cycles` so the Polygon List Builder phase and the Tile Fetcher
/// phase lay out sequentially on one clock, matching the frame's actual
/// two-phase execution.
fn emit_tile_trace(
    trace: &mut FrameTrace,
    plb_cycles: u64,
    span_start: u64,
    timing: &MshrTiming,
    hierarchy: &MemoryHierarchy,
    tile: tcor_common::TileId,
) {
    let now = plb_cycles + timing.now();
    trace.complete(
        "fetch",
        format!("tile {}", tile.index()),
        plb_cycles + span_start,
        timing.now().saturating_sub(span_start),
        vec![("tile", tile.index() as u64)],
    );
    trace.counter(
        "mshr",
        "mshr_outstanding",
        now,
        vec![("in_flight", timing.outstanding() as u64)],
    );
    trace.counter(
        "l2",
        "l2_events",
        now,
        vec![
            ("misses", hierarchy.l2_stats().misses()),
            ("writebacks", hierarchy.l2_stats().writebacks),
            ("dead_drops", hierarchy.dead_drops()),
        ],
    );
}

/// Emits the two Tiling Engine phase spans (PLB then Tile Fetcher) and
/// the end-of-frame marker.
fn emit_phase_trace(trace: &mut FrameTrace, plb_cycles: u64, fetch_cycles: u64) {
    if !trace.is_enabled() {
        return;
    }
    trace.complete("phase", "polygon list builder", 0, plb_cycles, vec![]);
    trace.complete("phase", "tile fetcher", plb_cycles, fetch_cycles, vec![]);
    trace.instant("phase", "end of frame", plb_cycles + fetch_cycles);
}

/// The baseline GPU: unified LRU Tile Cache, baseline layouts, LRU L2.
#[derive(Clone, Debug)]
pub struct BaselineSystem {
    cfg: SystemConfig,
}

impl BaselineSystem {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's Tile Cache organization is not
    /// [`TileCacheOrg::Unified`].
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            matches!(cfg.gpu.tile_cache, TileCacheOrg::Unified { .. }),
            "baseline system needs a unified tile cache"
        );
        BaselineSystem { cfg }
    }

    /// Runs one frame through a cold memory system (with the configured
    /// L2 warm start) and reports every measured quantity. For true
    /// steady-state multi-frame runs use [`BaselineSession`].
    pub fn run_frame(&self, scene: &Scene) -> FrameReport {
        let mut hierarchy = new_hierarchy(&self.cfg);
        let mut l1s = OtherL1s::new(&self.cfg);
        let mut raster = RasterTraffic::new(self.cfg.raster);
        baseline_frame(
            &self.cfg,
            scene,
            &mut hierarchy,
            &mut l1s,
            &mut raster,
            true,
            &mut FrameTrace::disabled(),
        )
    }

    /// Like [`run_frame`](Self::run_frame), but also records the Tiling
    /// Engine timeline (per-tile fetch spans, MSHR occupancy, L2 event
    /// series) for the trace exporter.
    pub fn run_frame_traced(&self, scene: &Scene) -> (FrameReport, FrameTrace) {
        let mut hierarchy = new_hierarchy(&self.cfg);
        let mut l1s = OtherL1s::new(&self.cfg);
        let mut raster = RasterTraffic::new(self.cfg.raster);
        let mut trace = FrameTrace::enabled();
        let report = baseline_frame(
            &self.cfg,
            scene,
            &mut hierarchy,
            &mut l1s,
            &mut raster,
            true,
            &mut trace,
        );
        (report, trace)
    }
}

/// One baseline frame over the given (possibly persistent) memory-system
/// components. `one_shot` selects cold-start semantics: apply the L2 warm
/// start and dispose of the whole Parameter Buffer at frame end; steady
/// state (`false`) keeps the L2 across frames. `trace` collects the
/// Tiling Engine timeline; pass [`FrameTrace::disabled`] for measurement
/// runs (a disabled collector records nothing and perturbs nothing).
fn baseline_frame(
    cfg: &SystemConfig,
    scene: &Scene,
    hierarchy: &mut MemoryHierarchy,
    l1s: &mut OtherL1s,
    raster: &mut RasterTraffic,
    one_shot: bool,
    trace: &mut FrameTrace,
) -> FrameReport {
    {
        let (grid, order, frame) = geometry_and_bin(cfg, scene, l1s, hierarchy);
        let mut plb_cycles = 0u64;
        let mut prims_fetched = 0u64;
        let TileCacheOrg::Unified { cache: params } = cfg.gpu.tile_cache else {
            unreachable!("checked in constructor");
        };
        let attr_counts = frame.binned.attr_counts();
        let mut tc = BaselineTileCache::new(params, grid.num_tiles() as u32, &attr_counts);
        let attrs_layout = AttributesLayout::new(&attr_counts);
        let tagger = Tagger {
            lists: ListsLayout::new(ListsScheme::Baseline, grid.num_tiles() as u32),
            attrs: &attrs_layout,
            frame: &frame.binned,
            order: &order,
        };

        if one_shot && cfg.warm_l2 {
            warm_l2(hierarchy, &frame.binned, &order, &tagger, &attrs_layout);
        }

        // --- Polygon List Builder phase.
        for op in plb_ops(&frame.binned, &order) {
            plb_cycles += 1;
            let acc = match op {
                PlbOp::PmdWrite { tile, n, .. } => tc.write_pmd(tile, n),
                PlbOp::AttrWrite { prim, k } => tc.write_attr(prim.index(), k),
            };
            if cfg.fetch_on_write_miss && !acc.hit {
                // Partial-line write: the rest of the block must be
                // fetched (a PMD is 4 bytes, an attribute 48 of 64).
                hierarchy.access(acc.block, AccessKind::Read, tagger.tag_of(acc.block));
            }
            if let Some(wb) = acc.writeback {
                hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
            }
        }

        // --- Tile Fetcher phase.
        let mut timing = MshrTiming::new(cfg.mshrs);
        let mut coupled_cycles = 0.0f64;
        let mut tile_mark = 0u64;
        for op in fetch_ops(&frame.binned, &order) {
            match op {
                FetchOp::ListRead { tile, first_n } => {
                    let acc = tc.read_list_block(tile, first_n);
                    if let Some(wb) = acc.writeback {
                        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
                    }
                    if acc.hit {
                        timing.issue_hit();
                    } else {
                        let lat =
                            hierarchy.access(acc.block, AccessKind::Read, tagger.tag_of(acc.block));
                        timing.issue_miss(lat as u64);
                    }
                }
                FetchOp::PrimRead { prim, .. } => {
                    prims_fetched += 1;
                    let attr_count = frame.binned.primitive(prim).attr_count;
                    for k in 0..attr_count {
                        let acc = tc.read_attr(prim.index(), k);
                        if let Some(wb) = acc.writeback {
                            hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
                        }
                        if acc.hit {
                            timing.issue_hit();
                        } else {
                            let lat = hierarchy.access(
                                acc.block,
                                AccessKind::Read,
                                tagger.tag_of(acc.block),
                            );
                            timing.issue_miss(lat as u64);
                        }
                    }
                }
                FetchOp::TileDone { tile } => {
                    hierarchy.tile_done();
                    // Fetch/raster coupling: this tile's rasterization
                    // cannot finish before its primitives were fetched.
                    let span_start = tile_mark;
                    let fetch_t = timing.now().saturating_sub(tile_mark) as f64;
                    tile_mark = timing.now();
                    if trace.is_enabled() {
                        emit_tile_trace(trace, plb_cycles, span_start, &timing, hierarchy, tile);
                        trace.counter(
                            "tile$",
                            "prims",
                            plb_cycles + timing.now(),
                            vec![("fetched", prims_fetched)],
                        );
                    }
                    let raster_t = frame.fragments_per_tile[tile.index()]
                        * cfg.raster.shader_instructions as f64
                        / (cfg.fragment_processors * cfg.simd_lanes) as f64
                        + 32.0;
                    coupled_cycles += fetch_t.max(raster_t);
                    raster_tile(tile.index(), &frame, &grid, raster, l1s, hierarchy);
                }
            }
        }
        let fetch_cycles = timing.finish();
        emit_phase_trace(trace, plb_cycles, fetch_cycles);

        // --- End of frame.
        for wb in tc.drain_dirty() {
            hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
        }
        let pb_footprint = tagger
            .lists
            .footprint_bytes(frame.binned.max_list_len() as u32)
            + attrs_layout.footprint_bytes();
        if one_shot {
            hierarchy.end_frame();
        } else {
            hierarchy.frame_boundary();
        }

        let structures = vec![StructureActivity {
            name: "tile$",
            size_bytes: params.size_bytes,
            instances: 1,
            stats: *tc.stats(),
        }];
        build_report(
            "baseline",
            structures,
            hierarchy,
            l1s,
            raster,
            &frame,
            fetch_cycles,
            prims_fetched,
            plb_cycles,
            coupled_cycles,
            pb_footprint,
            (cfg.fragment_processors * cfg.simd_lanes) as f64,
        )
    }
}

/// A persistent baseline GPU: the L2, DRAM state and surrounding L1s
/// survive across frames (the true steady state that `warm_l2`
/// approximates for one-shot runs). Per-frame counters are reset at each
/// `run_frame`, so every report covers exactly one frame.
#[derive(Debug)]
pub struct BaselineSession {
    cfg: SystemConfig,
    hierarchy: MemoryHierarchy,
    l1s: OtherL1s,
    raster: RasterTraffic,
}

impl BaselineSession {
    /// Creates the session with a cold memory system.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration uses a unified Tile Cache.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            matches!(cfg.gpu.tile_cache, TileCacheOrg::Unified { .. }),
            "baseline session needs a unified tile cache"
        );
        BaselineSession {
            hierarchy: new_hierarchy(&cfg),
            l1s: OtherL1s::new(&cfg),
            raster: RasterTraffic::new(cfg.raster),
            cfg,
        }
    }

    /// Runs the next frame of the sequence and reports it. The first
    /// frame is cold; from the second frame on the L2 holds the previous
    /// frame's Parameter Buffer and texture working set.
    pub fn run_frame(&mut self, scene: &Scene) -> FrameReport {
        self.hierarchy.reset_counters();
        self.l1s.reset_stats();
        baseline_frame(
            &self.cfg,
            scene,
            &mut self.hierarchy,
            &mut self.l1s,
            &mut self.raster,
            false,
            &mut FrameTrace::disabled(),
        )
    }
}

/// The TCOR GPU: split Tile Cache (Primitive List Cache + Attribute Cache
/// with OPT), interleaved PB-Lists, dead-line-aware L2.
#[derive(Clone, Debug)]
pub struct TcorSystem {
    cfg: SystemConfig,
}

impl TcorSystem {
    /// Creates the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's Tile Cache organization is not
    /// [`TileCacheOrg::Split`].
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            matches!(cfg.gpu.tile_cache, TileCacheOrg::Split { .. }),
            "TCOR system needs a split tile cache"
        );
        TcorSystem { cfg }
    }

    /// Runs one frame through a cold memory system (with the configured
    /// L2 warm start) and reports every measured quantity. For true
    /// steady-state multi-frame runs use [`TcorSession`].
    pub fn run_frame(&self, scene: &Scene) -> FrameReport {
        let mut hierarchy = new_hierarchy(&self.cfg);
        let mut l1s = OtherL1s::new(&self.cfg);
        let mut raster = RasterTraffic::new(self.cfg.raster);
        tcor_frame(
            &self.cfg,
            scene,
            &mut hierarchy,
            &mut l1s,
            &mut raster,
            true,
            &mut FrameTrace::disabled(),
        )
    }

    /// Like [`run_frame`](Self::run_frame), but also records the Tiling
    /// Engine timeline (per-tile fetch spans, MSHR occupancy, L2 event
    /// series, Attribute Cache occupancy) for the trace exporter.
    pub fn run_frame_traced(&self, scene: &Scene) -> (FrameReport, FrameTrace) {
        let mut hierarchy = new_hierarchy(&self.cfg);
        let mut l1s = OtherL1s::new(&self.cfg);
        let mut raster = RasterTraffic::new(self.cfg.raster);
        let mut trace = FrameTrace::enabled();
        let report = tcor_frame(
            &self.cfg,
            scene,
            &mut hierarchy,
            &mut l1s,
            &mut raster,
            true,
            &mut trace,
        );
        (report, trace)
    }
}

/// One TCOR frame over the given (possibly persistent) memory-system
/// components; see [`baseline_frame`] for the `one_shot` and `trace`
/// semantics.
fn tcor_frame(
    cfg: &SystemConfig,
    scene: &Scene,
    hierarchy: &mut MemoryHierarchy,
    l1s: &mut OtherL1s,
    raster: &mut RasterTraffic,
    one_shot: bool,
    trace: &mut FrameTrace,
) -> FrameReport {
    {
        let (grid, order, frame) = geometry_and_bin(cfg, scene, l1s, hierarchy);
        let mut plb_cycles = 0u64;
        let mut prims_fetched = 0u64;
        let TileCacheOrg::Split {
            list_cache: list_params,
            attribute_bytes,
            attribute_ways,
        } = cfg.gpu.tile_cache
        else {
            unreachable!("checked in constructor");
        };
        let num_tiles = grid.num_tiles() as u32;
        let mut lc = ListCache::new(list_params, cfg.list_scheme, num_tiles);
        let mut ac = AttributeCache::new(
            AttributeCacheConfig::from_budget(attribute_bytes, attribute_ways as usize)
                .with_write_bypass(cfg.attr_write_bypass)
                .with_indexing(cfg.attr_indexing),
        );
        let attr_counts = frame.binned.attr_counts();
        let attrs_layout = AttributesLayout::new(&attr_counts);
        let tagger = Tagger {
            lists: ListsLayout::new(cfg.list_scheme, num_tiles),
            attrs: &attrs_layout,
            frame: &frame.binned,
            order: &order,
        };

        let flush_evicted = |evicted: &[EvictedPrim],
                             hierarchy: &mut MemoryHierarchy,
                             tagger: &Tagger<'_>,
                             attrs_layout: &AttributesLayout| {
            for e in evicted {
                if e.dirty {
                    for k in 0..e.attr_count {
                        let block = attrs_layout.attr_block(e.prim.index(), k);
                        hierarchy.access(block, AccessKind::Write, tagger.attr_tag(e.prim));
                    }
                }
            }
        };

        if one_shot && cfg.warm_l2 {
            warm_l2(hierarchy, &frame.binned, &order, &tagger, &attrs_layout);
        }

        // --- Polygon List Builder phase.
        let mut bypassed: Option<PrimitiveId> = None;
        for op in plb_ops(&frame.binned, &order) {
            plb_cycles += 1;
            match op {
                PlbOp::PmdWrite { tile, n, .. } => {
                    let acc = lc.write_pmd(tile, n);
                    if cfg.fetch_on_write_miss && !acc.hit {
                        // PMDs are 4-byte partial-line writes: fill.
                        hierarchy.access(acc.block, AccessKind::Read, tagger.tag_of(acc.block));
                    }
                    if let Some(wb) = acc.writeback {
                        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
                    }
                }
                PlbOp::AttrWrite { prim, k } => {
                    if k == 0 {
                        let p = frame.binned.primitive(prim);
                        match ac.write(prim, p.attr_count, p.first_use()) {
                            WriteResult::Allocated { evicted } => {
                                bypassed = None;
                                flush_evicted(&evicted, hierarchy, &tagger, &attrs_layout);
                            }
                            WriteResult::Bypassed => {
                                bypassed = Some(prim);
                                let block = attrs_layout.attr_block(prim.index(), 0);
                                hierarchy.access(block, AccessKind::Write, tagger.attr_tag(prim));
                            }
                        }
                    } else if bypassed == Some(prim) {
                        let block = attrs_layout.attr_block(prim.index(), k);
                        hierarchy.access(block, AccessKind::Write, tagger.attr_tag(prim));
                    }
                }
            }
        }

        // --- Tile Fetcher phase.
        let mut timing = MshrTiming::new(cfg.mshrs);
        let mut queue: VecDeque<PrimitiveId> = VecDeque::new();
        let mut coupled_cycles = 0.0f64;
        let mut tile_mark = 0u64;
        for op in fetch_ops(&frame.binned, &order) {
            match op {
                FetchOp::ListRead { tile, first_n } => {
                    let acc = lc.read_block(tile, first_n);
                    if let Some(wb) = acc.writeback {
                        hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
                    }
                    if acc.hit {
                        timing.issue_hit();
                    } else {
                        let lat =
                            hierarchy.access(acc.block, AccessKind::Read, tagger.tag_of(acc.block));
                        timing.issue_miss(lat as u64);
                    }
                }
                FetchOp::PrimRead { tile, prim, .. } => {
                    prims_fetched += 1;
                    let p = frame.binned.primitive(prim);
                    let opt_number = p.next_use_after(order.rank_of(tile));
                    loop {
                        match ac.read(prim, p.attr_count, opt_number) {
                            ReadResult::Hit => {
                                timing.issue_hit();
                                break;
                            }
                            ReadResult::Miss { evicted } => {
                                flush_evicted(&evicted, hierarchy, &tagger, &attrs_layout);
                                for k in 0..p.attr_count {
                                    let block = attrs_layout.attr_block(prim.index(), k);
                                    let lat = hierarchy.access(
                                        block,
                                        AccessKind::Read,
                                        tagger.attr_tag(prim),
                                    );
                                    timing.issue_miss(lat as u64);
                                }
                                break;
                            }
                            ReadResult::Stalled => {
                                // Wait for the Rasterizer to consume the
                                // oldest queued primitive, then retry.
                                let oldest = queue.pop_front().unwrap_or_else(|| {
                                    panic!(
                                        "attribute cache deadlock: {prim:?} \
                                         needs {} entries",
                                        p.attr_count
                                    )
                                });
                                ac.unlock(oldest);
                                timing.bubble(1);
                            }
                        }
                    }
                    queue.push_back(prim);
                    if queue.len() > cfg.queue_depth {
                        let oldest = queue.pop_front().expect("nonempty");
                        ac.unlock(oldest);
                    }
                }
                FetchOp::TileDone { tile } => {
                    hierarchy.tile_done();
                    // Fetch/raster coupling: this tile's rasterization
                    // cannot finish before its primitives were fetched.
                    let span_start = tile_mark;
                    let fetch_t = timing.now().saturating_sub(tile_mark) as f64;
                    tile_mark = timing.now();
                    if trace.is_enabled() {
                        emit_tile_trace(trace, plb_cycles, span_start, &timing, hierarchy, tile);
                        trace.counter(
                            "attr$",
                            "attr_cache",
                            plb_cycles + timing.now(),
                            vec![
                                ("resident", ac.resident_primitives() as u64),
                                ("free_entries", ac.free_entries() as u64),
                                ("locked", ac.locked_primitives()),
                            ],
                        );
                    }
                    let raster_t = frame.fragments_per_tile[tile.index()]
                        * cfg.raster.shader_instructions as f64
                        / (cfg.fragment_processors * cfg.simd_lanes) as f64
                        + 32.0;
                    coupled_cycles += fetch_t.max(raster_t);
                    raster_tile(tile.index(), &frame, &grid, raster, l1s, hierarchy);
                }
            }
        }
        while let Some(p) = queue.pop_front() {
            ac.unlock(p);
        }
        let fetch_cycles = timing.finish();
        emit_phase_trace(trace, plb_cycles, fetch_cycles);

        // --- End of frame.
        let drained = ac.drain();
        flush_evicted(&drained, hierarchy, &tagger, &attrs_layout);
        for wb in lc.drain_dirty() {
            hierarchy.access(wb, AccessKind::Write, tagger.tag_of(wb));
        }
        let pb_footprint = tagger
            .lists
            .footprint_bytes(frame.binned.max_list_len() as u32)
            + attrs_layout.footprint_bytes();
        if one_shot {
            hierarchy.end_frame();
        } else {
            hierarchy.frame_boundary();
        }

        let structures = vec![
            StructureActivity {
                name: "list$",
                size_bytes: list_params.size_bytes,
                instances: 1,
                stats: *lc.stats(),
            },
            StructureActivity {
                name: "attr$",
                size_bytes: attribute_bytes,
                instances: 1,
                stats: *ac.stats(),
            },
        ];
        let (buf_util, line_util, stalls) = (
            ac.avg_buffer_utilization(),
            ac.avg_line_utilization(),
            ac.stall_events(),
        );
        let (attr_wb_blocks, attr_opt_violations) = (ac.writeback_blocks(), ac.opt_violations());
        let mut report = build_report(
            "tcor",
            structures,
            hierarchy,
            l1s,
            raster,
            &frame,
            fetch_cycles,
            prims_fetched,
            plb_cycles,
            coupled_cycles,
            pb_footprint,
            (cfg.fragment_processors * cfg.simd_lanes) as f64,
        );
        report.attr_buffer_utilization = buf_util;
        report.attr_line_utilization = line_util;
        report.attr_stalls = stalls;
        report.attr_wb_blocks = attr_wb_blocks;
        report.attr_opt_violations = attr_opt_violations;
        report
    }
}

/// A persistent TCOR GPU, the steady-state counterpart of
/// [`TcorSystem`]; see [`BaselineSession`].
#[derive(Debug)]
pub struct TcorSession {
    cfg: SystemConfig,
    hierarchy: MemoryHierarchy,
    l1s: OtherL1s,
    raster: RasterTraffic,
}

impl TcorSession {
    /// Creates the session with a cold memory system.
    ///
    /// # Panics
    ///
    /// Panics unless the configuration uses a split Tile Cache.
    pub fn new(cfg: SystemConfig) -> Self {
        assert!(
            matches!(cfg.gpu.tile_cache, TileCacheOrg::Split { .. }),
            "TCOR session needs a split tile cache"
        );
        TcorSession {
            hierarchy: new_hierarchy(&cfg),
            l1s: OtherL1s::new(&cfg),
            raster: RasterTraffic::new(cfg.raster),
            cfg,
        }
    }

    /// Runs the next frame of the sequence and reports it.
    pub fn run_frame(&mut self, scene: &Scene) -> FrameReport {
        self.hierarchy.reset_counters();
        self.l1s.reset_stats();
        tcor_frame(
            &self.cfg,
            scene,
            &mut self.hierarchy,
            &mut self.l1s,
            &mut self.raster,
            false,
            &mut FrameTrace::disabled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcor_common::Tri2;
    use tcor_gpu::ScenePrimitive;

    /// A deterministic scene: a few hundred primitives scattered over the
    /// screen with varied extents (some spanning many tiles).
    fn test_scene(n: u32) -> Scene {
        (0..n)
            .map(|i| {
                let x = (i as f32 * 97.0) % 1800.0;
                let y = (i as f32 * 53.0) % 700.0;
                let w = 10.0 + (i % 7) as f32 * 30.0;
                let h = 10.0 + (i % 5) as f32 * 25.0;
                ScenePrimitive {
                    tri: Tri2::new((x, y), (x + w, y), (x, y + h)),
                    attr_count: 1 + (i % 5) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn baseline_system_runs_and_conserves_counts() {
        let r = BaselineSystem::new(SystemConfig::paper_baseline_64k()).run_frame(&test_scene(300));
        assert_eq!(r.num_primitives, 300);
        assert!(r.prims_fetched > 0);
        assert!(r.fetch_cycles > 0);
        assert!(r.pb_l2_accesses() > 0);
        assert!(r.total_mm_accesses() > 0);
        assert_eq!(r.dead_drops, 0, "baseline never drops dead lines");
        assert!(r.primitives_per_cycle() <= 1.0);
    }

    #[test]
    fn tcor_system_runs_and_reduces_pb_l2_traffic() {
        // The Parameter Buffer must exceed the Tile Cache for replacement
        // to matter (the paper's footprints are 0.14-1.8 MiB vs 64 KiB):
        // 3000 primitives * ~3 attrs * 64 B ~ 0.55 MiB.
        let scene = test_scene(3000);
        let base = BaselineSystem::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
        let tcor = TcorSystem::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert_eq!(base.prims_fetched, tcor.prims_fetched, "identical streams");
        assert!(
            tcor.pb_l2_accesses() < base.pb_l2_accesses(),
            "TCOR {} >= baseline {}",
            tcor.pb_l2_accesses(),
            base.pb_l2_accesses()
        );
        assert!(
            tcor.pb_mm_accesses() <= base.pb_mm_accesses(),
            "TCOR {} > baseline {}",
            tcor.pb_mm_accesses(),
            base.pb_mm_accesses()
        );
    }

    #[test]
    fn tcor_is_faster_in_the_tiling_engine() {
        let scene = test_scene(400);
        let base = BaselineSystem::new(SystemConfig::paper_baseline_64k()).run_frame(&scene);
        let tcor = TcorSystem::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert!(
            tcor.primitives_per_cycle() > base.primitives_per_cycle(),
            "TCOR ppc {} <= baseline ppc {}",
            tcor.primitives_per_cycle(),
            base.primitives_per_cycle()
        );
    }

    #[test]
    fn l2_ablation_has_more_mm_writes_than_full_tcor() {
        let scene = test_scene(800);
        let without = TcorSystem::new(SystemConfig::paper_tcor_64k().without_l2_enhancements())
            .run_frame(&scene);
        let with = TcorSystem::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        assert!(with.pb_mm_writes() <= without.pb_mm_writes());
        assert_eq!(without.dead_drops, 0);
    }

    #[test]
    fn raster_traffic_present_in_both_systems() {
        let scene = test_scene(100);
        let r = TcorSystem::new(SystemConfig::paper_tcor_64k()).run_frame(&scene);
        use tcor_pbuf::Region;
        assert!(r.l2_traffic.region(Region::Textures).l2_reads > 0);
        assert!(r.mm_traffic.region(Region::FrameBuffer).mm_writes > 0);
        assert!(r.fragments > 0.0);
    }

    #[test]
    fn traced_run_records_timeline_without_changing_the_report() {
        let scene = test_scene(300);
        let sys = TcorSystem::new(SystemConfig::paper_tcor_64k());
        let plain = sys.run_frame(&scene);
        let (traced, trace) = sys.run_frame_traced(&scene);
        // Tracing is pure observation: every measured counter matches.
        assert_eq!(plain.l2_stats.misses(), traced.l2_stats.misses());
        assert_eq!(plain.fetch_cycles, traced.fetch_cycles);
        assert_eq!(plain.total_mm_accesses(), traced.total_mm_accesses());
        assert_eq!(plain.attr_wb_blocks, traced.attr_wb_blocks);
        // And the timeline holds one fetch span per tile plus the two
        // phase spans.
        let spans = trace.events().iter().filter(|e| e.cat == "fetch").count();
        assert!(spans > 0, "no per-tile fetch spans recorded");
        assert!(trace.events().iter().any(|e| e.cat == "phase"));
        assert!(trace.events().iter().any(|e| e.cat == "mshr"));
        assert!(trace.events().iter().any(|e| e.cat == "attr$"));
    }

    #[test]
    fn reports_satisfy_probe_conservation() {
        let scene = test_scene(500);
        for r in [
            BaselineSystem::new(SystemConfig::paper_baseline_64k()).run_frame(&scene),
            TcorSystem::new(SystemConfig::paper_tcor_64k()).run_frame(&scene),
        ] {
            for s in &r.structures {
                assert_eq!(
                    s.stats.probes,
                    s.stats.hits() + s.stats.misses(),
                    "{}: probes diverge from classified accesses",
                    s.name
                );
            }
            assert_eq!(
                r.l2_stats.writebacks,
                r.l2_wb_blocks + r.dead_drops,
                "L2 writeback disposal does not balance"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unified tile cache")]
    fn baseline_rejects_split_config() {
        BaselineSystem::new(SystemConfig::paper_tcor_64k());
    }

    #[test]
    #[should_panic(expected = "split tile cache")]
    fn tcor_rejects_unified_config() {
        TcorSystem::new(SystemConfig::paper_baseline_64k());
    }
}
