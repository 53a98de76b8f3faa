//! The tiling planner: how an `m x n` kernel block is cut into ring tiles.

use ep2_device::batch::{self, StreamedBatchPlan};
use ep2_device::cost::{self, StreamThreadPlan};
use ep2_device::Precision;
use std::ops::Range;

/// A validated out-of-core tiling of the `m x n` mini-batch kernel block.
///
/// Produced from the streamed Step-1 plan
/// ([`ep2_device::batch::max_batch_streamed`]); carries everything the ring
/// and pipeline need: problem shape, tile width, ring depth, and the
/// precision whose slot width the ledger charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockPlan {
    /// Training points `n` (kernel-block columns).
    pub n: usize,
    /// Feature dimension `d`.
    pub d: usize,
    /// Output dimension `l`.
    pub l: usize,
    /// Mini-batch size `m` (kernel-block rows; the last batch of an epoch
    /// may be smaller).
    pub m: usize,
    /// Columns per tile.
    pub n_tile: usize,
    /// Ring depth (tiles charged to the ledger at once).
    pub tiles_in_flight: usize,
    /// Precision whose slot factor the ledger charges.
    pub precision: Precision,
    /// How the pipeline splits the core budget: producer count plus the
    /// thread-budget handles for each producer's assembly GEMM and the
    /// consumer's update. Defaulted from the overlap model at construction;
    /// the trainer replaces it with the full-shape partition from
    /// `autotune::plan_streamed` via [`BlockPlan::with_stream_threads`].
    pub threads: StreamThreadPlan,
}

impl BlockPlan {
    /// Builds the plan from a streamed Step-1 outcome.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate plan (`n`, `m` or `n_tile` zero, or fewer
    /// than two ring slots — streaming needs double buffering).
    pub fn from_streamed(
        n: usize,
        d: usize,
        l: usize,
        splan: &StreamedBatchPlan,
        precision: Precision,
    ) -> Self {
        let plan = BlockPlan {
            n,
            d,
            l,
            m: splan.m,
            n_tile: splan.n_tile,
            tiles_in_flight: splan.tiles_in_flight,
            precision,
            threads: default_threads(n, d, l, splan.m, splan.n_tile),
        };
        plan.validate();
        plan
    }

    /// Builds a plan directly from its fields (tests and benches).
    ///
    /// # Panics
    ///
    /// Same conditions as [`BlockPlan::from_streamed`].
    pub fn new(
        n: usize,
        d: usize,
        l: usize,
        m: usize,
        n_tile: usize,
        tiles_in_flight: usize,
        precision: Precision,
    ) -> Self {
        let plan = BlockPlan {
            n,
            d,
            l,
            m,
            n_tile: n_tile.min(n),
            tiles_in_flight,
            precision,
            threads: default_threads(n, d, l, m, n_tile.min(n)),
        };
        plan.validate();
        plan
    }

    /// Replaces the thread partition (the trainer installs the full-shape
    /// partition computed by `autotune::plan_streamed` here).
    pub fn with_stream_threads(mut self, threads: StreamThreadPlan) -> Self {
        self.threads = threads;
        self
    }

    /// Pins the producer count, keeping each producer's per-task budget.
    /// Test/bench convenience for exercising a specific pipeline width.
    pub fn with_producers(mut self, producers: usize) -> Self {
        self.threads.producers = producers.max(1);
        self
    }

    fn validate(&self) {
        assert!(self.n > 0, "empty training set");
        assert!(self.m > 0, "batch size must be positive");
        assert!(self.n_tile > 0, "tile width must be positive");
        assert!(
            self.tiles_in_flight >= 2,
            "streaming needs at least double buffering"
        );
    }

    /// Tiles per mini-batch kernel block.
    pub fn n_tiles(&self) -> usize {
        self.n.div_ceil(self.n_tile)
    }

    /// The column ranges of the tiles, in order.
    pub fn tile_ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        (0..self.n_tiles()).map(move |t| {
            let j0 = t * self.n_tile;
            j0..(j0 + self.n_tile).min(self.n)
        })
    }

    /// Ledger slots one ring slot charges: the `m x n_tile` kernel panel
    /// plus the `d x n_tile` staged feature slice, at the precision's slot
    /// width.
    pub fn slots_per_tile(&self) -> f64 {
        ((self.m + self.d) * self.n_tile) as f64 * self.precision.slot_factor()
    }

    /// Ledger slots of the static streamed residency: weights `l·n` plus
    /// the mini-batch feature block `d·m`.
    pub fn static_slots(&self) -> f64 {
        ((self.l * self.n + self.d * self.m) as f64) * self.precision.slot_factor()
    }

    /// Total ledger slots a streamed epoch holds at peak (ring + static) —
    /// the left-hand side of the budget formula, in raw ledger slots.
    pub fn total_slots(&self) -> f64 {
        batch::streamed_slots(
            self.n,
            self.d,
            self.l,
            self.m,
            self.n_tile,
            self.tiles_in_flight,
        ) * self.precision.slot_factor()
    }
}

/// The construction-time thread partition: the overlap model over the
/// plan's shape (the setup terms are unknown here, so `s = q = 0`; the
/// trainer refines the partition via [`BlockPlan::with_stream_threads`])
/// under the runtime's current budget.
fn default_threads(n: usize, d: usize, l: usize, m: usize, n_tile: usize) -> StreamThreadPlan {
    let shape = cost::ProblemShape {
        n,
        m,
        d,
        l,
        s: 0,
        q: 0,
    };
    cost::partition_stream_threads(&shape, n_tile.max(1), ep2_runtime::current_threads(), None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> BlockPlan {
        BlockPlan::new(1000, 20, 3, 64, 96, 2, Precision::F64)
    }

    #[test]
    fn tile_ranges_cover_all_columns_in_order() {
        let p = plan();
        let ranges: Vec<_> = p.tile_ranges().collect();
        assert_eq!(ranges.len(), p.n_tiles());
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, p.n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
        }
        // Edge tile is the remainder.
        assert_eq!(ranges.last().unwrap().len(), 1000 - 10 * 96);
    }

    #[test]
    fn slot_accounting_matches_device_formula() {
        let p = plan();
        assert_eq!(
            p.total_slots(),
            p.static_slots() + p.tiles_in_flight as f64 * p.slots_per_tile()
        );
        // f64 doubles every component.
        let p32 = BlockPlan::new(1000, 20, 3, 64, 96, 2, Precision::F32);
        assert_eq!(p.total_slots(), 2.0 * p32.total_slots());
    }

    #[test]
    #[should_panic(expected = "double buffering")]
    fn rejects_single_buffer() {
        BlockPlan::new(100, 5, 1, 8, 16, 1, Precision::F64);
    }
}
