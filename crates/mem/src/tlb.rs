//! TLB cost model: local invalidations and cross-CPU shootdowns.
//!
//! Fork's write-protect pass and every COW break must invalidate stale
//! translations on every CPU currently running threads of the address
//! space. The shootdown is an IPI round-trip per remote CPU, which is why
//! fork "doesn't scale": concurrent forks and the ensuing fault storms
//! serialise on interrupt traffic. The model charges a base cost plus a
//! per-remote-CPU cost and counts events for the scaling experiments.

use crate::cost::{CostModel, Cycles};
use fpr_trace::metrics;
use fpr_trace::sink;
use fpr_trace::smp::VLock;
use fpr_trace::{Phase, TraceEvent};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Pages above which a ranged flush stops paying per-page invalidation
/// cost: past this many entries a full-context flush is cheaper, so the
/// per-page term is capped (Linux's `tlb_single_page_flush_ceiling` plays
/// the same role).
pub const RANGE_FLUSH_CEILING: u64 = 64;

/// The machine-wide shootdown interconnect SMP cells share.
///
/// On real hardware, remote TLB shootdowns from different cores contend
/// for the same interrupt fabric and for each target core's attention:
/// an IPI round is not private to its initiator. The bus models that
/// serialization with a [`VLock`] named `"tlb"` — each shootdown that
/// actually reaches remote CPUs holds the bus for its IPI round, so
/// concurrent fork storms on different cells queue up in virtual time
/// and the contention shows in [`fpr_trace::metrics::lock_stats`].
/// Machine-wide tallies are atomics so any cell can read them lock-free.
#[derive(Debug)]
pub struct TlbBus {
    round: VLock<()>,
    shootdowns: AtomicU64,
    remote_acks: AtomicU64,
}

impl TlbBus {
    /// A fresh bus with zeroed tallies.
    #[allow(clippy::new_without_default)]
    pub fn new() -> TlbBus {
        TlbBus {
            round: VLock::new("tlb", ()),
            shootdowns: AtomicU64::new(0),
            remote_acks: AtomicU64::new(0),
        }
    }

    /// Machine-wide count of shootdown rounds that reached remote CPUs.
    pub fn shootdowns_total(&self) -> u64 {
        self.shootdowns.load(Ordering::Relaxed)
    }

    /// Machine-wide count of remote acknowledgements.
    pub fn remote_acks_total(&self) -> u64 {
        self.remote_acks.load(Ordering::Relaxed)
    }

    /// Serializes one IPI round of `remote` acknowledgements on the bus.
    fn serialize_round(&self, remote: u64) {
        let _guard = self.round.lock();
        self.shootdowns.fetch_add(1, Ordering::Relaxed);
        self.remote_acks.fetch_add(remote, Ordering::Relaxed);
    }
}

/// TLB accounting for one simulated machine.
#[derive(Debug, Clone)]
pub struct TlbModel {
    /// Whether remote shootdowns are charged (ablation toggle).
    pub shootdowns_enabled: bool,
    /// Number of single-entry local invalidations performed.
    pub local_invalidations: u64,
    /// Number of shootdown rounds initiated.
    pub shootdowns: u64,
    /// Total remote-CPU acknowledgements across all shootdowns.
    pub remote_acks: u64,
    /// Number of batched ranged flushes initiated.
    pub range_flushes: u64,
    /// Total pages covered by batched ranged flushes.
    pub range_pages_flushed: u64,
    /// Total TLB *entries* invalidated by entry-granular flushes: one per
    /// small page plus one per 2 MiB huge leaf (a huge mapping occupies a
    /// single TLB entry, so flushing it costs one invalidation, not 512).
    pub entries_flushed: u64,
    /// Of [`TlbModel::entries_flushed`], the entries that were huge leaves.
    pub huge_entries_flushed: u64,
    /// The machine's shootdown interconnect, shared by every cell of the
    /// machine. A fresh model gets a bus of its own.
    pub bus: Arc<TlbBus>,
}

impl Default for TlbModel {
    fn default() -> Self {
        TlbModel {
            shootdowns_enabled: true,
            local_invalidations: 0,
            shootdowns: 0,
            remote_acks: 0,
            range_flushes: 0,
            range_pages_flushed: 0,
            entries_flushed: 0,
            huge_entries_flushed: 0,
            bus: Arc::new(TlbBus::new()),
        }
    }
}

impl TlbModel {
    /// Creates a model with shootdowns enabled.
    pub fn new() -> TlbModel {
        TlbModel::default()
    }

    /// Charges a local single-entry invalidation (`invlpg`).
    pub fn invalidate_local(&mut self, cycles: &mut Cycles, cost: &CostModel) {
        self.local_invalidations += 1;
        cycles.charge(cost.tlb_invlpg);
        metrics::incr("mem.tlb.invlpg");
    }

    /// Charges a shootdown visible to `cpus_running` CPUs (including the
    /// initiator). With one CPU only the local flush is paid.
    pub fn shootdown(&mut self, cpus_running: u32, cycles: &mut Cycles, cost: &CostModel) {
        self.shootdowns += 1;
        cycles.charge(cost.tlb_shootdown_base);
        if self.shootdowns_enabled && cpus_running > 1 {
            let remote = (cpus_running - 1) as u64;
            self.remote_acks += remote;
            metrics::add("mem.tlb.remote_ack", remote);
            cycles.charge(cost.tlb_shootdown_per_cpu * remote);
            // IPI rounds that reach remote CPUs serialize on the
            // machine's interconnect.
            self.bus.serialize_round(remote);
        }
        metrics::incr("mem.tlb.shootdown");
        if sink::is_active() {
            sink::emit(
                TraceEvent::new("tlb_shootdown", "mem", Phase::Instant, cycles.total())
                    .arg("cpus", cpus_running as u64),
            );
        }
    }

    /// Charges one batched ranged flush covering `pages` entries: a single
    /// shootdown round (one IPI per remote CPU, not one per page) plus a
    /// per-page invalidation term capped at [`RANGE_FLUSH_CEILING`] — past
    /// the ceiling the flush degrades to a full-context flush and the
    /// per-page cost stops growing.
    ///
    /// With `pages == 0` nothing is flushed and nothing is charged.
    pub fn shootdown_range(
        &mut self,
        cpus_running: u32,
        pages: u64,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) {
        if pages == 0 {
            return;
        }
        self.range_flushes += 1;
        self.range_pages_flushed += pages;
        cycles.charge(cost.tlb_range_flush_page * pages.min(RANGE_FLUSH_CEILING));
        metrics::incr("mem.tlb.range_flush");
        metrics::add("mem.tlb.range_pages", pages);
        self.shootdown(cpus_running, cycles, cost);
    }

    /// Huge-aware ranged flush: one batched shootdown round invalidating
    /// `small_pages` single-page entries plus `huge_entries` 2 MiB-leaf
    /// entries. Each huge leaf costs *one* entry invalidation — the whole
    /// point of huge mappings is that a block occupies one TLB entry — so
    /// tearing down a fully-huge region charges 512× fewer per-entry
    /// invalidations than the same region mapped with small pages. The
    /// per-entry term is capped at [`RANGE_FLUSH_CEILING`] like
    /// [`TlbModel::shootdown_range`].
    ///
    /// With no entries at all nothing is flushed and nothing is charged.
    pub fn shootdown_entries(
        &mut self,
        cpus_running: u32,
        small_pages: u64,
        huge_entries: u64,
        cycles: &mut Cycles,
        cost: &CostModel,
    ) {
        let entries = small_pages + huge_entries;
        if entries == 0 {
            return;
        }
        self.range_flushes += 1;
        self.range_pages_flushed += small_pages;
        self.entries_flushed += entries;
        self.huge_entries_flushed += huge_entries;
        cycles.charge(cost.tlb_range_flush_page * entries.min(RANGE_FLUSH_CEILING));
        metrics::incr("mem.tlb.range_flush");
        metrics::add("mem.tlb.entries_flushed", entries);
        metrics::add("mem.tlb.huge_entries_flushed", huge_entries);
        self.shootdown(cpus_running, cycles, cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_invalidation_counts_and_charges() {
        let mut t = TlbModel::new();
        let mut cy = Cycles::new();
        let cost = CostModel::default();
        t.invalidate_local(&mut cy, &cost);
        t.invalidate_local(&mut cy, &cost);
        assert_eq!(t.local_invalidations, 2);
        assert_eq!(cy.total(), 2 * cost.tlb_invlpg);
    }

    #[test]
    fn shootdown_scales_with_remote_cpus() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut one = Cycles::new();
        t.shootdown(1, &mut one, &cost);
        let mut eight = Cycles::new();
        t.shootdown(8, &mut eight, &cost);
        assert_eq!(one.total(), cost.tlb_shootdown_base);
        assert_eq!(
            eight.total(),
            cost.tlb_shootdown_base + 7 * cost.tlb_shootdown_per_cpu
        );
        assert_eq!(t.shootdowns, 2);
        assert_eq!(t.remote_acks, 7);
    }

    #[test]
    fn ranged_flush_charges_one_ipi_round_plus_per_page() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut cy = Cycles::new();
        t.shootdown_range(4, 16, &mut cy, &cost);
        assert_eq!(
            cy.total(),
            cost.tlb_shootdown_base + 3 * cost.tlb_shootdown_per_cpu + 16 * cost.tlb_range_flush_page,
            "one shootdown round, not one per page"
        );
        assert_eq!(t.range_flushes, 1);
        assert_eq!(t.range_pages_flushed, 16);
        assert_eq!(t.shootdowns, 1, "ranged flush rides a single shootdown");
    }

    #[test]
    fn ranged_flush_per_page_cost_is_capped() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut big = Cycles::new();
        t.shootdown_range(1, 100_000, &mut big, &cost);
        let mut ceil = Cycles::new();
        t.shootdown_range(1, RANGE_FLUSH_CEILING, &mut ceil, &cost);
        assert_eq!(
            big.total(),
            ceil.total(),
            "past the ceiling a full flush is charged instead"
        );
        assert_eq!(t.range_pages_flushed, 100_000 + RANGE_FLUSH_CEILING);
    }

    #[test]
    fn ranged_flush_of_zero_pages_is_free() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut cy = Cycles::new();
        t.shootdown_range(8, 0, &mut cy, &cost);
        assert_eq!(cy.total(), 0);
        assert_eq!(t.range_flushes, 0);
        assert_eq!(t.shootdowns, 0);
    }

    #[test]
    fn huge_entry_flush_costs_one_entry_per_leaf() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut huge = Cycles::new();
        // Four huge leaves: 4 entry invalidations, not 2048.
        t.shootdown_entries(2, 0, 4, &mut huge, &cost);
        assert_eq!(
            huge.total(),
            cost.tlb_shootdown_base + cost.tlb_shootdown_per_cpu + 4 * cost.tlb_range_flush_page
        );
        assert_eq!(t.entries_flushed, 4);
        assert_eq!(t.huge_entries_flushed, 4);
        // Mixed: 3 small + 1 huge = 4 entries.
        t.shootdown_entries(1, 3, 1, &mut huge, &cost);
        assert_eq!(t.entries_flushed, 8);
        assert_eq!(t.range_pages_flushed, 3);
    }

    #[test]
    fn entry_flush_of_nothing_is_free() {
        let cost = CostModel::default();
        let mut t = TlbModel::new();
        let mut cy = Cycles::new();
        t.shootdown_entries(8, 0, 0, &mut cy, &cost);
        assert_eq!(cy.total(), 0);
        assert_eq!(t.shootdowns, 0);
    }

    #[test]
    fn shared_bus_tallies_remote_rounds_machine_wide() {
        let cost = CostModel::default();
        let bus = Arc::new(TlbBus::new());
        let mut a = TlbModel::new();
        a.bus = Arc::clone(&bus);
        let mut b = TlbModel::new();
        b.bus = Arc::clone(&bus);
        let mut cy = Cycles::new();
        a.shootdown(1, &mut cy, &cost); // local only: never touches the bus
        assert_eq!(bus.shootdowns_total(), 0);
        a.shootdown(4, &mut cy, &cost);
        b.shootdown(2, &mut cy, &cost);
        assert_eq!(bus.shootdowns_total(), 2);
        assert_eq!(bus.remote_acks_total(), 3 + 1);
        // Per-model tallies still accumulate independently.
        assert_eq!(a.remote_acks, 3);
        assert_eq!(b.remote_acks, 1);
    }

    #[test]
    fn ablation_disables_remote_cost() {
        let cost = CostModel::default();
        let mut t = TlbModel {
            shootdowns_enabled: false,
            ..TlbModel::new()
        };
        let mut cy = Cycles::new();
        t.shootdown(16, &mut cy, &cost);
        assert_eq!(cy.total(), cost.tlb_shootdown_base);
        assert_eq!(t.remote_acks, 0);
    }
}
