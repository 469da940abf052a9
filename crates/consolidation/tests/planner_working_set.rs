//! The planners' working sets, counted by a global allocator.
//!
//! A planner reads its demand series from the `PlanningInput`; it must
//! not build a second per-VM copy of them. For each evaluated planner
//! this binary measures the peak heap that `Planner::plan` adds on top of
//! the input, less the bytes of the plan it returns, and bounds it by a
//! quarter of the input's demand-series bytes. The Dynamic plan's own
//! bytes are bounded too: one placement plus 1.2 times its migration
//! events. The allocator counts every thread, so the binary holds this
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vmcw_consolidation::dynamic::MigrationEvent;
use vmcw_consolidation::{Planner, PlannerKind, PlanningInput, VirtualizationModel};
use vmcw_trace::datacenters::{DataCenterId, GeneratorConfig};

/// The system allocator, keeping the live heap and its high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc` is passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed on.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc` is passed on.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Largest extra heap a planner may hold, as a share of the input's
/// demand-series bytes.
const MAX_SHARE: f64 = 0.25;

#[test]
fn planners_hold_no_per_vm_copy_of_the_traces() {
    // Banking at a quarter of Table 2's population, 30 history days and
    // 14 evaluation days, as a study plans it.
    let stream = GeneratorConfig::new(DataCenterId::Banking)
        .scale(0.25)
        .days(44)
        .stream(42);
    let input = PlanningInput::from_stream(stream, 30, VirtualizationModel::baseline());
    // Two f64 series (CPU and memory) per VM.
    let series_bytes = input.vms.len() * input.total_hours() * 16;
    let planner = Planner::baseline();

    let mut over = Vec::new();
    for kind in PlannerKind::EVALUATED {
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let plan = planner
            .plan(kind, &input)
            .expect("the planner places every VM");
        let peak = PEAK.load(Ordering::SeqCst) - before;
        let kept = LIVE.load(Ordering::SeqCst).saturating_sub(before);
        if kind == PlannerKind::Dynamic {
            // The plan is its moves: one placement plus the events, with
            // at most a fifth of the event list spare.
            let at = LIVE.load(Ordering::SeqCst);
            let placement = plan.placement.clone();
            let placement_bytes = LIVE.load(Ordering::SeqCst) - at;
            drop(placement);
            let event_bytes = plan.migrations.len() * size_of::<MigrationEvent>();
            let allowed = placement_bytes + event_bytes * 6 / 5;
            eprintln!(
                "{kind}: plan keeps {kept} B for a {placement_bytes} B placement and {} events of {event_bytes} B; {allowed} B allowed",
                plan.migrations.len()
            );
            if kept > allowed {
                over.push(format!("{kind} plan {kept} B > {allowed} B"));
            }
        }
        drop(plan);
        let extra = peak.saturating_sub(kept);
        let share = extra as f64 / series_bytes as f64;
        eprintln!(
            "{kind}: peak {peak} B, plan keeps {kept} B, extra {extra} B = {:.1}% of {series_bytes} B of demand series",
            share * 100.0
        );
        if share > MAX_SHARE {
            over.push(format!("{kind} {:.1}%", share * 100.0));
        }
    }
    assert!(
        over.is_empty(),
        "planners above their bounds ({:.0}% of the demand-series bytes, the Dynamic plan's size): {}",
        MAX_SHARE * 100.0,
        over.join(", ")
    );
}
