//! Component replay (traced runs only): `mlp_corun`'s own BFS trace
//! addresses fed through the public APIs of the page tables, the MMU,
//! the caches and DRAM, one component at a time.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use ndp_cache::{CacheHierarchy, InclusionPolicy, MshrFile, MshrLookup, SharedCache, SharedConfig};
use ndp_mem::{DramConfig, MemoryController};
use ndp_mmu::{PageTableWalker, PwcSet, TlbHierarchy};
use ndp_sim::SimConfig;
use ndp_types::{AccessClass, Asid, Cycles, LineAddr, PageSize, PhysAddr, PtLevel, RwKind, Vpn};
use ndp_workloads::TraceParams;
use ndpage::{FrameAllocator, Mechanism, PageTable};
use std::hint::black_box;
use std::time::Instant;

/// Memory-op addresses replayed per component.
const OPS: usize = 200_000;

/// Timed repetitions of each replay loop.
const REPS: usize = 3;

/// Median nanoseconds per item of `f` over [`REPS`] runs, each on fresh
/// state from `setup`.
fn ns_per<S>(items: usize, mut setup: impl FnMut() -> S, mut f: impl FnMut(&mut S)) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut state = setup();
            let a = Instant::now();
            f(&mut state);
            let t = a.elapsed().as_secs_f64();
            black_box(&state);
            t
        })
        .collect();
    median(&times) * 1e9 / items.max(1) as f64
}

/// Replays core 0's trace of `cfg` (an `mlp_corun` point) through every
/// component and records the `mmu.*`, `core.*`, `cache.*` and `mem.*`
/// metrics.
pub fn replay(cfg: &SimConfig, tr: &Tracer, out: &mut Outcome) {
    let params = TraceParams {
        seed: cfg.seed,
        footprint: Some(cfg.footprint_per_core()),
    };
    let vpns: Vec<Vpn> = cfg
        .workload
        .trace(params)
        .filter_map(|op| op.addr())
        .take(OPS)
        .map(|a| a.vpn())
        .collect();
    let regions = cfg.workload.regions(params);
    let capacity = cfg.footprint_per_core() * 2 + (1 << 30);
    let map_all = |table: &mut dyn PageTable, alloc: &mut FrameAllocator| -> u64 {
        let mut pages = 0;
        for r in &regions {
            let first = r.base.vpn();
            let n = (r.base.as_u64() + r.bytes).div_ceil(4096) - first.as_u64();
            table.map_range(first, n, alloc);
            pages += n;
        }
        pages
    };

    // Page tables: premapping (`map_range`) and lookups (`translate`).
    let mut radix = None;
    tr.span("components.core", SpanId::NONE, || {
        for mech in [
            Mechanism::Radix,
            Mechanism::NdPage,
            Mechanism::Ech,
            Mechanism::HugePage,
        ] {
            let key = crate::model::mech_key(mech);
            let mut pages = 0;
            let mut secs = Vec::new();
            let mut built = None;
            for _ in 0..REPS {
                let mut alloc = FrameAllocator::new(capacity);
                let mut table = mech
                    .build_impl(&mut alloc)
                    .expect("mechanism with a page table");
                let a = Instant::now();
                pages = map_all(&mut table, &mut alloc);
                secs.push(a.elapsed().as_secs_f64());
                built = Some(table);
            }
            out.set(
                format!("core.map_range_ns_per_page.{key}"),
                median(&secs) * 1e9 / pages as f64,
                REPS,
            );
            let table = built.expect("at least one repetition");
            let ns = ns_per(
                vpns.len(),
                || 0u64,
                |acc| {
                    for &v in &vpns {
                        *acc = acc.wrapping_add(table.translate(v).map_or(0, |t| t.pfn.as_u64()));
                    }
                },
            );
            out.set(format!("core.translate_ns.{key}"), ns, REPS);
            if mech == Mechanism::Radix {
                radix = Some(table);
            }
        }
    });
    let radix = radix.expect("radix table built");
    let pfns: Vec<_> = vpns
        .iter()
        .map(|&v| {
            radix
                .translate(v)
                .expect("trace addresses are premapped")
                .pfn
        })
        .collect();
    let lines: Vec<PhysAddr> = pfns
        .iter()
        .zip(0u64..)
        .map(|(p, i)| p.base().add((i.wrapping_mul(0x9E37_79B9) % 64) * 64))
        .collect();

    tr.span("components.mmu", SpanId::NONE, || {
        let ns = ns_per(vpns.len(), TlbHierarchy::table1, |tlb| {
            for (&v, &p) in vpns.iter().zip(&pfns) {
                if tlb.lookup(Asid::ZERO, v).outcome.is_miss() {
                    tlb.fill(Asid::ZERO, v, p, PageSize::Size4K);
                }
            }
        });
        out.set("mmu.tlb_lookup_ns", ns, REPS);
        let levels = [PtLevel::L4, PtLevel::L3, PtLevel::L2, PtLevel::L1];
        let ns = ns_per(vpns.len() * levels.len(), PwcSet::enabled, |pwc| {
            for &v in &vpns {
                for level in levels {
                    black_box(pwc.probe_fill(level, Asid::ZERO, v));
                }
            }
        });
        out.set("mmu.pwc_probe_ns", ns, REPS);
        let paths: Vec<_> = vpns
            .iter()
            .map(|&v| radix.walk_path(v).expect("mapped"))
            .collect();
        let ns = ns_per(vpns.len(), PageTableWalker::with_pwcs, |w| {
            for (&v, path) in vpns.iter().zip(&paths) {
                black_box(w.plan(Asid::ZERO, v, path));
            }
        });
        out.set("mmu.walker_plan_ns", ns, REPS);
    });

    tr.span("components.cache", SpanId::NONE, || {
        let ns = ns_per(lines.len(), CacheHierarchy::ndp, |c| {
            for &a in &lines {
                if !c.lookup(a, RwKind::Read, AccessClass::Data).is_hit() {
                    black_box(c.fill(a, AccessClass::Data, false));
                }
            }
        });
        out.set("cache.l1_lookup_fill_ns", ns, REPS);
        let l3 = || SharedCache::new(SharedConfig::l3(2048, 16, 8, InclusionPolicy::Inclusive));
        let ns = ns_per(lines.len(), l3, |c| {
            for (&a, t) in lines.iter().zip(0u64..) {
                if !c
                    .access(a, RwKind::Read, AccessClass::Data, Cycles::new(t * 3))
                    .hit
                {
                    black_box(c.fill(a, AccessClass::Data, Asid::ZERO, false));
                }
            }
        });
        out.set("cache.shared_l3_access_ns", ns, REPS);
        let ns = ns_per(
            lines.len(),
            || MshrFile::new(8),
            |m| {
                for (&a, t) in lines.iter().zip(0u64..) {
                    let now = Cycles::new(t * 30);
                    let line = LineAddr::of(a);
                    match m.probe(line, now) {
                        MshrLookup::Free => m.allocate(line, now, now + Cycles::new(200)),
                        MshrLookup::Full(at) => m.allocate(line, at, at + Cycles::new(200)),
                        MshrLookup::Coalesced(done) => {
                            black_box(done);
                        }
                    }
                }
            },
        );
        out.set("cache.mshr_probe_ns", ns, REPS);
    });

    tr.span("components.mem", SpanId::NONE, || {
        let ns = ns_per(
            lines.len(),
            || MemoryController::new(DramConfig::hbm2_vault()),
            |mc| {
                for (&a, t) in lines.iter().zip(0u64..) {
                    black_box(mc.request(a, RwKind::Read, AccessClass::Data, Cycles::new(t * 20)));
                }
            },
        );
        out.set("mem.dram_request_ns", ns, REPS);
        // Out-of-order arrivals, as a windowed core books them: the
        // reservation-list scheduler slots each into its bank's gaps.
        let overlap = || MemoryController::new(DramConfig::hbm2_vault()).with_overlap_scheduling();
        let ns = ns_per(lines.len(), overlap, |mc| {
            for (&a, t) in lines.iter().zip(0u64..) {
                let issue = Cycles::new(t * 20);
                let arrival = issue + Cycles::new(t.wrapping_mul(0x2545_F491) % 400);
                black_box(mc.request_ticketed(a, RwKind::Read, AccessClass::Data, issue, arrival));
            }
        });
        out.set("mem.dram_request_overlap_ns", ns, REPS);
    });
}
