//! Per-component instruction-stream profiles.
//!
//! Each software component of the stack produces a characteristic stream:
//! JIT'd Java code has the big flat code footprint, virtual-call indirect
//! branches, and heap-heavy data references; the GC is a tight,
//! predictable, heap-sequential marker; the database walks its buffer pool;
//! the kernel has the SYNC-heavy profile of Section 4.2.4. The aggregate
//! instruction mix lands on the paper's memory intensity: a load every
//! ~3.2 instructions, a store every ~4.5 (one L1 reference per ~2
//! instructions), LARX every ~600 user instructions.
//!
//! Data references are tiered the way measured commercial workloads are:
//! a thread-private *hot* tier (stack + allocation-buffer reuse, mostly L1
//! hits), a *warm* transaction working set that overflows the L1 but
//! largely fits the shared L2 (the paper's 75% L2 hit rate for L1 misses),
//! and a shared *cold* tail over the full heap/buffer pool that falls
//! through to L3 and memory.

use crate::config::SutConfig;
use jas_cpu::{AccessPattern, DataRegion, Region, StreamProfile, Window};
use jas_jvm::Component;

/// Sizes the data-side working sets (scaled together with the heap).
#[derive(Clone, Copy, Debug)]
pub struct FootprintConfig {
    /// Java heap bytes (scaled).
    pub heap_bytes: u64,
    /// JIT code-cache extent modeled for the I-side.
    pub jit_code_bytes: u64,
    /// DB buffer-pool bytes (scaled).
    pub buffer_pool_bytes: u64,
}

impl FootprintConfig {
    /// The footprint `Engine::new` sizes its streams with for `cfg`.
    #[must_use]
    pub fn of(cfg: &SutConfig) -> Self {
        FootprintConfig {
            heap_bytes: cfg.jvm.heap.capacity,
            jit_code_bytes: 10 << 20,
            buffer_pool_bytes: cfg.db.pool_pages as u64 * cfg.db.page_bytes,
        }
    }
}

impl Default for FootprintConfig {
    fn default() -> Self {
        FootprintConfig {
            heap_bytes: 64 << 20,
            jit_code_bytes: 10 << 20,
            buffer_pool_bytes: 64 << 20,
        }
    }
}

fn stack_region(per_thread: u64) -> DataRegion {
    DataRegion {
        window: Window::new(Region::Stacks.base(), 8 << 20),
        weight: 0.40,
        pattern: AccessPattern::Hot {
            footprint: per_thread,
        },
    }
}

/// Thread-private hot objects (allocation buffer + hottest entities):
/// slightly larger than the L1, producing the L1-spill traffic that the L2
/// absorbs.
fn heap_hot(fp: &FootprintConfig, weight: f64) -> DataRegion {
    DataRegion {
        window: Window::new(Region::JavaHeap.base(), fp.heap_bytes),
        weight,
        pattern: AccessPattern::Hot { footprint: 8 << 10 },
    }
}

/// Warm transaction working set: overflows L1, mostly fits L2.
fn heap_warm(fp: &FootprintConfig, weight: f64) -> DataRegion {
    DataRegion {
        window: Window::new(Region::JavaHeap.base(), fp.heap_bytes),
        weight,
        pattern: AccessPattern::Skewed {
            hot_bytes: 512 << 10,
            granule: 512,
            hot_fraction: 0.90,
            burst: 20,
        },
    }
}

/// Cold tail over the whole heap: L2 misses satisfied by L3/memory.
fn heap_cold(fp: &FootprintConfig, weight: f64) -> DataRegion {
    DataRegion {
        window: Window::new(Region::JavaHeap.base(), fp.heap_bytes),
        weight,
        pattern: AccessPattern::Uniform { burst: 12 },
    }
}

/// Builds the stream profile for `component`.
#[must_use]
pub fn profile_for(component: Component, fp: &FootprintConfig) -> StreamProfile {
    match component {
        // JIT-compiled Java: app, app server, EJS, library. The paper's
        // signature stream: flat multi-MB code, virtual calls, heap data.
        Component::Application
        | Component::AppServer
        | Component::EnterpriseServices
        | Component::JavaLibrary => StreamProfile {
            code: Window::new(Region::JitCode.base(), fp.jit_code_bytes),
            code_jump_rate: 0.055,
            code_local: 0.90,
            code_active: 1536 << 10,
            code_zipf: 0.55, // flat
            loads_per_instr: 0.3125,
            stores_per_instr: 0.2222,
            cond_branch_per_instr: 0.16,
            ind_branch_per_instr: 0.022,
            cond_bias_strength: 0.945,
            cond_sites: 2600,
            ind_sites: 700,
            ind_targets_max: 8,
            larx_per_instr: 1.0 / 600.0,
            stcx_fail_prob: 0.02,
            sync_per_instr: 0.0008,
            call_per_instr: 0.014,
            store_fresh_fraction: 0.16,
            data: vec![
                stack_region(4 << 10),
                heap_hot(fp, 0.425),
                heap_warm(fp, 0.155),
                heap_cold(fp, 0.02),
            ],
        },
        // JVM runtime: interpreter loop and runtime helpers — smaller,
        // hotter native code, still heap-facing.
        Component::JvmRuntime | Component::JitCompiler => StreamProfile {
            code: Window::new(Region::NativeCode.base(), 6 << 20),
            code_jump_rate: 0.04,
            code_local: 0.88,
            code_active: 768 << 10,
            code_zipf: 0.9,
            loads_per_instr: 0.31,
            stores_per_instr: 0.21,
            cond_branch_per_instr: 0.17,
            ind_branch_per_instr: 0.018, // bytecode dispatch is indirect
            cond_bias_strength: 0.94,
            cond_sites: 1600,
            ind_sites: 300,
            ind_targets_max: 16,
            larx_per_instr: 1.0 / 900.0,
            stcx_fail_prob: 0.02,
            sync_per_instr: 0.001,
            call_per_instr: 0.018,
            store_fresh_fraction: 0.14,
            data: vec![
                stack_region(4 << 10),
                heap_hot(fp, 0.43),
                heap_warm(fp, 0.15),
                heap_cold(fp, 0.02),
            ],
        },
        // The collector: tight loops, very predictable branches, pointer
        // chasing across the whole heap in large pages, almost no locking.
        Component::Gc => StreamProfile {
            code: Window::new(Region::NativeCode.base() + (64 << 20), 192 << 10),
            code_jump_rate: 0.02,
            code_local: 0.92,
            code_active: 96 << 10,
            code_zipf: 1.2,
            loads_per_instr: 0.36,
            stores_per_instr: 0.14, // mark bits; fewer stores than mutators
            cond_branch_per_instr: 0.19,
            ind_branch_per_instr: 0.002,
            cond_bias_strength: 0.985,
            cond_sites: 256,
            ind_sites: 16,
            ind_targets_max: 2,
            larx_per_instr: 1.0 / 20_000.0,
            stcx_fail_prob: 0.001,
            sync_per_instr: 0.0001,
            call_per_instr: 0.008,
            store_fresh_fraction: 0.02,
            data: vec![
                // Address-ordered marking is partly sequential (the sweep
                // direction) and partly pointer chasing (reference fan-out)
                // — the blend keeps GC CPI near the mutators' (the paper
                // sees no strong CPI/GC correlation).
                DataRegion {
                    window: Window::new(Region::JavaHeap.base(), fp.heap_bytes),
                    weight: 0.48,
                    pattern: AccessPattern::Sequential { stride: 64 },
                },
                DataRegion {
                    window: Window::new(Region::JavaHeap.base(), fp.heap_bytes),
                    weight: 0.10,
                    pattern: AccessPattern::Uniform { burst: 4 },
                },
                stack_region(4 << 10),
                heap_warm(fp, 0.18),
            ],
        },
        // Native web server: request parsing over small buffers.
        Component::WebServer => StreamProfile {
            code: Window::new(Region::NativeCode.base() + (128 << 20), 2 << 20),
            code_jump_rate: 0.045,
            code_local: 0.85,
            code_active: 384 << 10,
            code_zipf: 0.85,
            loads_per_instr: 0.30,
            stores_per_instr: 0.22,
            cond_branch_per_instr: 0.17,
            ind_branch_per_instr: 0.008,
            cond_bias_strength: 0.945,
            cond_sites: 1200,
            ind_sites: 128,
            ind_targets_max: 4,
            larx_per_instr: 1.0 / 1_500.0,
            stcx_fail_prob: 0.01,
            sync_per_instr: 0.0008,
            call_per_instr: 0.014,
            store_fresh_fraction: 0.06,
            data: vec![
                stack_region(4 << 10),
                DataRegion {
                    window: Window::new(Region::MqData.base(), 32 << 20),
                    weight: 0.40,
                    pattern: AccessPattern::Hot { footprint: 8 << 10 },
                },
                DataRegion {
                    window: Window::new(Region::MqData.base(), 32 << 20),
                    weight: 0.17,
                    pattern: AccessPattern::Skewed {
                        hot_bytes: 1 << 20,
                        granule: 2048,
                        hot_fraction: 0.85,
                        burst: 12,
                    },
                },
                DataRegion {
                    window: Window::new(Region::MqData.base(), 32 << 20),
                    weight: 0.03,
                    pattern: AccessPattern::Uniform { burst: 12 },
                },
            ],
        },
        // Database engine: buffer-pool page crunching.
        Component::Database => StreamProfile {
            code: Window::new(Region::NativeCode.base() + (192 << 20), 5 << 20),
            code_jump_rate: 0.05,
            code_local: 0.85,
            code_active: 1 << 20,
            code_zipf: 0.75,
            loads_per_instr: 0.33,
            stores_per_instr: 0.21,
            cond_branch_per_instr: 0.15,
            ind_branch_per_instr: 0.006,
            cond_bias_strength: 0.945,
            cond_sites: 2000,
            ind_sites: 128,
            ind_targets_max: 4,
            larx_per_instr: 1.0 / 700.0,
            stcx_fail_prob: 0.02,
            sync_per_instr: 0.0012,
            call_per_instr: 0.016,
            store_fresh_fraction: 0.05,
            data: vec![
                stack_region(4 << 10),
                DataRegion {
                    window: Window::new(Region::DbBufferPool.base(), fp.buffer_pool_bytes),
                    weight: 0.40,
                    pattern: AccessPattern::Hot { footprint: 8 << 10 },
                },
                DataRegion {
                    window: Window::new(Region::DbBufferPool.base(), fp.buffer_pool_bytes),
                    weight: 0.155,
                    pattern: AccessPattern::Skewed {
                        hot_bytes: 1 << 20,
                        granule: 8192,
                        hot_fraction: 0.88,
                        burst: 14,
                    },
                },
                DataRegion {
                    window: Window::new(Region::DbBufferPool.base(), fp.buffer_pool_bytes),
                    weight: 0.03,
                    pattern: AccessPattern::Uniform { burst: 12 },
                },
            ],
        },
        // MQ library: queue buffers, memcpy-ish.
        Component::MessageQueue => StreamProfile {
            code: Window::new(Region::NativeCode.base() + (256 << 20), 1 << 20),
            code_jump_rate: 0.035,
            code_local: 0.88,
            code_active: 256 << 10,
            code_zipf: 0.9,
            loads_per_instr: 0.34,
            stores_per_instr: 0.26,
            cond_branch_per_instr: 0.13,
            ind_branch_per_instr: 0.004,
            cond_bias_strength: 0.955,
            cond_sites: 600,
            ind_sites: 64,
            ind_targets_max: 3,
            larx_per_instr: 1.0 / 1_000.0,
            stcx_fail_prob: 0.015,
            sync_per_instr: 0.0015,
            call_per_instr: 0.012,
            store_fresh_fraction: 0.08,
            data: vec![
                stack_region(4 << 10),
                DataRegion {
                    window: Window::new(Region::MqData.base() + (64 << 20), 16 << 20),
                    weight: 0.45,
                    pattern: AccessPattern::Sequential { stride: 64 },
                },
                DataRegion {
                    window: Window::new(Region::MqData.base() + (64 << 20), 16 << 20),
                    weight: 0.15,
                    pattern: AccessPattern::Skewed {
                        hot_bytes: 512 << 10,
                        granule: 1024,
                        hot_fraction: 0.85,
                        burst: 10,
                    },
                },
            ],
        },
        // Kernel: the SYNC-heavy profile of the paper's privileged-mode
        // observation (~7% of cycles with a SYNC in the SRQ).
        Component::Kernel => StreamProfile {
            code: Window::new(Region::Kernel.base(), 4 << 20),
            code_jump_rate: 0.05,
            code_local: 0.85,
            code_active: 768 << 10,
            code_zipf: 0.8,
            loads_per_instr: 0.30,
            stores_per_instr: 0.22,
            cond_branch_per_instr: 0.16,
            ind_branch_per_instr: 0.01,
            cond_bias_strength: 0.94,
            cond_sites: 2000,
            ind_sites: 256,
            ind_targets_max: 6,
            larx_per_instr: 1.0 / 400.0,
            stcx_fail_prob: 0.03,
            sync_per_instr: 0.0075,
            call_per_instr: 0.016,
            store_fresh_fraction: 0.05,
            data: vec![
                stack_region(4 << 10),
                DataRegion {
                    window: Window::new(Region::Kernel.base() + (512 << 20), 48 << 20),
                    weight: 0.40,
                    pattern: AccessPattern::Hot { footprint: 8 << 10 },
                },
                DataRegion {
                    window: Window::new(Region::Kernel.base() + (512 << 20), 48 << 20),
                    weight: 0.16,
                    pattern: AccessPattern::Skewed {
                        hot_bytes: 2 << 20,
                        granule: 256,
                        hot_fraction: 0.85,
                        burst: 10,
                    },
                },
                DataRegion {
                    window: Window::new(Region::Kernel.base() + (512 << 20), 48 << 20),
                    weight: 0.03,
                    pattern: AccessPattern::Uniform { burst: 12 },
                },
            ],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_component_has_a_valid_profile() {
        let fp = FootprintConfig::default();
        for c in Component::ALL {
            let p = profile_for(c, &fp);
            p.validate(); // panics on inconsistency
        }
    }

    #[test]
    fn java_profile_matches_paper_memory_mix() {
        let p = profile_for(Component::AppServer, &FootprintConfig::default());
        // 1 load per 3.2 instructions, 1 store per 4.5.
        assert!((1.0 / p.loads_per_instr - 3.2).abs() < 0.05);
        assert!((1.0 / p.stores_per_instr - 4.5).abs() < 0.05);
        // LARX every ~600 instructions.
        assert!((1.0 / p.larx_per_instr - 600.0).abs() < 1.0);
    }

    #[test]
    fn gc_profile_is_more_predictable_than_java() {
        let fp = FootprintConfig::default();
        let gc = profile_for(Component::Gc, &fp);
        let java = profile_for(Component::AppServer, &fp);
        assert!(gc.cond_bias_strength > java.cond_bias_strength);
        assert!(gc.ind_branch_per_instr < java.ind_branch_per_instr / 5.0);
        assert!(gc.sync_per_instr < java.sync_per_instr);
        assert!(gc.code.len < java.code.len / 10, "GC code is tiny");
    }

    #[test]
    fn kernel_profile_is_sync_heavy() {
        let fp = FootprintConfig::default();
        let k = profile_for(Component::Kernel, &fp);
        let j = profile_for(Component::AppServer, &fp);
        assert!(k.sync_per_instr > 5.0 * j.sync_per_instr);
        assert!(k.larx_per_instr > j.larx_per_instr);
    }

    #[test]
    fn code_windows_do_not_collide_across_native_components() {
        let fp = FootprintConfig::default();
        let mut windows: Vec<Window> = [
            Component::JvmRuntime,
            Component::Gc,
            Component::WebServer,
            Component::Database,
            Component::MessageQueue,
        ]
        .iter()
        .map(|&c| profile_for(c, &fp).code)
        .collect();
        windows.sort_by_key(|w| w.base);
        for pair in windows.windows(2) {
            assert!(
                pair[0].base + pair[0].len <= pair[1].base,
                "code windows overlap: {pair:?}"
            );
        }
    }

    #[test]
    fn heap_data_lives_in_heap_region() {
        let p = profile_for(Component::JavaLibrary, &FootprintConfig::default());
        assert!(p
            .data
            .iter()
            .any(|r| Region::of(r.window.base) == Region::JavaHeap));
    }

    #[test]
    fn java_data_is_tiered_hot_warm_cold() {
        let p = profile_for(Component::AppServer, &FootprintConfig::default());
        let hot: f64 = p
            .data
            .iter()
            .filter(|r| matches!(r.pattern, AccessPattern::Hot { .. }))
            .map(|r| r.weight)
            .sum();
        let cold: f64 = p
            .data
            .iter()
            .filter(|r| matches!(r.pattern, AccessPattern::Uniform { .. }))
            .map(|r| r.weight)
            .sum();
        assert!(
            hot > 0.7,
            "most references are thread-private hot, got {hot}"
        );
        assert!(cold < 0.06, "the cold tail is small, got {cold}");
    }
}

#[cfg(test)]
mod probes {
    use super::*;
    use jas_cpu::{HpmEvent, Machine, MachineConfig, StreamGen};
    use jas_simkernel::Rng;

    /// Diagnostic (run with `--ignored --nocapture`): one Java stream, one
    /// core, no task switching — isolates the stream/cache interaction.
    #[test]
    #[ignore = "diagnostic probe, prints stats"]
    fn solo_java_stream_statistics() {
        solo_stream(Component::AppServer);
    }

    /// Diagnostic: the GC stream alone.
    #[test]
    #[ignore = "diagnostic probe, prints stats"]
    fn solo_gc_stream_statistics() {
        solo_stream(Component::Gc);
    }

    fn solo_stream(component: Component) {
        let mut m = Machine::new(MachineConfig::default());
        let mut g = StreamGen::new(
            profile_for(component, &FootprintConfig::default()),
            Rng::new(42),
            1,
        );
        for _ in 0..2_000_000u64 {
            let (ia, op) = g.next_op();
            m.exec(0, ia, op);
        }
        let c = m.counters(0);
        let loads = c.get(HpmEvent::LoadRefs) as f64;
        let stores = c.get(HpmEvent::StoreRefs) as f64;
        println!("cpi                {:.2}", c.cpi().unwrap());
        println!(
            "load miss rate     {:.3}",
            c.get(HpmEvent::LoadMissL1) as f64 / loads
        );
        println!(
            "store miss rate    {:.3}",
            c.get(HpmEvent::StoreMissL1) as f64 / stores
        );
        println!("l1 prefetches      {}", c.get(HpmEvent::L1Prefetch));
        println!("stream allocs      {}", c.get(HpmEvent::StreamAllocs));
        let l1m = c.get(HpmEvent::LoadMissL1) as f64;
        for (n, e) in [
            ("L2  ", HpmEvent::DataFromL2),
            ("L3  ", HpmEvent::DataFromL3),
            ("mem ", HpmEvent::DataFromMem),
        ] {
            println!("from {}        {:.3}", n, c.get(e) as f64 / l1m);
        }
        println!(
            "derat/instr        {:.2e}",
            c.per_instruction(HpmEvent::DeratMiss).unwrap()
        );
        println!(
            "ifetch L2/instr    {:.2e}",
            c.per_instruction(HpmEvent::InstFromL2).unwrap()
        );
    }
}
