//! Microbenchmarks of the dash-sim per-reference pipeline — the loop the
//! hot-path overhaul targets. Three access shapes isolate its layers:
//!
//! * `lookaside_repeat_hits` — back-to-back references to one hot line, the
//!   dominant case in the apps' streaming patterns; served entirely by the
//!   per-processor lookaside without touching cache sets or directory.
//! * `strided_cold_misses` — a scan that defeats both cache levels; every
//!   reference walks probe → fill → directory → monitor.
//! * `mixed_stream` — a deterministic hit/miss/coherence mix: mostly
//!   repeat hits, a strided scan and a shared line written from a second
//!   processor.
//!
//! These benches gate nothing; they exist for quick relative comparisons
//! while working on the pipeline. The benchmark (`ledger/`) measures the
//! pipeline's wall time end to end.

use criterion::{criterion_group, criterion_main, Criterion};

use cool_core::ProcId;
use dash_sim::{Machine, MachineConfig};

fn lookaside_repeat_hits(c: &mut Criterion) {
    let mut g = c.benchmark_group("dash_hotpath");
    g.sample_size(20);
    g.bench_function("lookaside_repeat_hits_32k", |b| {
        let mut m = Machine::new(MachineConfig::dash_small(4));
        let obj = m.alloc_on_node(cool_core::NodeId(0), 4096);
        // Warm the line so every timed reference is a lookaside hit.
        m.read_at(ProcId(0), obj, 8, 0);
        b.iter(|| {
            let mut cycles = 0u64;
            for _ in 0..32_768 {
                cycles += m.read_at(ProcId(0), obj, 8, cycles);
            }
            std::hint::black_box(cycles);
        });
    });
    g.finish();
}

fn strided_cold_misses(c: &mut Criterion) {
    let mut g = c.benchmark_group("dash_hotpath");
    g.sample_size(20);
    g.bench_function("strided_cold_misses_16k", |b| {
        let mut m = Machine::new(MachineConfig::dash_small(4));
        let obj = m.alloc_interleaved(1 << 20);
        b.iter(|| {
            let mut cycles = 0u64;
            for i in 0..16_384u64 {
                // Stride past the line size and wrap inside the object so
                // every reference misses L1 (and usually L2).
                let off = (i * 272) % ((1 << 20) - 64);
                cycles += m.read_at(ProcId((i % 4) as usize), obj.offset(off), 8, cycles);
            }
            std::hint::black_box(cycles);
        });
    });
    g.finish();
}

fn mixed_stream(c: &mut Criterion) {
    let mut g = c.benchmark_group("dash_hotpath");
    g.sample_size(10);
    g.bench_function("mixed_stream_100k", |b| {
        b.iter(|| {
            let mut m = Machine::new(MachineConfig::dash_small(32));
            let obj = m.alloc_interleaved(1 << 20);
            let mut cycles = 0u64;
            let mut x = 0x9e3779b97f4a7c15u64;
            for i in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let p = ProcId((x % 32) as usize);
                let off = match i % 8 {
                    0..=4 => (p.index() as u64) * 32 * 1024 + (x % 4) * 8,
                    5 | 6 => (i * 272) % ((1 << 20) - 64),
                    _ => 512 + (x % 2) * 8,
                };
                let at = obj.offset(off);
                cycles += if i % 5 == 4 {
                    m.write_at(p, at, 8, cycles)
                } else {
                    m.read_at(p, at, 8, cycles)
                };
            }
            std::hint::black_box(cycles);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    lookaside_repeat_hits,
    strided_cold_misses,
    mixed_stream
);
criterion_main!(benches);
