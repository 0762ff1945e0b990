//! Visualise the scheduler through the observability layer: trace the
//! Gaussian-elimination-style schedule, print a small gantt chart showing
//! back-to-back task-affinity service, and summarise steal behaviour from
//! the same event stream the Perfetto exporter consumes.
//!
//! ```text
//! cargo run --release --example schedule_trace
//! cargo run --release --example schedule_trace -- /tmp/schedule
//! ```
//!
//! With a path argument the example also writes `<path>.trace.json` (open
//! it in Perfetto or `chrome://tracing`) and `<path>.metrics.json` (the
//! `cool-metrics-v1` summary).

use std::collections::HashMap;

use cool_repro::cool_core::{AffinitySpec, Event, TaskUid};
use cool_repro::cool_obs::{chrome_trace_json, MetricsSummary};
use cool_repro::cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};

fn main() {
    let nprocs = 4;
    let mut rt = SimRuntime::new(SimConfig::new(MachineConfig::dash(nprocs)).with_trace());

    // Eight task-affinity sets of four tasks each, spawned interleaved; the
    // affinity queues reassemble them into back-to-back bursts.
    let objs: Vec<_> = (0..8)
        .map(|i| rt.machine_mut().alloc_on_proc(i % nprocs, 8 * 1024))
        .collect();
    static LABELS: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];
    rt.run_phase(move |ctx| {
        for _round in 0..4 {
            for (i, &obj) in objs.iter().enumerate() {
                ctx.spawn(
                    Task::new(move |c| {
                        c.read(obj, 8 * 1024);
                        c.compute(2000);
                    })
                    .with_label(LABELS[i])
                    .with_affinity(AffinitySpec::task(obj).and_object(obj)),
                );
            }
        }
    });

    let trace = rt.take_obs();

    // Pair TaskBegin/TaskEnd into slices for the gantt chart.
    struct Slice {
        proc: usize,
        start: u64,
        end: u64,
        label: &'static str,
        on_target: bool,
    }
    let mut open: HashMap<TaskUid, (usize, u64, &'static str, bool)> = HashMap::new();
    let mut slices: Vec<Slice> = Vec::new();
    for ev in &trace.events {
        match ev {
            Event::TaskBegin {
                task,
                label,
                proc,
                target,
                time,
                ..
            } => {
                open.insert(*task, (proc.index(), *time, label.unwrap_or("?"), target == proc));
            }
            Event::TaskEnd { task, time, .. } => {
                if let Some((proc, start, label, on_target)) = open.remove(task) {
                    slices.push(Slice {
                        proc,
                        start,
                        end: *time,
                        label,
                        on_target,
                    });
                }
            }
            _ => {}
        }
    }

    let horizon = rt.elapsed();
    println!("schedule over {horizon} cycles on {nprocs} processors");
    println!("(letters are task-affinity sets; lowercase = ran off its hinted server)\n");
    const WIDTH: usize = 100;
    for p in 0..nprocs {
        let mut lane = vec!['.'; WIDTH];
        for e in slices.iter().filter(|e| e.proc == p) {
            let s = (e.start as usize * WIDTH / horizon as usize).min(WIDTH - 1);
            let t = (e.end as usize * WIDTH / horizon as usize).clamp(s + 1, WIDTH);
            let ch = e.label.chars().next().unwrap_or('?');
            let ch = if e.on_target {
                ch
            } else {
                ch.to_ascii_lowercase()
            };
            for c in lane.iter_mut().take(t).skip(s) {
                *c = ch;
            }
        }
        println!("P{p} |{}|", lane.iter().collect::<String>());
    }
    println!();

    let metrics = MetricsSummary::from_trace(&trace);
    println!(
        "tasks: {} executed, {} stolen ({} whole sets); affinity hit rate {:.0}%",
        metrics.tasks,
        metrics.tasks_stolen,
        metrics.sets_stolen,
        metrics.affinity_hit_rate() * 100.0
    );
    let total = metrics.total_mem();
    let misses = total.local_misses + total.remote_misses;
    println!(
        "memory: {} refs, {:.1}% miss rate ({} of {} task-affinity sets traced)",
        total.refs,
        if total.refs == 0 {
            0.0
        } else {
            misses as f64 / total.refs as f64 * 100.0
        },
        metrics.sets.keys().filter(|k| k.is_some()).count(),
        LABELS.len(),
    );

    if let Some(base) = std::env::args().nth(1) {
        let trace_path = format!("{base}.trace.json");
        let metrics_path = format!("{base}.metrics.json");
        std::fs::write(&trace_path, chrome_trace_json(&trace.events)).expect("write trace");
        std::fs::write(&metrics_path, metrics.to_json()).expect("write metrics");
        println!("\nwrote {trace_path} (Perfetto/chrome://tracing) and {metrics_path}");
    }
}
