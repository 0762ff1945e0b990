//! N-level topology-tree regressions: pinned classic fingerprints (the
//! epoch-2 baselines must not move), the deep-tree fingerprint extension,
//! partial-last-cluster behaviour end to end (scheduler + contention-engine
//! resource binning on machines whose processor count does not fill the
//! last cluster or socket), and the per-level steal accounting.

use std::cell::RefCell;
use std::rc::Rc;

use cool_core::{AffinitySpec, ClusterId, ProcId, Topology};
use cool_sim::{MachineConfig, SimConfig, SimRuntime, Task};
use dash_sim::ContentionConfig;

/// Classic 2-level machines must fingerprint exactly as they did before the
/// topology-tree generalization — every epoch-2 record's config string and
/// hash depends on it.
#[test]
fn classic_fingerprints_are_unchanged() {
    assert_eq!(
        MachineConfig::dash(32).fingerprint(),
        "p32x4 l1=65536/16/1 l2=262144/16/1 lat=1/14/30/130/20 pg=4096 \
         do=50 mig=2000 occ=3 ctn=off"
    );
    assert_eq!(
        MachineConfig::dash_small(8).fingerprint(),
        "p8x4 l1=4096/16/1 l2=16384/16/1 lat=1/14/30/130/20 pg=1024 \
         do=50 mig=2000 occ=3 ctn=off"
    );
}

/// The deep tree appends its own fingerprint segment — present exactly when
/// a tree is configured, so a forged deep record can never be served for a
/// classic point (or vice versa).
#[test]
fn deep_fingerprint_extends_the_classic_one() {
    let classic = MachineConfig::dash(32).fingerprint();
    assert!(!classic.contains("tree="), "{classic}");
    assert_eq!(
        MachineConfig::deep_small(64).fingerprint(),
        "p64x8 l1=4096/16/1 l2=16384/16/1 lat=1/14/30/130/20 pg=1024 \
         do=50 mig=2000 occ=3 ctn=off tree=2x8x32@1 rlat=100/180"
    );
}

/// One machine shape: a tree deeper than DASH's prints its segment even
/// without a latency table. Its inner pairs change the steal orders, so it
/// must never share a config string with the plain machine of the same
/// size and cluster width.
#[test]
fn a_tree_without_a_latency_table_fingerprints_apart_from_dash() {
    let dash = MachineConfig::dash_small(8);
    let tree = MachineConfig {
        topology: Topology::tree(8, &[2, 4], 1),
        ..dash
    };
    assert_eq!(tree.remote_lat, None);
    assert_eq!(
        tree.topology.procs_per_cluster(),
        dash.topology.procs_per_cluster()
    );
    let fingerprint = tree.fingerprint();
    assert_ne!(fingerprint, dash.fingerprint());
    assert!(fingerprint.ends_with("ctn=off tree=2x4@1"), "{fingerprint}");
    assert_ne!(
        SimConfig::new(tree).fingerprint(),
        SimConfig::new(dash).fingerprint()
    );
}

/// Deep-machine distance helpers on a ragged 48-processor machine (one and
/// a half 32-processor sockets): resource indexing must bin every cluster
/// and socket domain without panicking or aliasing.
#[test]
fn ragged_socket_distance_and_net_indexing() {
    let m = MachineConfig::deep_small(48);
    // 6 clusters of 8, plus div_ceil(48, 32) = 2 socket-level links.
    assert_eq!(m.topology.nclusters(), 6);
    assert_eq!(m.nnet(), 8);
    // Clusters 0-3 fill socket 0; clusters 4-5 are the ragged socket 1.
    assert_eq!(m.cluster_distance(ClusterId(4), ClusterId(4)), 0);
    assert_eq!(m.cluster_distance(ClusterId(4), ClusterId(5)), 1);
    assert_eq!(m.cluster_distance(ClusterId(0), ClusterId(5)), 2);
    assert_eq!(m.mem_latency(0), m.lat.local_mem);
    assert_eq!(m.mem_latency(1), 100);
    assert_eq!(m.mem_latency(2), 180);
    // Same-socket crossings take one hop (the home cluster link); the
    // cross-socket path adds the home-side socket link first.
    let mut buf = [0usize; cool_core::MAX_TOPO_LEVELS];
    assert_eq!(m.net_path(ClusterId(4), ClusterId(4), &mut buf), 0);
    assert_eq!(m.net_path(ClusterId(4), ClusterId(5), &mut buf), 1);
    assert_eq!(buf[0], 5);
    assert_eq!(m.net_path(ClusterId(0), ClusterId(5), &mut buf), 2);
    assert_eq!(buf[0], 6 + 1, "socket link of the ragged home socket");
    assert_eq!(buf[1], 5);
}

/// A hoard-on-one-server workload that forces stealing, with objects homed
/// in the (possibly partial) last cluster so its memory, directory and
/// network resources all get exercised.
fn run_hoarded(machine: MachineConfig) -> cool_sim::RunReport {
    let nprocs = machine.topology.nservers;
    let mut cfg = SimConfig::new(machine.with_contention(ContentionConfig::dash()));
    cfg.policy = cool_core::StealPolicy::default();
    let mut rt = SimRuntime::new(cfg);
    let objs: Vec<_> = (0..nprocs)
        .map(|i| rt.machine_mut().alloc_on_proc(i, 2048))
        .collect();
    let ran: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    let r = ran.clone();
    rt.run_phase(move |ctx| {
        for round in 0..3 {
            for (i, &obj) in objs.iter().enumerate() {
                let _ = (round, i);
                let r1 = r.clone();
                ctx.spawn(
                    Task::new(move |c| {
                        c.read(obj, 1024);
                        c.compute(2_000);
                        r1.borrow_mut().push(c.proc().index());
                    })
                    .with_affinity(AffinitySpec::processor(0)),
                );
            }
        }
    });
    let report = rt.report();
    assert_eq!(ran.borrow().len(), 3 * nprocs, "lost tasks");
    assert_eq!(report.stats.executed, report.stats.spawned);
    report
}

/// 10 processors at 4 per cluster: the last cluster holds only 2. The
/// scheduler, the steal path and the contention engine must all handle the
/// partial cluster (this is the end-to-end pin for the per-cluster
/// resource-binning audit).
#[test]
fn partial_last_cluster_completes_under_contention() {
    let report = run_hoarded(MachineConfig::dash_small(10));
    assert!(report.stats.tasks_stolen > 0, "workload must force steals");
    // 2-level tree: in-cluster steals land in bucket 0, cross-cluster in
    // bucket 1, and the cross-cluster bucket is exactly `remote_steals`.
    assert_eq!(report.topology, Topology::clustered(10, 4));
    assert_eq!(report.stats.steals_by_level[1], report.stats.remote_steals);
    assert_eq!(report.stats.steals_by_level[2..], [0, 0, 0]);
    // A thief in the ragged cluster scans its 1 neighbour first.
    let order = report.topology.steal_order(ProcId(9));
    assert_eq!(order.len(), 9);
    assert_eq!(order[0], ProcId(8));
}

/// The same end-to-end pin on a deep tree with a ragged socket: 48
/// processors on the 2x8x32 machine (socket 1 holds half its clusters).
#[test]
fn ragged_deep_socket_completes_under_contention() {
    let report = run_hoarded(MachineConfig::deep_small(48));
    assert!(report.stats.tasks_stolen > 0, "workload must force steals");
    assert_eq!(report.topology, Topology::tree(48, &[2, 8, 32], 1));
    // mem_level is 1: levels 2 and beyond are cross-cluster.
    let remote: u64 = report.stats.steals_by_level[2..].iter().sum();
    assert_eq!(remote, report.stats.remote_steals);
    let total: u64 = report.stats.steals_by_level.iter().sum();
    assert!(total > 0);
}

/// Steal-policy ceilings on the deep tree: `cluster_only` never leaves the
/// memory level even when desperate, a radius of 1 admits the socket but
/// not the far socket, and widening starts at the SMT pair.
#[test]
fn deep_policy_ceilings() {
    let topo = Topology::tree(64, &[2, 8, 32], 1);
    let cluster = cool_core::StealPolicy::cluster_only();
    assert_eq!(cluster.allowed_level(&topo, 0), 1);
    assert_eq!(cluster.allowed_level(&topo, 100), 1, "desperation never lifts it");
    let socket = cool_core::StealPolicy::with_radius(1);
    assert_eq!(socket.allowed_level(&topo, 0), 2);
    let widen = cool_core::StealPolicy::widening();
    assert_eq!(widen.allowed_level(&topo, 0), 0);
    assert_eq!(widen.allowed_level(&topo, 2), 2);
    assert_eq!(
        cool_core::StealPolicy::default().allowed_level(&topo, 0),
        usize::MAX
    );
}
