//! Flight-recorder invariants, exercised on the adaptive tessellation
//! pipeline at 1, 2, 4, and 8 ranks:
//!
//! * **Non-interference** — a `TESS_TRACE=full` run produces a mesh
//!   bit-identical to a plain run, and the transport conservation
//!   invariant still holds with tracing on.
//! * **Well-formed export** — the merged trace renders to Chrome-trace
//!   JSON that parses, keeps timestamps monotonic per track, and nests
//!   spans properly (balanced, name-matched B/E pairs), at every rank
//!   count.
//! * **Exact overflow accounting** — a capacity-bounded recorder never
//!   loses count: recorded + dropped == emitted, always.
//!
//! The trace mode is a process-wide switch, so every test that flips it
//! serializes on one mutex and restores it before releasing it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::comm::Runtime;
use meshing_universe::diy::decomposition::{Assignment, Decomposition};
use meshing_universe::diy::metrics::collect_report;
use meshing_universe::diy::trace::{
    chrome_trace_json, collect_traces, set_trace_mode, validate_chrome_trace, Event, EventKind,
    RankTrace, TraceMode, TraceState, NO_NAME, TID_MAIN,
};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{self, GhostSpec, TessParams};

static TRACE_MODE_LOCK: Mutex<()> = Mutex::new(());

/// Deterministic clustered-ish particle set (jittered lattice).
fn jittered(n: usize, seed: u64) -> Vec<(u64, Vec3)> {
    use meshing_universe::rand::{Rng, SeedableRng};
    let mut rng = meshing_universe::rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    (0..n * n * n)
        .map(|idx| {
            let (i, j, k) = (idx % n, (idx / n) % n, idx / (n * n));
            let p = Vec3::new(i as f64 + 0.5, j as f64 + 0.5, k as f64 + 0.5);
            let q = p + Vec3::new(
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
                rng.gen_range(-0.4..0.4),
            );
            let ng = n as f64;
            (
                idx as u64,
                Vec3::new(q.x.rem_euclid(ng), q.y.rem_euclid(ng), q.z.rem_euclid(ng)),
            )
        })
        .collect()
}

/// Mesh fingerprint: site id → (volume bits, area bits).
type Mesh = BTreeMap<u64, (u64, u64)>;

/// One adaptive distributed tessellation; returns the mesh fingerprint,
/// whether the merged metrics conserve traffic, and root's merged trace.
fn run_adaptive(
    nranks: usize,
    particles: &[(u64, Vec3)],
    n: usize,
) -> (Mesh, bool, Vec<RankTrace>) {
    let domain = Aabb::cube(n as f64);
    let nblocks = nranks.max(2);
    let dec = Decomposition::regular(domain, nblocks, [true; 3]);
    let params = TessParams {
        ghost: GhostSpec::Adaptive {
            initial_factor: 0.75,
            max_rounds: 8,
        },
        ..TessParams::default()
    };
    let rows = Runtime::run(nranks, move |world| {
        let asn = Assignment::new(nblocks, world.nranks());
        let mut local: BTreeMap<u64, Vec<(u64, Vec3)>> = asn
            .blocks_of_rank(world.rank())
            .map(|g| (g, Vec::new()))
            .collect();
        for &(id, p) in particles {
            let gid = dec.block_of_point(p);
            if let Some(v) = local.get_mut(&gid) {
                v.push((id, p));
            }
        }
        let r = tess::tessellate(world, &dec, &asn, &local, &params);
        let conserved = collect_report(world).is_conserved();
        let traces = collect_traces(world);
        let mesh: Vec<(u64, (u64, u64))> = r
            .blocks
            .values()
            .flat_map(|b| {
                b.cells
                    .iter()
                    .map(|c| (b.site_id_of(c), (c.volume.to_bits(), c.area.to_bits())))
                    .collect::<Vec<_>>()
            })
            .collect();
        (mesh, conserved, traces)
    });
    let mut mesh = Mesh::new();
    let mut conserved = true;
    let mut traces = None;
    for (m, c, t) in rows {
        for (id, bits) in m {
            assert!(mesh.insert(id, bits).is_none(), "cell {id} duplicated");
        }
        conserved &= c;
        if let Some(t) = t {
            traces = Some(t);
        }
    }
    (mesh, conserved, traces.expect("root rank trace"))
}

#[test]
fn tracing_does_not_perturb_the_mesh_and_conservation_holds() {
    let _guard = TRACE_MODE_LOCK.lock().unwrap();
    let n = 5;
    let particles = jittered(n, 11);
    for nranks in [2usize, 4] {
        set_trace_mode(TraceMode::Off);
        let (mesh_off, conserved_off, traces_off) = run_adaptive(nranks, &particles, n);
        set_trace_mode(TraceMode::Full);
        let (mesh_full, conserved_full, traces_full) = run_adaptive(nranks, &particles, n);
        set_trace_mode(TraceMode::Off);

        assert_eq!(
            mesh_off, mesh_full,
            "nranks={nranks}: traced mesh differs from untraced mesh"
        );
        assert_eq!(mesh_off.len(), n * n * n, "nranks={nranks}: cells missing");
        assert!(conserved_off && conserved_full, "nranks={nranks}");
        assert!(
            traces_off.iter().all(|t| t.events.is_empty()),
            "nranks={nranks}: trace-off run recorded events"
        );
        assert!(
            traces_full.iter().any(|t| !t.events.is_empty()),
            "nranks={nranks}: traced run recorded nothing"
        );
    }
}

#[test]
fn chrome_export_is_wellformed_and_spans_nest_at_every_rank_count() {
    let _guard = TRACE_MODE_LOCK.lock().unwrap();
    let n = 5;
    let particles = jittered(n, 23);
    for nranks in [1usize, 2, 4, 8] {
        set_trace_mode(TraceMode::Full);
        let (_, _, traces) = run_adaptive(nranks, &particles, n);
        set_trace_mode(TraceMode::Off);

        assert_eq!(traces.len(), nranks, "one merged trace entry per rank");
        for t in &traces {
            assert_eq!(
                t.emitted,
                t.events.len() as u64 + t.dropped,
                "rank {}: overflow accounting broken",
                t.rank
            );
            // the adaptive driver ran at least one ghost-round marker and
            // the phase spans on every rank
            assert!(
                t.events
                    .iter()
                    .any(|e| e.kind == EventKind::Mark && t.name(e.name) == "ghost_round"),
                "rank {}: no ghost_round marker",
                t.rank
            );
            assert!(
                t.events.iter().any(|e| e.kind == EventKind::SpanBegin),
                "rank {}: no spans",
                t.rank
            );
        }
        let json = chrome_trace_json(&traces);
        let n_records = validate_chrome_trace(&json)
            .unwrap_or_else(|e| panic!("nranks={nranks}: exported Chrome trace invalid: {e}"));
        assert!(n_records > 0, "nranks={nranks}: empty export");
    }
}

#[test]
fn overflow_accounting_is_exact() {
    // No mode flip needed: TraceState is a plain recorder.
    let cap = 16usize;
    let mut state = TraceState::with_cap(cap);
    let total = 1000u64;
    for i in 0..total {
        state.push(Event {
            t_ns: i,
            kind: EventKind::Mark,
            tid: TID_MAIN,
            name: NO_NAME,
            a: i,
            b: 0,
        });
    }
    assert_eq!(state.emitted(), total);
    assert_eq!(state.recorded(), cap, "prefix-keep: oldest events survive");
    assert_eq!(state.dropped(), total - cap as u64);
    assert_eq!(state.recorded() as u64 + state.dropped(), state.emitted());
    let snap = state.snapshot(3);
    assert_eq!(snap.rank, 3);
    assert_eq!(snap.emitted, total);
    assert_eq!(snap.events.len() as u64 + snap.dropped, snap.emitted);
    // prefix-keep: the survivors are exactly the first `cap` events
    assert!(snap.events.iter().enumerate().all(|(i, e)| e.a == i as u64));
}
