//! Live-telemetry invariants for the resident service:
//!
//! * the `service.*` instruments of a service's own registry count its
//!   requests exactly, and two services in one process never share a
//!   series;
//! * the Prometheus exposition of a service re-parses and carries the
//!   published epoch;
//! * with `TraceMode::Spans` on, every request's enqueue→reply life is
//!   recorded under its own tid (= request id) in the service flight
//!   recorder, and the merged export validates as Chrome-trace JSON, with
//!   each request track labelled as that request.
//!
//! The trace mode is process-wide, so the tests that flip it serialize on
//! one mutex and restore it before releasing it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use meshing_universe::diy::telemetry;
use meshing_universe::diy::trace::{
    chrome_trace_json, set_trace_mode, validate_chrome_trace, EventKind, TraceMode,
};
use meshing_universe::geometry::{Aabb, Vec3};
use meshing_universe::tess::{
    Answer, MeshService, Query, ServiceConfig, TessParams, Update, SERVICE_TRACE_PID,
};

static TRACE_MODE_LOCK: Mutex<()> = Mutex::new(());

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

fn spawn(n: usize, seed: u64) -> MeshService {
    let particles = jittered(n, seed);
    MeshService::spawn(
        Aabb::cube(n as f64),
        [true; 3],
        &particles,
        ServiceConfig::new(2, 4)
            .with_workers(2)
            .with_params(TessParams::default().with_adaptive_ghost()),
    )
}

#[test]
fn registry_tracks_service_counters_and_gauges() {
    let svc = spawn(5, 3);
    let n_queries = 12u64;
    for i in 0..n_queries {
        let p = Vec3::new(0.3 + (i as f64) * 0.35, 2.0, 2.0);
        let r = svc.query(Query::Point(p)).expect("service open");
        assert!(matches!(r.answer, Answer::Point(Some(_))));
    }
    svc.update(Update::Delta {
        upserts: vec![(0, Vec3::new(2.5, 2.5, 2.5))],
        removes: Vec::new(),
    });
    // Shutdown joins the workers, so every batch has been counted.
    let stats = svc.shutdown();

    // The registry is this service's own: its counters are exact.
    let reg = svc.telemetry();
    assert_eq!(reg.counter("service.answered", &[]).get(), n_queries);
    assert_eq!(reg.counter("service.enqueued", &[]).get(), n_queries);
    assert_eq!(reg.counter("service.epochs_published", &[]).get(), 2);
    assert_eq!(reg.counter("service.batches", &[]).get(), stats.batches);
    let point_hist = reg
        .histogram("service.latency_ns", &[("kind", "point")])
        .read();
    assert_eq!(point_hist.total().n(), n_queries);
    assert!(point_hist.rolling().quantile(0.99) > 0.0);

    // Gauges reflect the most recent publish.
    assert_eq!(reg.gauge("service.epoch", &[]).get(), 2.0);
    assert_eq!(
        reg.gauge("service.particles", &[]).get(),
        125.0,
        "particle gauge"
    );
    assert!(reg.gauge("service.cells", &[]).get() > 0.0);
    assert!(reg.gauge("service.rank_imbalance", &[]).get() >= 1.0);
    let rate = reg.gauge("service.coalesce_rate", &[]).get();
    assert!((0.0..=1.0).contains(&rate), "coalesce rate {rate}");

    // The exposition of the registry re-parses and carries the epoch.
    let samples =
        telemetry::parse_exposition(&reg.render_prometheus()).expect("exposition re-parses");
    let series = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} series"))
            .value
    };
    assert_eq!(series("service_epoch"), 2.0);
    assert_eq!(series("service_answered"), n_queries as f64);
}

#[test]
fn updates_record_their_latency_and_carried_cells() {
    // `Auto` ghosts: one pass per epoch, so every site is either carried
    // from the previous epoch or computed, exactly once.
    let particles = jittered(5, 8);
    let svc = MeshService::spawn(
        Aabb::cube(5.0),
        [true; 3],
        &particles,
        ServiceConfig::new(2, 4)
            .with_workers(1)
            .with_params(TessParams::default()),
    );
    let reg = svc.telemetry();
    let update_ns = reg.histogram("service.update_ns", &[]);
    let cells = || {
        (
            reg.counter("service.cells_reused", &[]).get(),
            reg.counter("service.cells_computed", &[]).get(),
        )
    };
    assert_eq!(update_ns.read().total().n(), 0, "spawn is not an update");
    let spawned = cells();
    assert_eq!(spawned, (0, particles.len() as u64));

    let updates = 4;
    for k in 0..updates {
        let (id, p) = particles[31 * k + 7];
        let before = cells();
        let rep = svc.update(Update::Delta {
            upserts: vec![(id, p + Vec3::new(0.05, -0.03, 0.02))],
            removes: Vec::new(),
        });
        let after = cells();
        let s = rep.stats;
        // per epoch, not cumulative
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (s.cells_reused, s.cells_computed)
        );
        assert_eq!(
            s.cells_reused + s.cells_computed,
            s.sites,
            "epoch {}",
            rep.epoch
        );
        assert!(s.cells_reused > s.cells_computed, "a one-particle move");
    }
    let hist = update_ns.read();
    assert_eq!(hist.total().n(), updates as u64);
    assert!(hist.total().quantile(0.5) > 0.0);
}

#[test]
fn concurrent_services_each_count_only_their_own_requests() {
    let (a, b) = (spawn(4, 5), spawn(4, 6));
    let run = |svc: &MeshService, n: usize| {
        for i in 0..n {
            let p = Vec3::new(0.2 + 0.3 * i as f64, 1.5, 2.5);
            svc.query(Query::Point(p)).expect("service open");
        }
    };
    std::thread::scope(|s| {
        s.spawn(|| run(&a, 7));
        s.spawn(|| run(&b, 19));
    });
    for (svc, n) in [(&a, 7u64), (&b, 19)] {
        let stats = svc.shutdown();
        assert_eq!(stats.answered, n);
        assert_eq!(
            svc.telemetry().counter("service.answered", &[]).get(),
            stats.answered,
            "a service's scrape counts another service's answers"
        );
    }
}

#[test]
fn requests_trace_as_one_track_each() {
    let _guard = TRACE_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_trace_mode(TraceMode::Spans);

    let svc = spawn(4, 9);
    let mut expected: BTreeMap<u64, &'static str> = BTreeMap::new();
    let r = svc
        .query(Query::Point(Vec3::new(2.0, 2.0, 2.0)))
        .expect("open");
    expected.insert(r.id, "query:point");
    let r = svc
        .query(Query::BoxCells(Aabb::new(
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(2.0, 2.0, 2.0),
        )))
        .expect("open");
    expected.insert(r.id, "query:box");
    let r = svc.query(Query::Region(Aabb::cube(4.0))).expect("open");
    expected.insert(r.id, "query:region");

    let snap = svc.trace_snapshot();
    assert_eq!(snap.rank, SERVICE_TRACE_PID);
    assert_eq!(snap.dropped, 0, "recorder overflowed");

    // Every request's life is one tid: Begin and End carry the span name,
    // and the batch mark sits between them on the same track.
    for (&id, &name) in &expected {
        let tid = id as u32;
        let track: Vec<_> = snap.events.iter().filter(|e| e.tid == tid).collect();
        let begins: Vec<_> = track
            .iter()
            .filter(|e| e.kind == EventKind::SpanBegin)
            .collect();
        let ends: Vec<_> = track
            .iter()
            .filter(|e| e.kind == EventKind::SpanEnd)
            .collect();
        assert_eq!(begins.len(), 1, "request {id}: one Begin");
        assert_eq!(ends.len(), 1, "request {id}: one End");
        assert_eq!(snap.name(begins[0].name), name);
        assert_eq!(snap.name(ends[0].name), name);
        assert!(begins[0].t_ns <= ends[0].t_ns, "request {id}: time order");
        assert!(ends[0].b > 0, "request {id}: End carries the latency");
        assert!(
            track
                .iter()
                .any(|e| e.kind == EventKind::Mark && snap.name(e.name) == "batch"),
            "request {id}: batch mark missing"
        );
    }

    // The merged export is well-formed Chrome-trace JSON with at least
    // one record per request, and its metadata names the service process
    // and each request's track.
    let json = chrome_trace_json(&[snap]);
    let n = validate_chrome_trace(&json).expect("chrome trace validates");
    assert!(
        n >= expected.len(),
        "{n} records for {} requests",
        expected.len()
    );
    let pid = SERVICE_TRACE_PID;
    assert!(
        json.contains(&format!(
            "\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"mesh service\"}}"
        )),
        "service process label missing"
    );
    for &id in expected.keys() {
        assert!(
            json.contains(&format!(
                "\"pid\":{pid},\"tid\":{id},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"request {id}\"}}"
            )),
            "request {id}: track label missing"
        );
    }

    set_trace_mode(prev);
    svc.shutdown();
}

#[test]
fn tracing_off_records_nothing() {
    let _guard = TRACE_MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = set_trace_mode(TraceMode::Off);
    let svc = spawn(4, 17);
    svc.query(Query::Point(Vec3::new(1.0, 1.0, 1.0)))
        .expect("open");
    let snap = svc.trace_snapshot();
    assert!(
        snap.events.is_empty(),
        "flight recorder must stay empty with tracing off"
    );
    set_trace_mode(prev);
    svc.shutdown();
}
