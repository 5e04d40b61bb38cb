//! Fuzz-style property tests for the binary codec: decoding arbitrary
//! bytes must never panic (only return errors), and every encodable value
//! round-trips.

use diy::codec::{Decode, Encode};
use diy::hist::LogHistogram;
use diy::metrics::{MemStats, NamedHist, PhaseReport, RunReport, SlowCell, TagTraffic};
use geometry::{Aabb, Vec3};
use proptest::prelude::*;
use tess::stats::TessStats;

/// Strategy for an arbitrary [`LogHistogram`] (built by observation so the
/// internal invariants hold, NaN and negatives included).
fn arb_hist() -> impl Strategy<Value = LogHistogram> {
    proptest::collection::vec((0u8..4, -1e12f64..1e12), 0..24).prop_map(|xs| {
        let mut h = LogHistogram::new();
        for (kind, x) in xs {
            h.observe(match kind {
                0 => x,
                1 => 0.0,
                2 => f64::NAN,
                _ => f64::INFINITY,
            });
        }
        h
    })
}

/// Strategy for an arbitrary (not necessarily conserved) [`RunReport`].
fn arb_report() -> impl Strategy<Value = RunReport> {
    (
        1u64..64,
        proptest::collection::vec(
            (
                proptest::collection::vec(32u8..127, 0..12),
                0.0f64..1e6,
                0.0f64..1e6,
                any::<u32>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                any::<u32>(),
                any::<u32>(),
            ),
            0..6,
        ),
        proptest::collection::vec(
            (
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
                any::<u32>(),
                any::<u64>(),
            ),
            0..6,
        ),
        proptest::collection::vec(
            (proptest::collection::vec(32u8..127, 0..10), arb_hist()),
            0..4,
        ),
        proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..8,
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(|(nranks, phases, tags, hists, slow, mem)| RunReport {
            nranks,
            phases: phases
                .into_iter()
                .map(
                    |(name, cpu_max_s, cpu_sum_s, ms, bs, mr, br, coll, slowest)| PhaseReport {
                        name: String::from_utf8(name).unwrap(),
                        cpu_max_s,
                        cpu_sum_s,
                        slowest_rank: slowest as u64,
                        msgs_sent: ms as u64,
                        bytes_sent: bs,
                        msgs_recv: mr as u64,
                        bytes_recv: br,
                        collectives: coll as u64,
                    },
                )
                .collect(),
            tags: tags
                .into_iter()
                .map(|(tag, ms, bs, mr, br)| TagTraffic {
                    tag,
                    msgs_sent: ms as u64,
                    bytes_sent: bs,
                    msgs_recv: mr as u64,
                    bytes_recv: br,
                })
                .collect(),
            hists: hists
                .into_iter()
                .map(|(name, hist)| NamedHist {
                    name: String::from_utf8(name).unwrap(),
                    hist,
                })
                .collect(),
            slow_cells: slow
                .into_iter()
                .map(|(ns, gid, particle, rank)| SlowCell {
                    ns,
                    gid,
                    particle,
                    rank,
                })
                .collect(),
            memory: MemStats {
                alloc_count: mem.0,
                alloc_bytes_total: mem.1,
                live_bytes: mem.2,
                peak_live_bytes: mem.3,
                rss_kb: mem.4,
                peak_rss_kb: mem.5,
            },
        })
}

fn arb_stats() -> impl Strategy<Value = TessStats> {
    // 15 fields exceed the shim's widest tuple impl, so nest the work
    // counters in a sub-tuple.
    (
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                sites,
                ghosts_received,
                cells,
                incomplete,
                incomplete_kept,
                culled_early,
                culled_late,
                verts,
                faces,
                (
                    ghost_rounds,
                    candidates_tested,
                    prefilter_skipped,
                    candidates_sorted,
                    cells_computed,
                    cells_reused,
                ),
            )| {
                TessStats {
                    sites,
                    ghosts_received,
                    cells,
                    incomplete,
                    incomplete_kept,
                    culled_early,
                    culled_late,
                    verts,
                    faces,
                    ghost_rounds,
                    candidates_tested,
                    prefilter_skipped,
                    candidates_sorted,
                    cells_computed,
                    cells_reused,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Arbitrary byte soup: decode returns Ok or Err, never panics.
    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = u64::from_bytes(&bytes);
        let _ = f64::from_bytes(&bytes);
        let _ = bool::from_bytes(&bytes);
        let _ = String::from_bytes(&bytes);
        let _ = Vec::<u32>::from_bytes(&bytes);
        let _ = Vec::<(u64, f64)>::from_bytes(&bytes);
        let _ = Option::<Vec<u8>>::from_bytes(&bytes);
        let _ = Vec3::from_bytes(&bytes);
        let _ = Vec::<(u64, Vec3)>::from_bytes(&bytes);
    }

    /// Truncating a valid encoding at any point yields an error, not junk
    /// (for types whose decoders consume the full payload).
    #[test]
    fn truncation_is_detected(
        items in proptest::collection::vec((any::<u64>(), -1e12f64..1e12), 1..20),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = items.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            let r = Vec::<(u64, f64)>::from_bytes(&bytes[..cut]);
            // either a clean error, or a prefix decode shorter than items
            // (impossible here: the length prefix pins the count)
            prop_assert!(r.is_err());
        }
    }

    /// Round-trip for nested structures.
    #[test]
    fn nested_roundtrip(
        rows in proptest::collection::vec(
            (any::<u64>(),
             proptest::collection::vec(-1e9f64..1e9, 0..8),
             proptest::option::of(any::<bool>())),
            0..16
        )
    ) {
        let bytes = rows.to_bytes();
        let back = Vec::<(u64, Vec<f64>, Option<bool>)>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, rows);
    }

    /// [`RunReport`] round-trips through the codec bit-exactly, and its
    /// merged-report views survive (conservation verdict, totals).
    #[test]
    fn run_report_roundtrip(report in arb_report()) {
        let bytes = report.to_bytes();
        let back = RunReport::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &report);
        prop_assert_eq!(back.is_conserved(), report.is_conserved());
        prop_assert_eq!(back.traffic_totals(), report.traffic_totals());
    }

    /// Truncating a [`RunReport`] encoding anywhere yields `CodecError`,
    /// never a panic or a silently short report.
    #[test]
    fn run_report_truncation_is_detected(
        report in arb_report(),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = report.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(RunReport::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Arbitrary byte soup never panics the report/stats decoders.
    #[test]
    fn report_decoders_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..512)
    ) {
        let _ = RunReport::from_bytes(&bytes);
        let _ = TessStats::from_bytes(&bytes);
    }

    /// [`TessStats`] round-trips bit-exactly; truncation is a clean error.
    #[test]
    fn tess_stats_roundtrip_and_truncation(
        stats in arb_stats(),
        cut in 0usize..120,
    ) {
        let bytes = stats.to_bytes();
        prop_assert_eq!(bytes.len(), 120); // 15 × u64
        prop_assert_eq!(TessStats::from_bytes(&bytes).unwrap(), stats);
        if cut < bytes.len() {
            prop_assert!(TessStats::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Vec3/Aabb round-trip bit-exactly for finite values.
    #[test]
    fn geometry_roundtrip(
        v in (-1e12f64..1e12, -1e12f64..1e12, -1e12f64..1e12),
        e in (0.0f64..1e6, 0.0f64..1e6, 0.0f64..1e6),
    ) {
        let p = Vec3::new(v.0, v.1, v.2);
        prop_assert_eq!(Vec3::from_bytes(&p.to_bytes()).unwrap(), p);
        let b = Aabb::new(p, p + Vec3::new(e.0, e.1, e.2));
        prop_assert_eq!(Aabb::from_bytes(&b.to_bytes()).unwrap(), b);
    }
}
