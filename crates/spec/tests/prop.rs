//! Property-based tests of the specification model.

use noc_spec::app::AppSpec;
use noc_spec::canon::{content_hash, hash_parts, ContentHasher};
use noc_spec::core::{Core, CoreRole};
use noc_spec::protocol::TransactionKind;
use noc_spec::textfmt;
use noc_spec::traffic::TrafficFlow;
use noc_spec::units::{BitsPerSecond, Hertz};
use proptest::prelude::*;

fn arb_role() -> impl Strategy<Value = CoreRole> {
    prop_oneof![
        Just(CoreRole::Master),
        Just(CoreRole::Slave),
        Just(CoreRole::MasterSlave),
    ]
}

fn arb_kind() -> impl Strategy<Value = TransactionKind> {
    prop_oneof![
        Just(TransactionKind::Read),
        Just(TransactionKind::Write),
        (1u16..64).prop_map(TransactionKind::BurstRead),
        (1u16..64).prop_map(TransactionKind::BurstWrite),
        Just(TransactionKind::Stream),
    ]
}

proptest! {
    /// Any master→slave flow set over role-consistent cores validates,
    /// and the text format round-trips it.
    #[test]
    fn random_valid_specs_build_and_round_trip(
        roles in prop::collection::vec(arb_role(), 2..12),
        flows in prop::collection::vec((0usize..12, 0usize..12, 1u64..100_000, arb_kind()), 1..24),
        mhz in 50u64..2_000,
    ) {
        let mut b = AppSpec::builder("prop");
        for (i, &role) in roles.iter().enumerate() {
            b.add_core(Core::new(format!("c{i}"), role).with_clock(Hertz::from_mhz(mhz)));
        }
        let n = roles.len();
        let mut added = 0;
        for (s, d, mbps, kind) in flows {
            let (s, d) = (s % n, d % n);
            if s == d || !roles[s].is_master() || !roles[d].is_slave() {
                continue;
            }
            b.add_flow(
                TrafficFlow::new(
                    noc_spec::CoreId(s),
                    noc_spec::CoreId(d),
                    BitsPerSecond::from_mbps(mbps),
                )
                .with_kind(kind),
            );
            added += 1;
        }
        prop_assume!(added > 0);
        let spec = b.build().expect("role-consistent flows validate");
        let text = textfmt::to_text(&spec);
        let back = textfmt::from_text(&text).expect("round trip");
        prop_assert_eq!(back.cores().len(), spec.cores().len());
        prop_assert_eq!(back.flows().len(), spec.flows().len());
        prop_assert_eq!(back.total_bandwidth(), spec.total_bandwidth());
    }

    /// The implied response flow always travels the reverse direction
    /// with the same QoS, and carries the full bandwidth exactly for
    /// data-bearing (read-like) requests.
    #[test]
    fn response_flow_properties(mbps in 1u64..1_000_000, kind in arb_kind(), gt in any::<bool>()) {
        let mut f = TrafficFlow::new(
            noc_spec::CoreId(0),
            noc_spec::CoreId(1),
            BitsPerSecond::from_mbps(mbps),
        )
        .with_kind(kind);
        if gt {
            f = f.guaranteed();
        }
        let r = f.response_flow();
        prop_assert_eq!(r.src, f.dst);
        prop_assert_eq!(r.dst, f.src);
        prop_assert_eq!(r.qos, f.qos);
        if kind.has_data_response() {
            prop_assert_eq!(r.bandwidth, f.bandwidth);
        } else {
            prop_assert!(r.bandwidth.raw() <= f.bandwidth.raw());
            prop_assert!(r.bandwidth.raw() >= 1);
        }
    }

    /// Packet sizing: flit counts grow with beats, shrink with width,
    /// and overhead is always > 1.
    #[test]
    fn packet_flits_properties(beats in 1u16..64, width_exp in 3u32..8) {
        let width = 1u32 << width_exp; // 8..128
        let k = TransactionKind::BurstRead(beats);
        let pf = k.packet_flits(width);
        prop_assert!(pf >= 2, "header + at least one payload flit");
        prop_assert!(k.packet_flits(width * 2) <= pf);
        let oh = k.header_overhead(width);
        prop_assert!(oh > 1.0 && oh <= 2.0);
    }
}

/// Truncates `base` to `cut` characters, then splices `junk` (lossily
/// decoded) at a char boundary near `splice_at` — the standard
/// mutation soup for parser-totality fuzzing.
fn mutate(base: &str, cut: usize, splice_at: usize, junk: &[u8]) -> String {
    let chars = base.chars().count();
    let mut text: String = base.chars().take(cut % (chars + 1)).collect();
    let mut at = splice_at % (text.len() + 1);
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    text.insert_str(at, &String::from_utf8_lossy(junk));
    text
}

fn base_spec_text() -> String {
    let mut b = AppSpec::builder("fuzz");
    b.add_core(Core::new("cpu", CoreRole::Master).with_clock(Hertz::from_mhz(400)));
    b.add_core(Core::new("dsp", CoreRole::MasterSlave).with_clock(Hertz::from_mhz(200)));
    b.add_core(Core::new("mem", CoreRole::Slave).with_clock(Hertz::from_mhz(400)));
    b.add_flow(
        TrafficFlow::new(
            noc_spec::CoreId(0),
            noc_spec::CoreId(2),
            BitsPerSecond::from_mbps(800),
        )
        .with_kind(TransactionKind::BurstWrite(8))
        .guaranteed(),
    );
    b.add_flow(TrafficFlow::new(
        noc_spec::CoreId(1),
        noc_spec::CoreId(2),
        BitsPerSecond::from_mbps(120),
    ));
    textfmt::to_text(&b.build().expect("valid spec"))
}

fn base_plan_text() -> String {
    use noc_spec::fault::{
        CorruptionEvent, FaultEvent, FaultKind, FaultPlan, FaultTarget, RecoveryConfig,
    };
    FaultPlan::from_events(vec![
        FaultEvent {
            target: FaultTarget::Link(3),
            start: 100,
            kind: FaultKind::Permanent,
        },
        FaultEvent {
            target: FaultTarget::Router(2),
            start: 250,
            kind: FaultKind::Transient { duration: 80 },
        },
    ])
    .with_recovery(RecoveryConfig::default())
    .with_corruption(vec![
        CorruptionEvent {
            link: 5,
            start: 120,
            duration: Some(300),
            ber_ppm: 2_500,
            double_ppm: 40,
        },
        CorruptionEvent {
            link: 1,
            start: 0,
            duration: None,
            ber_ppm: 90,
            double_ppm: 0,
        },
    ])
    .to_text()
}

proptest! {
    /// Hashing a byte string piece by piece, split anywhere, gives
    /// `content_hash` of the whole string.
    #[test]
    fn content_hasher_is_split_invariant(
        bytes in prop::collection::vec(0u8..255, 0..600),
        cuts in prop::collection::vec(0usize..600, 0..8),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut h = ContentHasher::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            h.write(&bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h.finish(), content_hash(&bytes));
    }

    /// A prefix state copied and extended equals `hash_parts` of the
    /// whole part list.
    #[test]
    fn tagged_prefix_extends_to_hash_parts(
        parts in prop::collection::vec(prop::collection::vec(0u8..255, 0..40), 1..6),
        shared in 0usize..6,
    ) {
        let shared = shared.min(parts.len());
        let mut prefix = ContentHasher::tagged("cand", parts.len());
        for p in &parts[..shared] {
            prefix.part(p);
        }
        let mut h = prefix;
        for p in &parts[shared..] {
            h.part(p);
        }
        let slices: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
        prop_assert_eq!(h.finish(), hash_parts("cand", &slices));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The spec text parser is total: arbitrary byte soup is rejected
    /// with `Err` — never a panic. (The freak case where garbage forms
    /// a valid spec must still re-serialize without panicking.)
    #[test]
    fn spec_parser_never_panics_on_garbage(bytes in prop::collection::vec(0u8..255, 0..400)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(spec) = textfmt::from_text(&text) {
            let _ = textfmt::to_text(&spec);
        }
    }

    /// Valid spec text, truncated anywhere and spliced with garbage,
    /// never panics the parser: every mutation is either still parseable
    /// or a clean `Err`.
    #[test]
    fn spec_parser_never_panics_on_mutation(
        cut in 0usize..10_000,
        splice_at in 0usize..10_000,
        junk in prop::collection::vec(0u8..255, 0..48),
    ) {
        let text = mutate(&base_spec_text(), cut, splice_at, &junk);
        if let Ok(spec) = textfmt::from_text(&text) {
            let _ = textfmt::to_text(&spec);
        }
    }

    /// The fault-plan parser (header, events, and the `recover`
    /// directive) is total on arbitrary byte soup.
    #[test]
    fn fault_plan_parser_never_panics_on_garbage(bytes in prop::collection::vec(0u8..255, 0..400)) {
        use noc_spec::fault::FaultPlan;
        let text = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(plan) = FaultPlan::from_text(&text) {
            let _ = plan.to_text();
        }
    }

    /// Valid fault-plan text (recovery knobs included), truncated and
    /// spliced with garbage, never panics the parser.
    #[test]
    fn fault_plan_parser_never_panics_on_mutation(
        cut in 0usize..10_000,
        splice_at in 0usize..10_000,
        junk in prop::collection::vec(0u8..255, 0..48),
    ) {
        use noc_spec::fault::FaultPlan;
        let text = mutate(&base_plan_text(), cut, splice_at, &junk);
        if let Ok(plan) = FaultPlan::from_text(&text) {
            let _ = plan.to_text();
        }
    }
}
