//! Error-path conformance: one table row per [`NetlistError`] variant,
//! each asserting the variant produced, the *exact* 1-based line/column
//! span, and the stable wire code + HTTP status the serving layer maps it
//! to. These spans and codes are a public contract — a row here failing
//! means a breaking change for deck-writing clients.

use tranvar_netlist::{parse_and_elaborate, NetlistError, Span};

struct Row {
    /// What the row exercises.
    case: &'static str,
    deck: &'static str,
    /// Expected variant, by wire code.
    code: &'static str,
    /// Expected exact error position.
    span: Span,
    /// A fragment the Display message must contain.
    message_has: &'static str,
}

const ROWS: &[Row] = &[
    Row {
        case: "unknown dot card",
        deck: "t\n.foo bar\n",
        code: "netlist.unknown-card",
        span: Span::new(2, 1),
        message_has: ".foo",
    },
    Row {
        case: "unknown element letter",
        deck: "t\nQ1 a b c 1.0\n",
        code: "netlist.unknown-card",
        span: Span::new(2, 1),
        message_has: "Q1",
    },
    Row {
        case: "unterminated quoted expression",
        deck: "t\nR1 a b 'oops\n",
        code: "netlist.syntax",
        span: Span::new(2, 8),
        message_has: "unterminated",
    },
    Row {
        case: "orphan continuation line",
        deck: "t\n+ R1 a b 1\n",
        code: "netlist.syntax",
        span: Span::new(2, 1),
        message_has: "continuation",
    },
    Row {
        case: "malformed number",
        deck: "t\nV1 a 0 1.2.3\n",
        code: "netlist.malformed-number",
        span: Span::new(2, 8),
        message_has: "1.2.3",
    },
    Row {
        case: "bad SI suffix",
        deck: "t\nC1 a 0 1e3k\n",
        code: "netlist.malformed-number",
        span: Span::new(2, 8),
        message_has: "1e3k",
    },
    Row {
        case: "undefined parameter in an expression",
        deck: "t\nV1 a 0 1.0\nR1 a 0 'r0'\n",
        code: "netlist.undefined-param",
        span: Span::new(3, 9),
        message_has: "r0",
    },
    Row {
        case: "noise key on a model card (the MOSFET model has none)",
        deck: "t\n.model m nmos kf=2e-25\nV1 a 0 1.0\nR1 a 0 1e3\n",
        code: "netlist.syntax",
        span: Span::new(2, 15),
        message_has: "unknown model parameter `kf`",
    },
    Row {
        case: "model defined twice",
        deck: "t\n.model m nmos\n.model m pmos\nV1 a 0 1.0\nR1 a 0 1e3\n",
        code: "netlist.duplicate-model",
        span: Span::new(3, 8),
        message_has: "m",
    },
    Row {
        case: "mosfet referencing a missing model",
        deck: "t\nV1 a 0 1.0\nM1 a a 0 nope w=1u l=0.13u\n",
        code: "netlist.unknown-model",
        span: Span::new(3, 10),
        message_has: "nope",
    },
    Row {
        case: "device label reused",
        deck: "t\nV1 a 0 1.0\nR1 a 0 1e3\nR1 a 0 2e3\n",
        code: "netlist.duplicate-device",
        span: Span::new(4, 1),
        message_has: "R1",
    },
    Row {
        case: "node with a single connection",
        deck: "t\nV1 a 0 1.0\nR1 a c 1e3\n",
        code: "netlist.dangling-node",
        span: Span::new(3, 6),
        message_has: "c",
    },
    Row {
        case: "declared-but-unused node",
        deck: "t\n.node a ghost\nV1 a 0 1.0\nR1 a 0 1e3\n",
        code: "netlist.dangling-node",
        span: Span::new(2, 9),
        message_has: "ghost",
    },
    Row {
        case: "non-positive resistance (caught before the builder)",
        deck: "t\nV1 a 0 1.0\nR1 a 0 '0.0-5.0'\n",
        code: "netlist.invalid-value",
        span: Span::new(3, 8),
        message_has: "positive",
    },
    Row {
        case: "instance of an undefined subcircuit",
        deck: "t\nV1 a 0 1.0\nX1 a nope\nR1 a 0 1e3\n",
        code: "netlist.unknown-subckt",
        span: Span::new(3, 6),
        message_has: "nope",
    },
    Row {
        case: "instance with the wrong port count",
        deck: "t\n.subckt foo a b\nR1 a b 1e3\n.ends\nV1 n 0 1.0\nX1 n foo\nR9 n 0 1e3\n",
        code: "netlist.port-mismatch",
        span: Span::new(6, 1),
        message_has: "2",
    },
    Row {
        case: "sigma glob matching no device",
        deck: "t\nV1 a 0 1.0\nR1 a 0 1e3\n.sigma r Q* sigma=1\n",
        code: "netlist.unknown-label",
        span: Span::new(4, 10),
        message_has: "Q*",
    },
    Row {
        case: "sweep targeting a missing device",
        deck: "t\nV1 a 0 1.0\nR1 a 0 1e3\n.sweep r R9 2e3\n",
        code: "netlist.unknown-label",
        span: Span::new(4, 10),
        message_has: "R9",
    },
];

#[test]
fn every_variant_has_exact_span_and_stable_wire_code() {
    for row in ROWS {
        let err = match parse_and_elaborate(row.deck) {
            Err(e) => e,
            Ok(_) => panic!("case {:?} unexpectedly elaborated", row.case),
        };
        let fault = err.wire_fault();
        assert_eq!(fault.code, row.code, "case {:?}: {err}", row.case);
        assert_eq!(err.span(), row.span, "case {:?}: {err}", row.case);
        let msg = err.to_string();
        assert!(
            msg.contains(row.message_has),
            "case {:?}: message {msg:?} lacks {:?}",
            row.case,
            row.message_has
        );
        // The span is part of the human-facing message too.
        assert!(
            msg.contains(&format!("line {}", row.span.line)),
            "case {:?}: message {msg:?} lacks its line",
            row.case
        );
    }
}

/// The deck-level 422 mapping: every variant classifies as Unprocessable.
#[test]
fn all_rows_map_to_unprocessable() {
    use tranvar_num::error::FailureClass;
    for row in ROWS {
        let err = parse_and_elaborate(row.deck).unwrap_err();
        assert_eq!(
            err.wire_fault().class,
            FailureClass::Unprocessable,
            "case {:?}",
            row.case
        );
    }
}

/// Spans survive `+` continuation splicing: the error points at the
/// physical line of the offending token, not the logical card start.
#[test]
fn spans_point_at_physical_continuation_lines() {
    let deck = "t\nV1 a 0 1.0\nR1 a 0\n+ 1.2.3\n";
    let err = parse_and_elaborate(deck).unwrap_err();
    assert!(matches!(err, NetlistError::MalformedNumber { .. }), "{err}");
    assert_eq!(err.span(), Span::new(4, 3));
}
