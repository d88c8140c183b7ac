//! `ctrl.unminimized_frac` counts hardwired controllers with more than
//! `flow::EXACT_INPUT_LIMIT` inputs, a copy of a private limit in
//! `hls-ctrl`. These tests fail when the copy and the limit diverge.

use std::collections::BTreeSet;

use hls_ctrl::{hardwired_logic, Cond, EncodingStyle, Fsm, State, Transition};
use hls_perfbench::flow::EXACT_INPUT_LIMIT;

/// A 4-state ring (2 binary state bits) with `inputs - 2` flags that no
/// guard reads. States 0 and 1 share a signal, so exact minimization
/// merges their two minterms into one term with one literal fewer.
fn ring(inputs: u32) -> Fsm {
    let state = |i: usize, signals: &[&str]| State {
        name: format!("s{i}"),
        signals: signals.iter().map(|s| s.to_string()).collect(),
        transitions: vec![Transition {
            cond: Cond::Always,
            to: (i + 1) % 4,
        }],
    };
    Fsm {
        states: vec![
            state(0, &["a"]),
            state(1, &["a", "b"]),
            state(2, &["c"]),
            state(3, &[]),
        ],
        flags: (0..inputs - 2)
            .map(|i| format!("f{i}"))
            .collect::<BTreeSet<_>>(),
        ..Fsm::default()
    }
}

/// Whether `hardwired_logic` left every function as a sum of minterms:
/// then each term carries one literal per input.
fn unminimized(inputs: u32) -> bool {
    let report = hardwired_logic(&ring(inputs), EncodingStyle::Binary).unwrap();
    assert_eq!(report.state_bits, 2);
    report.literals == report.terms as u64 * u64::from(inputs)
}

#[test]
fn the_copied_input_limit_matches_hls_ctrl() {
    assert!(
        !unminimized(EXACT_INPUT_LIMIT),
        "hls-ctrl no longer minimizes at {EXACT_INPUT_LIMIT} inputs"
    );
    assert!(
        unminimized(EXACT_INPUT_LIMIT + 1),
        "hls-ctrl now minimizes at {} inputs",
        EXACT_INPUT_LIMIT + 1
    );
}
