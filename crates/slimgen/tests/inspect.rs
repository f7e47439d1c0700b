//! Inspect's population counts come from the digest walk's lists; over
//! a quick-profile corpus they agree with the conjunctive engine's
//! population joins.

use slimgen::corpus;
use slimgen::Profile;
use superimposed::slimpad::PadSession;
use slimserve::{PadMachine, PadOp, PadOutcome};

#[test]
fn inspect_counts_match_the_population_joins() {
    let mut corpus = corpus::generate(Profile::Quick, 0xC0FFEE);
    let spare = PadSession::new("spare").expect("fresh pad");
    let pad = std::mem::replace(&mut corpus.system.pad, spare);
    let (bundles, scraps) = pad.dmi().population_by_join();
    assert!(scraps >= Profile::Quick.scraps(), "a quick-sized pad: {scraps} scraps");
    let mut machine = PadMachine::new(pad, Box::new(|_: &str| Vec::new()));
    let outcome = machine.apply(&PadOp::Inspect).expect("inspect");
    let PadOutcome::Inspected { bundles: listed_bundles, scraps: listed_scraps, .. } = outcome
    else {
        panic!("Inspect answered {outcome:?}");
    };
    // The invisible root bundle is not counted.
    assert_eq!((listed_bundles, listed_scraps), (bundles - 1, scraps));
}
