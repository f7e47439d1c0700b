//! Inspect over a Quick-corpus pad service. After one slimbench-style
//! rotation per session, Inspect reads the digest the writer kept
//! current at publish: it must equal a full walk of the pad the service
//! left on disk, and its population counts the conjunctive engine's
//! population joins.

use std::path::Path;
use std::sync::Arc;

use slimgen::corpus;
use slimgen::Profile;
use slimserve::{PadConfig, PadMachine, PadOp, PadOutcome, PadParts, PadPartsFactory, PadService};
use superimposed::marks::resilience::SystemClock;
use superimposed::marks::ResilientResolver;
use superimposed::slimio::MemVfs;
use superimposed::slimpad::PadSession;

const SEED: u64 = 0xC0FFEE;
const PAD: &str = "inspect/pad.xml";
const SESSIONS: u64 = 2;

/// A selector below 2³² for `session`'s `i`-th op (splitmix64).
fn selector(session: u64, i: u64) -> u64 {
    let mut z = (session << 32 | i).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 32
}

/// One rotation of slimbench's `pad_service` mix: 3 Resolve, 2 Extract,
/// 1 each of Annotate, CreateMark, Link, CreateBundle and Inspect.
fn rotation(session: u64) -> Vec<PadOp> {
    let docs = Profile::Quick.docs_per_kind() as u64;
    (0..10)
        .map(|i| {
            let sel = selector(session, i);
            let pos = ((sel % 380) as i64, (sel % 280) as i64);
            match i {
                0 | 3 | 6 => PadOp::Resolve { scrap: sel },
                1 | 7 => PadOp::Extract { scrap: sel },
                2 => PadOp::Annotate { scrap: sel, text: "checked on rounds".into() },
                4 => PadOp::CreateMark {
                    doc: format!("note-{:04}.doc", sel % docs),
                    paragraph: sel % 16,
                    start: sel % 8,
                    len: 4 + sel % 8,
                    label: format!("inspect mark {session}"),
                    pos,
                    bundle: Some(sel),
                },
                5 => PadOp::Link { from: sel, to: sel + 1 },
                8 => PadOp::CreateBundle {
                    name: format!("inspect bundle {session}"),
                    pos,
                    width: 320,
                    height: 240,
                    parent: Some(sel),
                },
                _ => PadOp::Inspect,
            }
        })
        .collect()
}

#[test]
fn inspect_counts_match_the_population_joins() {
    let vfs = Arc::new(MemVfs::new());
    let mut corpus = corpus::generate(Profile::Quick, SEED);
    corpus.system.pad.enable_logging(&*vfs, Path::new(PAD)).expect("pre-write the pad");
    let factory: PadPartsFactory = Box::new(|| {
        let corpus = corpus::generate(Profile::Quick, SEED);
        Ok(PadParts {
            manager: corpus.system.fresh_manager()?,
            resolver: ResilientResolver::default(),
            search: Box::new(|_| Vec::new()),
        })
    });
    let config = PadConfig { op_deadline_ms: 600_000, ..PadConfig::default() };
    let service =
        PadService::open(vfs.clone(), Path::new(PAD), config, Arc::new(SystemClock::new()), factory)
            .expect("the service opens the pre-written pad");
    std::thread::scope(|s| {
        for session in 0..SESSIONS {
            let handle = service.session();
            s.spawn(move || {
                for op in rotation(session) {
                    handle.submit(op.clone()).unwrap_or_else(|e| panic!("{op:?} refused: {e}"));
                }
            });
        }
    });
    let inspected = service.session().submit(PadOp::Inspect).expect("inspect").outcome;
    let stats = service.shutdown();
    assert_eq!(stats.acked, SESSIONS * 10 + 1);

    // The pad the service left on disk, walked from scratch.
    let manager = corpus.system.fresh_manager().expect("mark manager");
    let (pad, _) = PadSession::open_logged(&*vfs, Path::new(PAD), manager).expect("reopen");
    let (bundles, scraps) = pad.dmi().population_by_join();
    assert!(scraps >= Profile::Quick.scraps(), "a quick-sized pad: {scraps} scraps");
    let mut machine = PadMachine::new(pad, Box::new(|_: &str| Vec::new()));
    let PadOutcome::Inspected { digest, bundles: listed_bundles, scraps: listed_scraps, .. } =
        inspected
    else {
        panic!("Inspect answered {inspected:?}");
    };
    assert_eq!(digest, machine.digest(), "the kept digest is the walk's");
    // The invisible root bundle is not counted.
    assert_eq!((listed_bundles, listed_scraps), (bundles - 1, scraps));
    assert_eq!(machine.apply(&PadOp::Inspect).expect("inspect"), inspected);
}
