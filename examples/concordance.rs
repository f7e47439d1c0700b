//! A concordance as superimposed information — the paper's opening
//! example.
//!
//! "Consider a concordance for the works of Shakespeare. For a given
//! term, we can find out every line (in a play) where the term is used.
//! A concordance is one example of what we call superimposed
//! information … Superimposed information relies on an addressing scheme
//! for information elements in the original documents, often at a fine
//! granularity, e.g., play-act-scene-line." (paper §1)
//!
//! The plays live in the text application (paragraph = line addressing);
//! the concordance itself is superimposed data in the *generic*
//! representation: a topic-map model where each term is a Topic and each
//! occurrence is a mark into a play. This shows the SLIM Store serving a
//! model other than Bundle-Scrap, through the generated DMI.
//!
//! Run with: `cargo run --example concordance`

use std::cell::RefCell;
use std::rc::Rc;
use superimposed::basedocs::textdoc::TextDocument;
use superimposed::basedocs::{BaseApplication, TextApp};
use superimposed::marks::{AppModule, MarkManager};
use superimposed::metamodel::builtin;
use superimposed::slimstore::generic::DmiValue;
use superimposed::GenericDmi;

/// Public-domain excerpts, one document per play; each line is its own
/// paragraph so the address granularity is play/act-scene-line.
const PLAYS: &[(&str, &str)] = &[
    (
        "hamlet/3-1.txt",
        "To be, or not to be, that is the question:\n\n\
         Whether 'tis nobler in the mind to suffer\n\n\
         The slings and arrows of outrageous fortune,\n\n\
         Or to take arms against a sea of troubles\n\n\
         And by opposing end them. To die: to sleep;\n\n\
         No more; and by a sleep to say we end\n\n\
         The heart-ache and the thousand natural shocks\n\n\
         That flesh is heir to, 'tis a consummation\n\n\
         Devoutly to be wish'd. To die, to sleep;",
    ),
    (
        "macbeth/5-5.txt",
        "To-morrow, and to-morrow, and to-morrow,\n\n\
         Creeps in this petty pace from day to day\n\n\
         To the last syllable of recorded time,\n\n\
         And all our yesterdays have lighted fools\n\n\
         The way to dusty death. Out, out, brief candle!\n\n\
         Life's but a walking shadow, a poor player\n\n\
         That struts and frets his hour upon the stage\n\n\
         And then is heard no more: it is a tale\n\n\
         Told by an idiot, full of sound and fury,\n\n\
         Signifying nothing.",
    ),
    (
        "julius-caesar/3-2.txt",
        "Friends, Romans, countrymen, lend me your ears;\n\n\
         I come to bury Caesar, not to praise him.\n\n\
         The evil that men do lives after them;\n\n\
         The good is oft interred with their bones;\n\n\
         So let it be with Caesar. The noble Brutus\n\n\
         Hath told you Caesar was ambitious:\n\n\
         If it were so, it was a grievous fault,\n\n\
         And grievously hath Caesar answer'd it.",
    ),
];

/// Terms the concordance indexes.
const TERMS: &[&str] = &["to", "death", "sleep", "Caesar", "time"];

fn main() {
    // ---- base layer: the plays in the text application ----------------------
    let text_app = Rc::new(RefCell::new(TextApp::new()));
    for (name, body) in PLAYS {
        text_app.borrow_mut().open(TextDocument::from_text(*name, body)).unwrap();
    }
    let mut manager = MarkManager::new();
    manager
        .register_module(Box::new(AppModule::in_context("text", Rc::clone(&text_app))))
        .unwrap();

    // ---- superimposed layer: a topic-map concordance -------------------------
    let mut concordance = GenericDmi::new(builtin::topic_map_like());

    let mut total_occurrences = 0usize;
    for term in TERMS {
        let topic = concordance.create("Topic").unwrap();
        concordance.set(topic, "topicName", DmiValue::Text(term.to_string())).unwrap();
        // Scan every line of every play; each hit becomes a mark whose id
        // is recorded as an occurrence of the topic.
        for (play, _) in PLAYS {
            let line_count = text_app.borrow().document(play).unwrap().paragraphs().len();
            for line_no in 0..line_count {
                let line =
                    text_app.borrow().document(play).unwrap().paragraphs()[line_no].clone();
                let lower = line.to_lowercase();
                let needle = term.to_lowercase();
                let mut from = 0usize;
                while let Some(found) = lower[from..].find(&needle) {
                    let at = from + found;
                    // Whole-word check.
                    let before_ok = at == 0
                        || !lower[..at].chars().next_back().unwrap().is_alphanumeric();
                    let after = at + needle.len();
                    let after_ok = after >= lower.len()
                        || !lower[after..].chars().next().unwrap().is_alphanumeric();
                    if before_ok && after_ok {
                        // Select the word in the base app, mark it, and
                        // record the mark id as an occurrence.
                        text_app.borrow_mut().select_span(play, line_no, at, after).unwrap();
                        let mark_id =
                            manager.create_mark(superimposed::DocKind::Text).unwrap();
                        concordance
                            .set(topic, "occurrence", DmiValue::Text(mark_id))
                            .unwrap();
                        total_occurrences += 1;
                    }
                    from = after.max(from + 1);
                }
            }
        }
    }

    println!("concordance built: {} terms, {} occurrences, {} triples in the SLIM store\n",
        TERMS.len(), total_occurrences, concordance.store().len());

    // ---- use it: look up a term, resolve occurrences back into context --------
    // Term lookup is a conjunctive join — (?t conformsTo Topic) ⋈
    // (?t topicName <term>) — answered by the store's merge-join planner
    // instead of a linear scan over every topic. Show the plan once:
    {
        use superimposed::metamodel::vocab;
        use superimposed::trim::{ConjQuery, Runs, Value};
        let store = concordance.store();
        if let (Some(conf), Some(topic_c), Some(name_p), Some(lit)) = (
            store.find_atom(vocab::CONFORMS_TO),
            store.find_atom(&vocab::construct_res("topic-map", "Topic")),
            store.find_atom("topicName"),
            store.find_atom("death"),
        ) {
            let mut q = ConjQuery::new();
            let t = q.var("topic");
            q.pattern(t, conf, topic_c).pattern(t, name_p, Value::Literal(lit));
            println!("join plan for the \"death\" lookup:");
            println!("{}", store.explain_join(&q).unwrap());
        }
    }
    for term in ["death", "Caesar"] {
        let topic = concordance
            .instances_with_text("Topic", "topicName", term)
            .into_iter()
            .next()
            .expect("term indexed");
        let occurrences = concordance.texts(topic, "occurrence");
        println!("═ \"{}\" occurs {} time(s) ═", term, occurrences.len());
        for mark_id in &occurrences {
            let mark = manager.get(mark_id).unwrap();
            println!("  {} — {}", mark.address, mark.excerpt);
        }
        // Resolve the first occurrence fully: the base app shows the line
        // highlighted in context.
        if let Some(first) = occurrences.first() {
            let res = manager.resolve(first).unwrap();
            println!("{}", res.display);
        }
    }

    // ---- conformance + persistence ---------------------------------------------
    let report = concordance.check();
    assert!(report.is_conformant(), "{:?}", report.violations);
    let xml = concordance.save_xml();
    let reloaded = GenericDmi::load_xml(&xml, "topic-map").unwrap();
    assert_eq!(reloaded.instances("Topic").len(), TERMS.len());
    println!(
        "concordance persisted ({} bytes) and reloaded: {} topics intact; conformant: {}",
        xml.len(),
        reloaded.instances("Topic").len(),
        reloaded.check().is_conformant()
    );

    // The selection left in the base app is whatever the last mark set —
    // show the narrow interface really is just selection + navigation.
    let last = text_app.borrow().current_selection().unwrap();
    println!("base application's final selection: {last}");
}
