//! The pad's logical digest, `pad-digest-v3`.
//!
//! The digest is an order-free sum of per-record hashes, so it can be
//! kept current by re-hashing only the records a change touched. A
//! *record* is a bundle or a scrap. Each one names what it points at by
//! content, never by position or minted resource name:
//!
//! * `own(bundle)` hashes its name, position, width and height;
//! * `own(scrap)` hashes its label, position, handle count, sorted mark
//!   ids and sorted annotations;
//! * a bundle's record hashes its `own`, how many bundles and scraps it
//!   nests or contains, and the wrapping sum of their `own`s;
//! * a scrap's record hashes its `own`, how many links it has, and the
//!   wrapping sum of its link targets' `own`s.
//!
//! The digest hashes `"pad-digest-v3"`, both record counts, both record
//! sums, the mark count and [`marks::MarkManager::digest`]. A walk
//! over every record computes it from scratch and is its definition; a
//! live writer keeps a walk's result current by re-hashing the records
//! a change touched (see [`crate::LivePad`]).
//!
//! Two records with identical own fields are indistinguishable: moving
//! one of two identical scraps between bundles, or re-pointing a link
//! from one to the other, leaves the digest as it was.

use std::collections::{BTreeSet, HashMap};

use slimstore::{PadReader, Record};
use trim::{Atom, Runs};

/// The two kinds of record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bundle,
    Scrap,
}

/// A record's hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    kind: Kind,
    /// `own(record)`: what the records holding this one fold in.
    own: u64,
    /// The record's hash: what the digest sums.
    hash: u64,
}

/// The record counts and sums a digest is made of.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Tally {
    bundles: usize,
    scraps: usize,
    bundle_sum: u64,
    scrap_sum: u64,
}

impl Tally {
    /// The pad digest, given the mark layer's two scalars.
    pub(crate) fn digest(&self, marks_len: usize, marks_digest: u64) -> u64 {
        let mut h = Fnv::new();
        h.write(b"pad-digest-v3");
        h.write_u64(self.bundles as u64);
        h.write_u64(self.scraps as u64);
        h.write_u64(self.bundle_sum);
        h.write_u64(self.scrap_sum);
        h.write_u64(marks_len as u64);
        h.write_u64(marks_digest);
        h.finish()
    }

    /// Bundles on the pad, its root bundle included.
    pub(crate) fn bundles(&self) -> usize {
        self.bundles
    }

    /// Scraps on the pad.
    pub(crate) fn scraps(&self) -> usize {
        self.scraps
    }

    fn add(&mut self, entry: Entry) {
        let (count, sum) = self.slot(entry.kind);
        *count += 1;
        *sum = sum.wrapping_add(entry.hash);
    }

    fn remove(&mut self, entry: Entry) {
        let (count, sum) = self.slot(entry.kind);
        *count -= 1;
        *sum = sum.wrapping_sub(entry.hash);
    }

    fn slot(&mut self, kind: Kind) -> (&mut usize, &mut u64) {
        match kind {
            Kind::Bundle => (&mut self.bundles, &mut self.bundle_sum),
            Kind::Scrap => (&mut self.scraps, &mut self.scrap_sum),
        }
    }
}

/// Every record's hashes, keyed by subject, and their [`Tally`].
#[derive(Debug, Default)]
pub(crate) struct Records {
    entries: HashMap<Atom, Entry>,
    tally: Tally,
}

impl Records {
    /// Hash every record of `pad` from scratch.
    pub(crate) fn walk<R: Runs + ?Sized>(pad: &PadReader<'_, R>) -> Records {
        let subjects = pad
            .bundles()
            .into_iter()
            .map(|b| b.resource())
            .chain(pad.all_scraps().into_iter().map(|s| s.resource()));
        let read: Vec<(Atom, Read)> =
            subjects.filter_map(|x| Some((x, Read::of(pad, x)?))).collect();
        let owns: HashMap<Atom, u64> = read.iter().map(|(x, r)| (*x, r.own)).collect();
        let mut records = Records::default();
        for (x, r) in read {
            let entry = r.entry(|y| owns.get(&y).copied());
            records.insert(x, entry);
        }
        records
    }

    /// The counts and sums over every record.
    pub(crate) fn tally(&self) -> Tally {
        self.tally
    }

    /// Bring the records current after the triples of `changed`
    /// subjects changed: re-hash each changed record and the scrap
    /// carrying each changed mark handle, and then, for every one of
    /// those whose own fields changed (or that appeared or went), the
    /// records holding it. `skip_bundle_holders` seeds a bug for
    /// mutation testing: the bundles holding a changed record are left
    /// stale.
    pub(crate) fn update<R: Runs + ?Sized>(
        &mut self,
        pad: &PadReader<'_, R>,
        changed: impl IntoIterator<Item = Atom>,
        skip_bundle_holders: bool,
    ) {
        let mut owned = BTreeSet::new();
        for x in changed {
            owned.insert(x);
            owned.extend(pad.carriers(x));
        }
        let mut holders = BTreeSet::new();
        for x in owned {
            if self.rehash(pad, x) {
                holders.extend(pad.holders(x));
            }
        }
        if skip_bundle_holders {
            holders.retain(|h| !matches!(pad.record(*h), Some(Record::Bundle(_))));
        }
        for h in holders {
            self.rehash(pad, h);
        }
    }

    /// Re-hash `x` against `pad`; whether its own fields changed.
    fn rehash<R: Runs + ?Sized>(&mut self, pad: &PadReader<'_, R>, x: Atom) -> bool {
        let old = self.entries.remove(&x);
        if let Some(old) = old {
            self.tally.remove(old);
        }
        let new = Read::of(pad, x).map(|r| r.entry(|y| Read::of(pad, y).map(|t| t.own)));
        if let Some(new) = new {
            self.insert(x, new);
        }
        old.map(|e| (e.kind, e.own)) != new.map(|e| (e.kind, e.own))
    }

    fn insert(&mut self, x: Atom, entry: Entry) {
        self.tally.add(entry);
        self.entries.insert(x, entry);
    }
}

/// One record as read from the pad: its own hash and what it points
/// at.
struct Read {
    kind: Kind,
    own: u64,
    points_at: Vec<Atom>,
}

impl Read {
    /// `x` read as a record; `None` when it is no bundle or scrap.
    fn of<R: Runs + ?Sized>(pad: &PadReader<'_, R>, x: Atom) -> Option<Read> {
        let mut h = Fnv::new();
        match pad.record(x)? {
            Record::Bundle(b) => {
                let data = pad.bundle(b).ok()?;
                h.write(b"b");
                h.write(data.name.as_bytes());
                h.write_u64(data.pos.0 as u64);
                h.write_u64(data.pos.1 as u64);
                h.write_u64(data.width as u64);
                h.write_u64(data.height as u64);
                let nested = data.nested.iter().map(|n| n.resource());
                let points_at = nested.chain(data.scraps.iter().map(|s| s.resource())).collect();
                Some(Read { kind: Kind::Bundle, own: h.finish(), points_at })
            }
            Record::Scrap(s) => {
                let data = pad.scrap_record(s).ok()?;
                h.write(b"s");
                h.write(data.name.as_bytes());
                h.write_u64(data.pos.0 as u64);
                h.write_u64(data.pos.1 as u64);
                h.write_u64(data.marks.len() as u64);
                for id in data.mark_ids {
                    h.write(id.as_bytes());
                }
                for note in data.annotations {
                    h.write(b"A");
                    h.write(note.as_bytes());
                }
                let points_at = data.links.iter().map(|t| t.resource()).collect();
                Some(Read { kind: Kind::Scrap, own: h.finish(), points_at })
            }
        }
    }

    /// The record's entry, given the own hash of each record it points
    /// at (`None` for a target that is no record).
    fn entry(&self, own: impl Fn(Atom) -> Option<u64>) -> Entry {
        let sum = self.points_at.iter().fold(0u64, |sum, y| sum.wrapping_add(own(*y).unwrap_or(0)));
        let mut h = Fnv::new();
        h.write(match self.kind {
            Kind::Bundle => b"B",
            Kind::Scrap => b"S",
        });
        h.write_u64(self.own);
        h.write_u64(self.points_at.len() as u64);
        h.write_u64(sum);
        Entry { kind: self.kind, own: self.own, hash: h.finish() }
    }
}

/// FNV-1a, inlined so the digest is stable and dependency-free.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Delimit fields so ("ab","c") and ("a","bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
