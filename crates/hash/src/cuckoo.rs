//! Multi-stage cuckoo exact-match table (§4.1).
//!
//! Modern switching ASICs instantiate large exact-match tables across
//! multiple physical pipeline stages. Each stage owns a slab of SRAM divided
//! into *words*; word packing puts several entries in one word (SilkRoad
//! packs four 28-bit ConnTable entries per 112-bit word). Each stage hashes
//! the key with its own hash function to select one word, and all entries in
//! the word are compared in parallel.
//!
//! Insertion is a *software* job: the switch CPU runs a breadth-first search
//! over eviction paths ("a complex search algorithm (breadth-first graph
//! traversal) to find an empty slot") and sends the resulting move sequence
//! to the ASIC. This module implements the table and the BFS; the *timing*
//! of insertions (the 200 K/s CPU budget, learning-filter batching) is
//! modelled by `sr-asic`'s switch CPU on top of this.
//!
//! The table supports two match modes:
//!
//! * [`MatchMode::FullKey`] — entries store the whole key (a conventional
//!   exact-match table; no false positives);
//! * [`MatchMode::Digest`] — entries store only an n-bit digest of the key
//!   (SilkRoad's ConnTable); a probe that finds an entry with an equal
//!   digest in the probed word *hits*, even if the underlying key differs —
//!   that is the paper's false-positive case, repaired via
//!   [`CuckooTable::relocate`].
//!
//! On the host a provisioned slot costs one cache line and a lane: an
//! occupied slot is a 64-byte, line-aligned `Record` (32-bit match field,
//! inline key of at most [`MAX_KEY_LEN`] bytes, hit bit, value), a vacant
//! one the same 64 bytes with `Option`'s niche set, and probes scan a
//! separate dense plane of 16-bit match-field lanes, so a hit reads one
//! plane line per stage probed plus exactly one record line. Digest mode
//! also keeps an `AliasIndex` for the shadowing repair: per collision
//! class (`AliasClass`), the members' key bytes packed back to back.
//! [`CuckooTable::host_bytes`] adds it all up.

use crate::digest::DigestFn;
use crate::hasher::HashFn;
use sr_types::TupleKey;
use std::collections::VecDeque;

/// Sentinel in the 16-bit match-field *plane* for a vacant slot.
/// [`plane_mf`] clamps stored values one below it.
const EMPTY_PLANE: u16 = u16::MAX;

/// The 16-bit plane image of a match field: a prefilter, not the decision.
/// A probe compares plane lanes first and confirms any lane hit against the
/// record's full 32-bit field, so the accept set is exactly the full
/// comparison's — equal fields always have equal plane images, and unequal
/// plane images imply unequal fields. Sixteen bits keep the scanned plane
/// dense (the paper's ConnTable digests are 16 bits anyway), so the hot
/// probe loop stays cache-resident.
fn plane_mf(mf: u32) -> u16 {
    let t = mf as u16;
    if t == EMPTY_PLANE {
        EMPTY_PLANE - 1
    } else {
        t
    }
}

/// Longest key the table stores, in bytes: a v6 5-tuple key, the longest
/// [`TupleKey`] holds. Keys are kept inline in the slot record, so the
/// verify-on-hit compare reads the record's own cache line instead of
/// chasing a per-entry heap pointer.
pub const MAX_KEY_LEN: usize = sr_types::MAX_KEY_LEN;

/// Stage-count bound for the probe's stack-resident word-index array
/// (tables with more stages fall back to the serial walk; the paper's
/// configurations use 2–4).
const MAX_PROBE_STAGES: usize = 8;

/// How entries are matched against probe keys.
#[derive(Clone, Debug)]
pub enum MatchMode {
    /// Store and compare the full key. No false positives.
    FullKey,
    /// Store and compare only an n-bit digest (SilkRoad ConnTable mode).
    Digest {
        /// Digest width in bits (8..=32).
        bits: u8,
    },
    /// Per-stage digest widths (§7: "we can use different digest sizes in
    /// different stages to reduce the overall false positives") — one entry
    /// per stage, padded with the last value if shorter. Insertion prefers
    /// earlier stages, so put the wider digests first: entries land in
    /// low-false-positive stages while the table is lightly loaded.
    DigestPerStage {
        /// Digest width per stage, 8..=32 each.
        bits: Vec<u8>,
    },
}

/// Static geometry of a cuckoo table.
#[derive(Clone, Debug)]
pub struct CuckooConfig {
    /// Number of pipeline stages the table spans. Each stage has an
    /// independent bucket-hash function.
    pub stages: usize,
    /// Words (buckets) per stage.
    pub words_per_stage: usize,
    /// Entries packed into one word.
    pub entries_per_word: usize,
    /// Match mode (full key vs digest).
    pub match_mode: MatchMode,
    /// Seed from which all per-stage hash functions are derived.
    pub seed: u64,
    /// BFS limit: maximum eviction-path length.
    pub max_bfs_depth: usize,
    /// BFS limit: maximum nodes explored before declaring the table full.
    pub max_bfs_nodes: usize,
}

impl CuckooConfig {
    /// A table sized to hold at least `capacity` entries at ~`target_load`
    /// utilization, spread over `stages` stages.
    pub fn for_capacity(
        capacity: usize,
        stages: usize,
        entries_per_word: usize,
        seed: u64,
    ) -> CuckooConfig {
        let stages = stages.max(2);
        let entries_per_word = entries_per_word.max(1);
        // Size for ~95% achievable load factor (multi-way multi-stage cuckoo
        // packs well past 90%).
        let slots = (capacity as f64 / 0.95).ceil() as usize;
        let words_total = slots.div_ceil(entries_per_word);
        let words_per_stage = words_total.div_ceil(stages).max(1);
        CuckooConfig {
            stages,
            words_per_stage,
            entries_per_word,
            match_mode: MatchMode::Digest { bits: 16 },
            seed,
            max_bfs_depth: 8,
            max_bfs_nodes: 4096,
        }
    }

    /// Total entry slots.
    pub fn total_slots(&self) -> usize {
        self.stages * self.words_per_stage * self.entries_per_word
    }
}

/// One occupied slot: everything the software shadow keeps for an entry,
/// laid out so a hit costs one plane line per stage plus exactly one record
/// line. `repr(C)` pins the field order and `align(64)` the line: with a
/// value of at most 20 bytes at 4-byte alignment the record is 64 bytes,
/// and the `bool` gives `Option` its niche, so a vacant slot costs nothing
/// extra and needs no `V: Default`.
#[derive(Clone, Debug)]
#[repr(C, align(64))]
struct Record<V> {
    /// What the ASIC compares: this stage's n-bit digest of the key (at
    /// most 32 bits), or the low half of the key's fingerprint in `FullKey`
    /// mode (the model compares `key` exactly in that mode; the fingerprint
    /// only accelerates it).
    match_field: u32,
    /// Full key, kept by the *software shadow* of the table — the paper:
    /// "The switch software has complete 5-tuple information for each
    /// entry". The ASIC itself matches only on `match_field`.
    key: TupleKey,
    /// Per-entry hit bit, as real exact-match tables provide for idle
    /// aging: set by marking lookups, read and cleared by
    /// [`CuckooTable::retain_hits`].
    hit: bool,
    value: V,
}

// One slot, one cache line, for the widest value that fits beside the key.
const _: () = assert!(
    std::mem::size_of::<Option<Record<[u32; 5]>>>() == 64
        && std::mem::align_of::<Record<[u32; 5]>>() == 64
);

/// Result of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LookupHit<'a, V> {
    /// Value of the entry that matched.
    pub value: &'a V,
    /// Full key of the *resident* entry that matched (software shadow
    /// information — used by the false-positive repair path to relocate
    /// the resident).
    pub resident_key: &'a [u8],
    /// Whether the stored full key equals the probe key. In digest mode a
    /// hit with `exact == false` is a *false positive*: the data plane
    /// cannot see this flag — the simulator uses it to model misdelivery
    /// and the SYN-repair path.
    pub exact: bool,
    /// Stage the hit was found in.
    pub stage: usize,
}

/// Outcome of a successful insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Number of resident entries the BFS had to move (0 = direct insert).
    pub moves: usize,
    /// Stage the new entry finally landed in.
    pub stage: usize,
}

/// Errors from table mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CuckooError {
    /// BFS could not find an empty slot within its limits: table full.
    Full,
    /// The key was already present (inserts must be preceded by a lookup).
    Duplicate,
    /// The key was not present.
    NotFound,
}

/// A multi-stage, word-packed cuckoo hash table.
///
/// ```
/// use sr_hash::cuckoo::{CuckooConfig, CuckooTable, MatchMode};
/// let mut t: CuckooTable<u32> = CuckooTable::new(
///     CuckooConfig::for_capacity(1_000, 4, 4, 7),
/// );
/// t.insert(b"conn-1", 99).unwrap();
/// let hit = t.lookup(b"conn-1").unwrap();
/// assert_eq!(*hit.value, 99);
/// assert!(hit.exact);
/// assert_eq!(t.remove(b"conn-1").unwrap(), 99);
/// ```
pub struct CuckooTable<V> {
    cfg: CuckooConfig,
    stage_hash: Vec<HashFn>,
    /// Per-stage digest function (None in full-key mode).
    digests: Option<Vec<DigestFn>>,
    fingerprint: HashFn,
    /// `slots[stage][word * entries_per_word + way]`
    slots: Vec<Vec<Option<Record<V>>>>,
    /// Dense match-field plane mirroring `slots`: the ASIC's view of a
    /// word is its packed match fields, compared in parallel against the
    /// probe field. Keeping them in their own flat array means a probe
    /// touches one cache line per stage instead of `entries_per_word`
    /// record lines; the record itself is only dereferenced on a
    /// match-field hit (and the hit confirmed against the full field — see
    /// [`plane_mf`]). `EMPTY_PLANE` marks vacant slots.
    mfs: Vec<Vec<u16>>,
    len: usize,
    /// Cumulative count of BFS-driven entry moves (for CPU-cost stats).
    total_moves: u64,
    /// Software-side index of resident keys by collision class (digest mode
    /// only). Stage digests are prefixes of one shared hash, so any two keys
    /// that alias at *any* stage share the narrowest-width digest; indexing
    /// by it makes "who could this entry shadow?" an O(class) question.
    alias: Option<AliasIndex>,
    /// Cumulative count of relocations performed by the resident-shadowing
    /// repair (see [`CuckooTable::shadow_repairs`]).
    shadow_repairs: u64,
    /// Repairs the table could not complete (see
    /// [`CuckooTable::shadow_repair_failed`]). Non-zero disables the repair
    /// screen: its premise — every resident read exact before the mutation
    /// — no longer holds.
    shadow_repair_failed: u64,
    /// Full lookups issued by the repair screen and the repair loop (see
    /// [`CuckooTable::repair_probes`]).
    repair_probes: u64,
    /// Test switch: skip the repair screen so every mutation takes the full
    /// class scan (the reference arm of the differential test).
    #[cfg(test)]
    screen_bypass: bool,
    /// Shared mutation workspace (see [`InsertScratch`]).
    scratch: InsertScratch,
}

/// Resident keys grouped by narrowest-stage digest (see `CuckooTable.alias`).
/// A class whose last member leaves keeps its (empty) slot, and the map is
/// pre-sized for the worst case at construction: class bookkeeping sits on
/// the connection-setup path, and both choices keep registering and
/// deregistering a key off the allocator. The retained footprint is bounded
/// by the digest space (at most `2^bits` classes) and the table capacity.
struct AliasIndex {
    digest: DigestFn,
    classes: crate::FxHashMap<u32, AliasClass>,
}

impl AliasIndex {
    /// The collision class of `key`. `pre` is the just-inserted key with
    /// its precomputed hashes: for that key the class digest truncates the
    /// match hash already in hand, any other key is hashed.
    fn class_of(&self, key: &[u8], pre: Option<(&[u8], &[u64], u64)>) -> u32 {
        match pre {
            Some((pk, _, mh)) if pk == key => self.digest.digest_of(mh),
            _ => self.digest.digest(key),
        }
    }

    /// Drop a resident key from its collision class.
    fn remove(&mut self, key: &[u8]) {
        if let Some(members) = self.classes.get_mut(&self.digest.digest(key)) {
            members.remove(key);
        }
    }

    /// Bytes owned: the pre-sized map's buckets and every spilled class
    /// buffer. The map keeps an eighth of its buckets free, so it holds
    /// `capacity * 8 / 7` of them, each with one control byte.
    fn host_bytes(&self) -> usize {
        let bucket = std::mem::size_of::<(u32, AliasClass)>() + 1;
        let spilled = self.classes.values().map(|c| match c {
            AliasClass::Inline { .. } => 0,
            AliasClass::Spilled(v) => v.capacity(),
        });
        self.classes.capacity() * 8 / 7 * bucket + spilled.sum::<usize>()
    }
}

/// Bytes a class holds without a heap buffer: two v4 5-tuple keys or one
/// v6 key, each behind its length byte.
const ALIAS_INLINE_BYTES: usize = 1 + MAX_KEY_LEN;

/// How far a spilled class buffer grows at a time (or by an eighth, once
/// that is more). A 16-bit digest under a million flows spills all 65 536
/// classes to ~16 keys each; doubling would leave every buffer a third
/// empty beside the smaller ones it outgrew, while classes growing through
/// the same few sizes hand their cast-offs to each other.
const SPILL_STEP: usize = 64;

/// One digest-collision class: its members' key bytes, each behind a length
/// byte, back to back and oldest first (14 bytes for a v4 5-tuple). The
/// repair screen hashes every member of a class, so they sit in one
/// contiguous buffer and no slot record is dereferenced per member. At
/// realistic digest widths almost every class holds one resident (~99.7%
/// of inserts land in an empty class at 24 bits), so the first
/// [`ALIAS_INLINE_BYTES`] live in the class itself and registering a lone
/// key — or a v4 pair — stays off the allocator; a class that outgrows
/// them spills to a heap buffer it then keeps.
enum AliasClass {
    Inline {
        used: u8,
        buf: [u8; ALIAS_INLINE_BYTES],
    },
    Spilled(Vec<u8>),
}

impl Default for AliasClass {
    fn default() -> AliasClass {
        AliasClass::Inline {
            used: 0,
            buf: [0; ALIAS_INLINE_BYTES],
        }
    }
}

/// The keys of a packed member buffer (see [`AliasClass`]), in order.
fn packed_keys(mut bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (&len, rest) = bytes.split_first()?;
        let (key, rest) = rest.split_at(usize::from(len));
        bytes = rest;
        Some(key)
    })
}

impl AliasClass {
    /// The packed members.
    fn bytes(&self) -> &[u8] {
        match self {
            AliasClass::Inline { used, buf } => &buf[..usize::from(*used)],
            AliasClass::Spilled(v) => v,
        }
    }

    fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Append a member (members always read oldest-first, so the shadowing
    /// repair visits keys in insertion order).
    fn push(&mut self, key: &[u8]) {
        let len = u8::try_from(key.len()).expect("keys are at most MAX_KEY_LEN bytes");
        match self {
            AliasClass::Inline { used, buf } => {
                let at = usize::from(*used);
                let end = at + 1 + key.len();
                if let Some(dst) = buf.get_mut(at..end) {
                    dst[0] = len;
                    dst[1..].copy_from_slice(key);
                    *used = end as u8;
                } else {
                    let mut v = Vec::with_capacity(at + SPILL_STEP);
                    v.extend_from_slice(&buf[..at]);
                    v.push(len);
                    v.extend_from_slice(key);
                    *self = AliasClass::Spilled(v);
                }
            }
            AliasClass::Spilled(v) => {
                if v.capacity() - v.len() <= key.len() {
                    v.reserve_exact(SPILL_STEP.max(v.capacity() / 8));
                }
                v.push(len);
                v.extend_from_slice(key);
            }
        }
    }

    /// Drop the member equal to `key`, closing the gap so the survivors
    /// stay contiguous and oldest-first.
    fn remove(&mut self, key: &[u8]) {
        let mut at = 0;
        for k in self.iter() {
            if k == key {
                break;
            }
            at += 1 + k.len();
        }
        if at == self.bytes().len() {
            return; // not a member
        }
        let end = at + 1 + key.len();
        match self {
            AliasClass::Inline { used, buf } => {
                buf.copy_within(end..usize::from(*used), at);
                *used -= (end - at) as u8;
            }
            AliasClass::Spilled(v) => {
                v.drain(at..end);
            }
        }
    }

    /// The members, oldest first.
    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        packed_keys(self.bytes())
    }
}

/// One BFS node: a `(stage, slot)` whose resident the search would displace.
#[derive(Clone)]
struct Node {
    stage: usize,
    slot: usize,
    parent: usize, // index into the node arena, usize::MAX for roots
}

/// A key whose position a mutation just changed, and the `(stage, slot)` it
/// landed in — carried from the placement so the repair screen never has to
/// re-find it.
#[derive(Clone, Copy)]
struct Touched {
    key: TupleKey,
    stage: usize,
    slot: usize,
}

/// Reusable workspace for insertion, relocation, and the shadowing repair.
///
/// The BFS node arena, its frontier and visited set, and every key list the
/// repair plumbing used to allocate per insert live here instead. A mutating
/// call takes the workspace out of the table (`std::mem::take`) for its
/// duration and puts it back, so once the buffers have grown to their working
/// size, connection setup performs no per-insert heap allocation.
#[derive(Default)]
struct InsertScratch {
    /// BFS node arena.
    nodes: Vec<Node>,
    /// BFS frontier: (node index, depth).
    queue: VecDeque<(usize, usize)>,
    /// (stage, slot) positions already enqueued.
    visited: crate::FxHashSet<(usize, usize)>,
    /// Candidate word per stage for the entry being placed.
    cand: Vec<usize>,
    /// Residents displaced by the most recent BFS unwind, with where each
    /// landed.
    moved: Vec<Touched>,
    /// Shadowing-repair work queue: keys whose position just changed.
    touched: VecDeque<Touched>,
    /// Snapshot of one collision class's packed members (see
    /// [`AliasClass`]) while the repair relocates them.
    members: Vec<u8>,
}

impl InsertScratch {
    /// Start a repair queue: the residents the placement displaced, then
    /// the key it placed.
    fn queue_touched(&mut self, key: TupleKey, stage: usize, slot: usize) {
        self.touched.clear();
        self.touched.extend(self.moved.drain(..));
        self.touched.push_back(Touched { key, stage, slot });
    }
}

impl<V: Clone> CuckooTable<V> {
    /// Build an empty table.
    pub fn new(cfg: CuckooConfig) -> CuckooTable<V> {
        // Relocation carries stage sets as a `u64` bitmask.
        assert!(cfg.stages <= 64, "at most 64 stages, got {}", cfg.stages);
        let stage_hash = HashFn::family(cfg.seed, cfg.stages);
        let digests: Option<Vec<DigestFn>> = match &cfg.match_mode {
            MatchMode::Digest { bits } => Some(
                (0..cfg.stages)
                    .map(|_| DigestFn::new(cfg.seed ^ 0xd1e5, *bits))
                    .collect(),
            ),
            MatchMode::DigestPerStage { bits } => Some(
                (0..cfg.stages)
                    .map(|i| {
                        let b = bits.get(i).or(bits.last()).copied().unwrap_or(16);
                        DigestFn::new(cfg.seed ^ 0xd1e5, b)
                    })
                    .collect(),
            ),
            MatchMode::FullKey => None,
        };
        let per_stage = cfg.words_per_stage * cfg.entries_per_word;
        let alias = digests.as_ref().map(|ds| {
            let bits = ds.iter().map(|d| d.bits()).min().unwrap_or(16);
            // Pre-size the class map for the worst case it can ever reach
            // (one class per resident, capped by the digest space), so
            // class registration on the connection-setup path never grows
            // the map mid-flight.
            let max_classes = (per_stage * cfg.stages).min(1usize << bits.min(31));
            AliasIndex {
                digest: DigestFn::new(cfg.seed ^ 0xd1e5, bits),
                classes: crate::FxHashMap::with_capacity_and_hasher(
                    max_classes,
                    Default::default(),
                ),
            }
        });
        CuckooTable {
            stage_hash,
            digests,
            fingerprint: HashFn::new(cfg.seed ^ 0xf19e),
            slots: (0..cfg.stages).map(|_| vec![None; per_stage]).collect(),
            mfs: (0..cfg.stages)
                .map(|_| vec![EMPTY_PLANE; per_stage])
                .collect(),
            len: 0,
            total_moves: 0,
            alias,
            shadow_repairs: 0,
            shadow_repair_failed: 0,
            repair_probes: 0,
            #[cfg(test)]
            screen_bypass: false,
            scratch: InsertScratch::default(),
            cfg,
        }
    }

    /// The table geometry.
    pub fn config(&self) -> &CuckooConfig {
        &self.cfg
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Occupancy as a fraction of total slots.
    pub fn load_factor(&self) -> f64 {
        self.len as f64 / self.cfg.total_slots() as f64
    }

    /// Cumulative number of entry moves performed by BFS insertions.
    pub fn total_moves(&self) -> u64 {
        self.total_moves
    }

    fn word_of(&self, stage: usize, key: &[u8]) -> usize {
        self.word_from(self.stage_hash[stage].hash(key))
    }

    /// Map a stage-hash output to its word index (multiply-shift scaling,
    /// same rationale as `ecmp_select`).
    fn word_from(&self, h: u64) -> usize {
        ((h as u128 * self.cfg.words_per_stage as u128) >> 64) as usize
    }

    /// The per-stage bucket-hash functions, in stage order. A prehashed
    /// probe ([`CuckooTable::lookup_pre`]) supplies one output per function.
    pub fn stage_fns(&self) -> &[HashFn] {
        &self.stage_hash
    }

    /// The single hash function behind the match field: the shared digest
    /// hash in digest mode (every stage truncates the same 64-bit value to
    /// its own width), or the fingerprint in full-key mode.
    pub fn match_fn(&self) -> HashFn {
        match &self.digests {
            Some(ds) => {
                debug_assert!(ds.windows(2).all(|w| w[0].hash_fn() == w[1].hash_fn()));
                ds[0].hash_fn()
            }
            None => self.fingerprint,
        }
    }

    /// The ASIC-visible match field at a stage, from the precomputed output
    /// of [`CuckooTable::match_fn`] over the key.
    fn match_field_from(&self, stage: usize, match_hash: u64) -> u32 {
        match &self.digests {
            Some(ds) => ds[stage].digest_of(match_hash),
            None => match_hash as u32,
        }
    }

    /// The ASIC-visible match field for a key *at a given stage*. In digest
    /// mode this is that stage's n-bit digest; in full-key mode the low
    /// half of a 64-bit fingerprint of the key (the model additionally
    /// compares the stored key bytes, so the fingerprint is only an
    /// accelerator and cannot cause false positives).
    fn match_field_at(&self, stage: usize, key: &[u8]) -> u32 {
        self.match_field_from(stage, self.match_fn().hash(key))
    }

    fn is_digest_mode(&self) -> bool {
        self.digests.is_some()
    }

    fn slot_range(&self, word: usize) -> std::ops::Range<usize> {
        let e = self.cfg.entries_per_word;
        word * e..(word + 1) * e
    }

    // srlint: hot-path begin
    /// Scan one word for a match-field hit; returns `(slot, exact)`. The
    /// scan reads the dense match-field plane — the ASIC compares a word's
    /// packed fields in parallel — and dereferences a record only on field
    /// equality. Two full-key fingerprints can share their stored half; the
    /// key comparison disambiguates.
    fn probe_word(&self, stage: usize, word: usize, mf: u32, key: &[u8]) -> Option<(usize, bool)> {
        let probe = plane_mf(mf);
        let mfs = &self.mfs[stage];
        for slot in self.slot_range(word) {
            if mfs[slot] != probe {
                continue;
            }
            let e = self.slots[stage][slot]
                .as_ref()
                .expect("match field set on vacant slot");
            // The plane lane is a 16-bit prefilter; confirm on the full
            // stored field before accepting (see `plane_mf`).
            if e.match_field != mf {
                continue;
            }
            let exact = e.key.as_slice() == key;
            if exact || self.is_digest_mode() {
                return Some((slot, exact));
            }
        }
        None
    }

    /// Pipeline-order probe; returns `(stage, slot, exact)` of the first
    /// match-field hit, hashing the key once per stage.
    fn probe(&self, key: &[u8]) -> Option<(usize, usize, bool)> {
        for stage in 0..self.cfg.stages {
            let mf = self.match_field_at(stage, key);
            let word = self.word_of(stage, key);
            if let Some((slot, exact)) = self.probe_word(stage, word, mf, key) {
                return Some((stage, slot, exact));
            }
        }
        None
    }

    /// [`CuckooTable::probe`] from precomputed hashes: `stage_hashes[i]`
    /// must be `self.stage_fns()[i]` over the key, `match_hash` the output
    /// of [`CuckooTable::match_fn`]. No hashing happens here.
    fn probe_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<(usize, usize, bool)> {
        debug_assert_eq!(stage_hashes.len(), self.cfg.stages);
        // Resolve every stage's word index first and touch its match-field
        // word before any comparisons: the loads are independent, so their
        // cache misses overlap instead of serializing stage by stage the
        // way the comparison loop below would force on its own.
        let mut words = [0usize; MAX_PROBE_STAGES];
        if self.cfg.stages <= MAX_PROBE_STAGES {
            for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
                let w = self.word_from(h);
                words[stage] = w;
                std::hint::black_box(self.mfs[stage][w * self.cfg.entries_per_word]);
            }
            for (stage, &word) in words.iter().enumerate().take(self.cfg.stages) {
                let mf = self.match_field_from(stage, match_hash);
                if let Some((slot, exact)) = self.probe_word(stage, word, mf, key) {
                    return Some((stage, slot, exact));
                }
            }
            return None;
        }
        for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
            let mf = self.match_field_from(stage, match_hash);
            let word = self.word_from(h);
            if let Some((slot, exact)) = self.probe_word(stage, word, mf, key) {
                return Some((stage, slot, exact));
            }
        }
        None
    }

    fn hit_at(&self, stage: usize, slot: usize, exact: bool) -> LookupHit<'_, V> {
        let e = self.slots[stage][slot].as_ref().expect("occupied");
        LookupHit {
            value: &e.value,
            resident_key: e.key.as_slice(),
            exact,
            stage,
        }
    }

    /// Probe the table the way the ASIC does: check the hashed word of each
    /// stage in pipeline order; first match-field equality wins.
    pub fn lookup(&self, key: &[u8]) -> Option<LookupHit<'_, V>> {
        let (stage, slot, exact) = self.probe(key)?;
        Some(self.hit_at(stage, slot, exact))
    }

    /// [`CuckooTable::lookup`] with all hashing done by the caller — the
    /// hash-once packet path. Produces identical results to `lookup` when
    /// the precomputed hashes honour the `probe_pre` contract.
    pub fn lookup_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<LookupHit<'_, V>> {
        let (stage, slot, exact) = self.probe_pre(key, stage_hashes, match_hash)?;
        Some(self.hit_at(stage, slot, exact))
    }

    /// Warm the match-field words a prehashed probe will read: one plain
    /// load per stage, kept observable with [`std::hint::black_box`] so the
    /// optimizer cannot drop it. A batched caller issues these for several
    /// packets ahead of their probes, turning the per-packet chain of
    /// dependent cache misses into overlapping independent ones.
    pub fn prefetch_words_pre(&self, stage_hashes: &[u64]) {
        for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
            let base = self.word_from(h) * self.cfg.entries_per_word;
            std::hint::black_box(self.mfs[stage][base]);
        }
    }

    /// Warm the record a prehashed probe would dereference: replays the
    /// match-field scan (cheap once [`CuckooTable::prefetch_words_pre`] has
    /// pulled the words in) and reads the winning slot's stored field —
    /// one touch brings in the whole line-aligned record, inline key
    /// included. Pure reads — no hit-bit or stats side effects.
    pub fn prefetch_entry_pre(&self, stage_hashes: &[u64], match_hash: u64) {
        for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
            let mf = self.match_field_from(stage, match_hash);
            let probe = plane_mf(mf);
            let word = self.word_from(h);
            for slot in self.slot_range(word) {
                if self.mfs[stage][slot] == probe {
                    if let Some(e) = &self.slots[stage][slot] {
                        if std::hint::black_box(e.match_field) != mf {
                            continue;
                        }
                    }
                    return;
                }
            }
        }
    }

    /// First half of the data plane's split probe: find the `(stage, slot)`
    /// a prehashed probe would hit, scanning the match-field plane and
    /// confirming the lane hit on the record's stored field — the one read
    /// that puts the record's cache line in flight before
    /// [`CuckooTable::lookup_marking_at`] dereferences it. No side
    /// effects — a pipelined caller runs `locate_pre` for a whole chunk of
    /// packets, then resolves each, overlapping the records' cache misses.
    ///
    /// In digest mode the slot choice depends only on the match-field
    /// plane, exactly like [`CuckooTable::probe_pre`]; full-key mode also
    /// needs the key compare to skip fingerprint aliases, so it runs the
    /// whole probe. Coordinates are only valid until the next mutation
    /// (insert, remove, relocate, retain).
    pub fn locate_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<(u32, u32)> {
        if !self.is_digest_mode() {
            return self
                .probe_pre(key, stage_hashes, match_hash)
                .map(|(stage, slot, _)| (stage as u32, slot as u32));
        }
        debug_assert_eq!(stage_hashes.len(), self.cfg.stages);
        let mut words = [0usize; MAX_PROBE_STAGES];
        if self.cfg.stages <= MAX_PROBE_STAGES {
            // Same independent-load warm-up as `probe_pre`.
            for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
                let w = self.word_from(h);
                words[stage] = w;
                std::hint::black_box(self.mfs[stage][w * self.cfg.entries_per_word]);
            }
        } else {
            for (stage, &h) in stage_hashes.iter().enumerate().take(self.cfg.stages) {
                words[stage] = self.word_from(h);
            }
        }
        for (stage, &word) in words.iter().enumerate().take(self.cfg.stages) {
            let mf = self.match_field_from(stage, match_hash);
            let probe = plane_mf(mf);
            let mfs = &self.mfs[stage];
            for slot in self.slot_range(word) {
                if mfs[slot] == probe {
                    let e = self.slots[stage][slot]
                        .as_ref()
                        .expect("match field set on vacant slot");
                    // Plane lanes are a prefilter; confirm on the full
                    // stored field (see `plane_mf`).
                    if e.match_field != mf {
                        continue;
                    }
                    return Some((stage as u32, slot as u32));
                }
            }
        }
        None
    }

    /// Second half of the split probe: resolve coordinates returned by
    /// [`CuckooTable::locate_pre`] — dereference the record and compare the
    /// full key for exactness, producing the hit [`CuckooTable::lookup`]
    /// would — and set the hit bit (the per-entry bit that drives idle
    /// aging) on an exact match. Callers must not have mutated the table
    /// since `locate_pre`.
    pub fn lookup_marking_at(&mut self, stage: u32, slot: u32, key: &[u8]) -> LookupHit<'_, V> {
        let (stage, slot) = (stage as usize, slot as usize);
        let e = self.slots[stage][slot]
            .as_mut()
            .expect("located slot must be occupied: table mutated since locate_pre");
        let exact = e.key.as_slice() == key;
        if exact {
            e.hit = true;
        }
        self.hit_at(stage, slot, exact)
    }
    // srlint: hot-path end

    /// The `(stage, slot)` storing exactly `key`, if any. One extra hash
    /// (the match field) buys the plane-first word scan below.
    fn find_exact(&self, key: &[u8]) -> Option<(usize, usize)> {
        let match_hash = self.match_fn().hash(key);
        (0..self.cfg.stages).find_map(|stage| {
            let lane = plane_mf(self.match_field_from(stage, match_hash));
            let slot = self.find_in_word(stage, self.word_of(stage, key), lane, key)?;
            Some((stage, slot))
        })
    }

    // srlint: hot-path begin
    /// The slot of `word` at `stage` storing exactly `key`. `lane` is the
    /// key's plane image at that stage: a record holding the key carries
    /// it, so the dense `u16` plane is compared first and the record is
    /// dereferenced only on a lane match — at a million flows the record
    /// array is DRAM-resident and the plane word is one cache line.
    fn find_in_word(&self, stage: usize, word: usize, lane: u16, key: &[u8]) -> Option<usize> {
        let range = self.slot_range(word);
        let base = range.start;
        let lanes = self.mfs.get(stage)?.get(range.clone())?;
        let entries = self.slots.get(stage)?.get(range)?;
        lanes
            .iter()
            .zip(entries)
            .position(|(&mf, e)| mf == lane && e.as_ref().is_some_and(|e| e.key.as_slice() == key))
            .map(|off| base + off)
    }

    /// [`CuckooTable::find_exact`] from precomputed hashes — no hashing.
    /// `word_from(stage_hashes[s])` addresses the same word as
    /// `word_of(s, key)` and `match_field_from(s, match_hash)` is the field
    /// `match_field_at(s, key)` stamps when the hashes honour the
    /// `probe_pre` contract.
    fn find_exact_pre(
        &self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
    ) -> Option<(usize, usize)> {
        stage_hashes.iter().enumerate().find_map(|(stage, &h)| {
            let lane = plane_mf(self.match_field_from(stage, match_hash));
            let slot = self.find_in_word(stage, self.word_from(h), lane, key)?;
            Some((stage, slot))
        })
    }
    // srlint: hot-path end

    /// Insert a key/value pair, running the BFS move search if every
    /// candidate slot is taken. Fails with [`CuckooError::Full`] when no
    /// eviction path exists within the configured limits, or
    /// [`CuckooError::Duplicate`] if the exact key is already stored.
    pub fn insert(&mut self, key: &[u8], value: V) -> Result<InsertOutcome, CuckooError> {
        if self.find_exact(key).is_some() {
            return Err(CuckooError::Duplicate);
        }
        self.insert_new(key, None, value, false)
    }

    /// [`CuckooTable::insert`] with all hashing of the *inserted* key done
    /// by the caller: `stage_hashes[i]` must be `self.stage_fns()[i]` over
    /// the key and `match_hash` the output of [`CuckooTable::match_fn`] —
    /// the hashes the packet path already computed when the connection first
    /// missed. Placement is bit-identical to [`CuckooTable::insert`]
    /// (candidate words and match fields derive from the same hash outputs);
    /// only residents displaced by the BFS are re-hashed, since their
    /// packet-time hashes are long gone.
    pub fn insert_pre(
        &mut self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
        value: V,
    ) -> Result<InsertOutcome, CuckooError> {
        debug_assert_eq!(stage_hashes.len(), self.cfg.stages);
        if self.find_exact_pre(key, stage_hashes, match_hash).is_some() {
            return Err(CuckooError::Duplicate);
        }
        self.insert_new(key, Some((stage_hashes, match_hash)), value, false)
    }

    /// [`CuckooTable::insert_pre`] for a caller that has *just probed*
    /// these exact hashes (via [`CuckooTable::lookup_pre`]) and found no
    /// hit of any kind, with the table untouched since. The probe already
    /// proved what the duplicate pre-scan would — an exact duplicate is
    /// also a match-field hit, so none can be stored — and it narrows the
    /// §4.2 repair: no digest-colliding resident sits in any of the key's
    /// candidate buckets, so when the insert lands in a free slot (no BFS
    /// displacements) and the key's collision class has no other member,
    /// no resident's lookup can have changed and the repair re-probe is
    /// skipped. Displacing inserts, and keys whose digest class already
    /// has members, repair exactly as [`CuckooTable::insert_pre`] does.
    /// Placement is bit-identical to the checked variants.
    pub fn insert_vacant_pre(
        &mut self,
        key: &[u8],
        stage_hashes: &[u64],
        match_hash: u64,
        value: V,
    ) -> Result<InsertOutcome, CuckooError> {
        debug_assert_eq!(stage_hashes.len(), self.cfg.stages);
        debug_assert!(
            self.lookup_pre(key, stage_hashes, match_hash).is_none(),
            "insert_vacant_pre requires a just-probed miss"
        );
        self.insert_new(key, Some((stage_hashes, match_hash)), value, true)
    }

    /// Shared tail of [`CuckooTable::insert`] / [`CuckooTable::insert_pre`]:
    /// place the entry, register its collision class, and repair any
    /// shadowing — all through the table's reusable scratch.
    fn insert_new(
        &mut self,
        key: &[u8],
        pre: Option<(&[u64], u64)>,
        value: V,
        probed_miss: bool,
    ) -> Result<InsertOutcome, CuckooError> {
        let entry = Record {
            // Placeholder; `insert_entry` stamps the landing stage's field.
            match_field: 0,
            key: TupleKey::from_bytes(key),
            hit: false,
            value,
        };
        let ikey = entry.key;
        let digest_mode = self.alias.is_some();
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.moved.clear();
        let result = match self.insert_entry(entry, 0, pre, &mut scratch, digest_mode) {
            Ok((out, slot)) => {
                if digest_mode {
                    let lone = self.alias_add(key, pre.map(|(_, mh)| mh));
                    if probed_miss && out.moves == 0 && lone {
                        // The caller's probe missed everywhere, the entry
                        // landed in a free slot, and its collision class
                        // holds only itself: no resident's lookup changed
                        // and the repair would merely re-confirm the fresh
                        // key's own exact hit. Skip the re-probe.
                        scratch.moved.clear();
                        scratch.touched.clear();
                    } else {
                        scratch.queue_touched(ikey, out.stage, slot);
                        self.repair_shadowed(&mut scratch, pre.map(|(hs, mh)| (key, hs, mh)));
                    }
                }
                Ok(out)
            }
            Err((e, _)) => Err(e),
        };
        self.scratch = scratch;
        result
    }

    /// Record a resident key in its collision class, reusing the caller's
    /// match hash when it has one (the class digest truncates that same
    /// hash). Returns whether the class held no other member — the signal
    /// that lets a probed-miss insert skip the shadowing repair.
    fn alias_add(&mut self, key: &[u8], match_hash: Option<u64>) -> bool {
        let Some(a) = &mut self.alias else {
            return true;
        };
        let class = match match_hash {
            Some(mh) => a.digest.digest_of(mh),
            None => a.digest.digest(key),
        };
        let members = a.classes.entry(class).or_default();
        let lone = members.is_empty();
        members.push(key);
        lone
    }

    /// Restore the invariant that every *resident* key's own lookup is an
    /// exact hit. Placing or moving an entry can shadow a digest-colliding
    /// resident probed later in the pipeline; the switch software holds the
    /// full keys, detects this at insertion time (§4.2), and relocates the
    /// shadowing entry. `scratch.touched` is the queue of keys that just
    /// changed position; only their collision classes can have new
    /// shadowing. `pre` carries the just-inserted key's precomputed hashes
    /// so checking *it* for shadowing costs no re-hash.
    ///
    /// The [`CuckooTable::screen_clean`] screen runs first and, when it
    /// proves no lookup changed, the class scan below is skipped; when it
    /// cannot, the scan runs in full from the top of the same queue, so the
    /// relocations performed are the same with or without the screen.
    fn repair_shadowed(&mut self, scratch: &mut InsertScratch, pre: Option<(&[u8], &[u64], u64)>) {
        if self.alias.is_none() {
            scratch.touched.clear();
            return; // full-key mode has no false hits
        }
        if self.screen_enabled() && self.screen_clean(&scratch.touched, pre) {
            scratch.touched.clear();
            return;
        }
        // Bounds a repair that cannot converge: the pairwise stage mask
        // below settles two keys that collide in several stages, but not a
        // three-way conflict, and a full table may leave a shadower nowhere
        // to go. Both are reachable at narrow digests (a handful per
        // 6x-capacity churn at 8-10 bits), so both are counted.
        let mut budget = 64usize;
        while let Some(k) = scratch.touched.pop_front() {
            let k = k.key;
            scratch.members.clear();
            {
                let a = self.alias.as_ref().expect("checked above");
                match a.classes.get(&a.class_of(k.as_slice(), pre)) {
                    Some(m) => scratch.members.extend_from_slice(m.bytes()),
                    None => continue,
                }
            }
            // Each member is copied out of the snapshot in turn: the
            // relocation below needs the scratch to itself.
            let mut at = 0;
            loop {
                let next = packed_keys(&scratch.members[at..]).next();
                let Some(resident) = next.map(TupleKey::from_bytes) else {
                    break;
                };
                at += 1 + resident.len();
                self.repair_probes += 1;
                let Some(shadower) = self.shadower_of(resident.as_slice(), pre) else {
                    continue;
                };
                if budget == 0 {
                    self.shadow_repair_failed += 1;
                    scratch.touched.clear();
                    return;
                }
                budget -= 1;
                scratch.moved.clear();
                // Keep the shadower out of every stage where it would land
                // in front of this resident again, not just the one it
                // shadows from now: two keys sharing word and field in two
                // stages would otherwise trade places until the budget
                // runs out.
                let exclude = self.shared_stages(shadower.as_slice(), resident.as_slice());
                match self.relocate_raw(shadower.as_slice(), exclude, scratch) {
                    Ok((stage, slot)) => {
                        self.shadow_repairs += 1;
                        let InsertScratch { moved, touched, .. } = &mut *scratch;
                        touched.extend(moved.drain(..));
                        touched.push_back(Touched {
                            key: shadower,
                            stage,
                            slot,
                        });
                    }
                    // No room to separate them: the false hit persists, as
                    // it would on a real switch, and is counted.
                    Err(_) => self.shadow_repair_failed += 1,
                }
            }
        }
    }

    /// Whether a mutation may trust the repair screen: only while no repair
    /// has ever been left incomplete, since the screen's argument starts
    /// from "every resident read exact before this mutation". After a
    /// failure every mutation takes the full class scan, which is also what
    /// heals the leftover when a later mutation touches its class.
    fn screen_enabled(&self) -> bool {
        #[cfg(test)]
        if self.screen_bypass {
            return false;
        }
        self.shadow_repair_failed == 0
    }

    /// The repair screen: did the mutation that queued `touched` leave every
    /// resident's lookup exact? Given that all were exact before it,
    ///
    /// * a lookup changes only if an entry with the probe's match field
    ///   *appeared* in one of its candidate words — vacating a slot removes
    ///   a possible first match, it cannot create one;
    /// * the entries that appeared are the touched keys', each at its
    ///   landing stage `s` and word `w`;
    /// * stage digests are prefixes of one hash, so a key whose stage-`s`
    ///   field equals a touched key's is a member of its collision class.
    ///
    /// So the only lookups that can read differently are the touched keys'
    /// own and those of class members whose stage-`s` word is `w`: one
    /// `word_of` hash per member and one full probe per touched key,
    /// instead of a full probe per member.
    fn screen_clean(
        &mut self,
        touched: &VecDeque<Touched>,
        pre: Option<(&[u8], &[u64], u64)>,
    ) -> bool {
        let a = self.alias.as_ref().expect("digest mode");
        let mut probes = 0u64;
        let clean = touched.iter().all(|t| {
            let key = t.key.as_slice();
            let Some(members) = a.classes.get(&a.class_of(key, pre)) else {
                return true;
            };
            let word = t.slot / self.cfg.entries_per_word;
            members
                .iter()
                .filter(|&m| m == key || self.word_of(t.stage, m) == word)
                .all(|m| {
                    probes += 1;
                    self.shadower_of(m, pre).is_none()
                })
        });
        self.repair_probes += probes;
        clean
    }

    /// The resident whose entry `key`'s own lookup falsely hits, if any.
    /// `pre` short-cuts the hashing when `key` is the just-inserted key.
    fn shadower_of(&self, key: &[u8], pre: Option<(&[u8], &[u64], u64)>) -> Option<TupleKey> {
        let hit = match pre {
            Some((pk, hs, mh)) if pk == key => self.lookup_pre(key, hs, mh),
            _ => self.lookup(key),
        };
        match hit {
            Some(h) if !h.exact => Some(TupleKey::from_bytes(h.resident_key)),
            _ => None,
        }
    }

    /// Bitmask of the stages at which `a` and `b` address the same word
    /// *and* carry the same match field — where either would shadow the
    /// other if it sat in front.
    fn shared_stages(&self, a: &[u8], b: &[u8]) -> u64 {
        let match_fn = self.match_fn();
        let (ha, hb) = (match_fn.hash(a), match_fn.hash(b));
        (0..self.cfg.stages)
            .filter(|&s| {
                self.word_of(s, a) == self.word_of(s, b)
                    && self.match_field_from(s, ha) == self.match_field_from(s, hb)
            })
            .fold(0, |mask, s| mask | 1 << s)
    }

    /// Relocations performed by the resident-shadowing repair.
    pub fn shadow_repairs(&self) -> u64 {
        self.shadow_repairs
    }

    /// Shadowing repairs left incomplete: the repair ran out of its
    /// relocation budget, or a shadower had no stage left to move to. Each
    /// may leave a resident whose own lookup false-hits another entry, so
    /// callers surface it as a counted degradation; while it is non-zero
    /// every mutation re-checks its whole collision class.
    pub fn shadow_repair_failed(&self) -> u64 {
        self.shadow_repair_failed
    }

    /// Full lookups issued by the shadowing repair and its screen — the
    /// host-independent cost of keeping residents unshadowed. Stays near
    /// one per insert whatever the collision-class size while the screen
    /// is in force.
    pub fn repair_probes(&self) -> u64 {
        self.repair_probes
    }

    /// Insert `entry`, keeping it out of the stages set in the `exclude`
    /// bitmask (relocation: the stage it leaves, plus any the repair rules
    /// out) — as a direct landing and as a BFS root alike. Returns the
    /// outcome plus the slot it landed in, which the repair screen wants.
    /// The candidate words and match fields of the *entry's own* key come
    /// from the caller's precomputed hashes when `pre` is supplied —
    /// `word_from`/`match_field_from` over the same hash outputs that
    /// `word_of`/`match_field_at` would compute, so placement is
    /// bit-identical either way. Keys of residents displaced by the BFS
    /// unwind are appended to `scratch.moved` when `record_moves` is set
    /// (only the digest-mode shadowing repair wants them). On failure the
    /// entry is handed back so the caller can restore it without having
    /// cloned it up front.
    fn insert_entry(
        &mut self,
        entry: Record<V>,
        exclude: u64,
        pre: Option<(&[u64], u64)>,
        scratch: &mut InsertScratch,
        record_moves: bool,
    ) -> Result<(InsertOutcome, usize), (CuckooError, Record<V>)> {
        scratch.cand.clear();
        for stage in 0..self.cfg.stages {
            scratch.cand.push(match pre {
                Some((hs, _)) => self.word_from(hs[stage]),
                None => self.word_of(stage, entry.key.as_slice()),
            });
        }
        // Fast path: a free slot in one of the candidate words. Stage order
        // doubles as a preference order (wider digests first in the
        // per-stage mode). Vacancy is read off the dense match-field plane
        // (`EMPTY_PLANE` marks free slots) — the same cache lines a caller
        // that just probed these words still has warm — instead of the
        // record array.
        for stage in 0..self.cfg.stages {
            if exclude & (1 << stage) != 0 {
                continue;
            }
            let word = scratch.cand[stage];
            let mut landing = None;
            for slot in self.slot_range(word) {
                if self.mfs[stage][slot] == EMPTY_PLANE {
                    landing = Some(slot);
                    break;
                }
            }
            if let Some(slot) = landing {
                debug_assert!(self.slots[stage][slot].is_none());
                let mut entry = entry;
                entry.match_field = match pre {
                    Some((_, mh)) => self.match_field_from(stage, mh),
                    None => self.match_field_at(stage, entry.key.as_slice()),
                };
                self.mfs[stage][slot] = plane_mf(entry.match_field);
                self.slots[stage][slot] = Some(entry);
                self.len += 1;
                return Ok((InsertOutcome { moves: 0, stage }, slot));
            }
        }
        // BFS over eviction paths. Nodes are (stage, slot) positions whose
        // resident entry we would displace; we search for a resident that
        // has a free alternative slot in another stage.
        scratch.nodes.clear();
        scratch.queue.clear();
        scratch.visited.clear();

        for stage in 0..self.cfg.stages {
            if exclude & (1 << stage) != 0 {
                continue;
            }
            let word = scratch.cand[stage];
            for slot in self.slot_range(word) {
                if scratch.visited.insert((stage, slot)) {
                    scratch.nodes.push(Node {
                        stage,
                        slot,
                        parent: usize::MAX,
                    });
                    scratch.queue.push_back((scratch.nodes.len() - 1, 1));
                }
            }
        }

        let mut found: Option<(usize, usize, usize)> = None; // (node, free_stage, free_slot)
        'bfs: while let Some((ni, depth)) = scratch.queue.pop_front() {
            if scratch.nodes.len() > self.cfg.max_bfs_nodes {
                break;
            }
            let (from_stage, from_slot) = (scratch.nodes[ni].stage, scratch.nodes[ni].slot);
            // Borrow the resident's key in place — the BFS only reads the
            // table, so no clone is needed to keep probing with it. The
            // resident's packet-time hashes are long gone, so (unlike the
            // entry being placed) displaced residents are re-hashed.
            let resident_key: &[u8] = match &self.slots[from_stage][from_slot] {
                Some(e) => e.key.as_slice(),
                // Shouldn't happen (fast path would have used it), but a
                // concurrent delete could free it: use directly.
                None => {
                    found = Some((ni, from_stage, from_slot));
                    break 'bfs;
                }
            };
            // Where can this resident move? Any other stage's candidate word.
            for alt_stage in 0..self.cfg.stages {
                if alt_stage == from_stage {
                    continue;
                }
                let word = self.word_of(alt_stage, resident_key);
                for slot in self.slot_range(word) {
                    if self.slots[alt_stage][slot].is_none() {
                        found = Some((ni, alt_stage, slot));
                        break 'bfs;
                    }
                    if depth < self.cfg.max_bfs_depth && scratch.visited.insert((alt_stage, slot)) {
                        scratch.nodes.push(Node {
                            stage: alt_stage,
                            slot,
                            parent: ni,
                        });
                        scratch
                            .queue
                            .push_back((scratch.nodes.len() - 1, depth + 1));
                    }
                }
            }
        }

        let (mut ni, free_stage, free_slot) = match found {
            Some(f) => f,
            None => return Err((CuckooError::Full, entry)),
        };

        // Unwind the path: move the chain of residents one hop each,
        // starting from the far end (the free slot).
        let mut dest = (free_stage, free_slot);
        let mut moves = 0usize;
        loop {
            let src = (scratch.nodes[ni].stage, scratch.nodes[ni].slot);
            let moved = self.slots[src.0][src.1].take();
            self.mfs[src.0][src.1] = EMPTY_PLANE;
            if let Some(mut m) = moved {
                debug_assert!(self.slots[dest.0][dest.1].is_none());
                // Moving across stages re-stamps the stage's match field
                // (stages may use different digest widths).
                if dest.0 != src.0 {
                    m.match_field = self.match_field_at(dest.0, m.key.as_slice());
                }
                if record_moves {
                    scratch.moved.push(Touched {
                        key: m.key,
                        stage: dest.0,
                        slot: dest.1,
                    });
                }
                self.mfs[dest.0][dest.1] = plane_mf(m.match_field);
                self.slots[dest.0][dest.1] = Some(m);
                moves += 1;
            }
            dest = src;
            if scratch.nodes[ni].parent == usize::MAX {
                break;
            }
            ni = scratch.nodes[ni].parent;
        }
        debug_assert!(self.slots[dest.0][dest.1].is_none());
        let landed = dest.0;
        let mut entry = entry;
        entry.match_field = match pre {
            Some((_, mh)) => self.match_field_from(landed, mh),
            None => self.match_field_at(landed, entry.key.as_slice()),
        };
        self.mfs[dest.0][dest.1] = plane_mf(entry.match_field);
        self.slots[dest.0][dest.1] = Some(entry);
        self.len += 1;
        self.total_moves += moves as u64;
        let out = InsertOutcome {
            moves,
            stage: landed,
        };
        Ok((out, dest.1))
    }

    /// Remove an entry by exact key.
    pub fn remove(&mut self, key: &[u8]) -> Result<V, CuckooError> {
        match self.find_exact(key) {
            Some((stage, slot)) => {
                let e = self.slots[stage][slot].take().expect("occupied");
                self.mfs[stage][slot] = EMPTY_PLANE;
                self.len -= 1;
                if let Some(a) = &mut self.alias {
                    a.remove(key);
                }
                Ok(e.value)
            }
            None => Err(CuckooError::NotFound),
        }
    }

    /// Relocate the entry stored under `key` to a *different* stage — the
    /// paper's false-positive repair (§4.2): when a SYN falsely hits a
    /// resident entry, software moves the resident so that the two colliding
    /// keys live in words addressed by different hash functions.
    ///
    /// Returns the stage the entry moved to.
    pub fn relocate(&mut self, key: &[u8]) -> Result<usize, CuckooError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.moved.clear();
        let result = self
            .relocate_raw(key, 0, &mut scratch)
            .map(|(stage, slot)| {
                scratch.queue_touched(TupleKey::from_bytes(key), stage, slot);
                self.repair_shadowed(&mut scratch, None);
                stage
            });
        self.scratch = scratch;
        result
    }

    /// [`CuckooTable::relocate`] without the shadowing repair — the repair
    /// itself relocates entries through this to avoid recursion, passing in
    /// `exclude` the stages (besides the current one) the entry must also
    /// stay out of. Returns the `(stage, slot)` it landed in. Displaced
    /// residents are appended to `scratch.moved` in digest mode.
    fn relocate_raw(
        &mut self,
        key: &[u8],
        exclude: u64,
        scratch: &mut InsertScratch,
    ) -> Result<(usize, usize), CuckooError> {
        let (stage, slot) = self.find_exact(key).ok_or(CuckooError::NotFound)?;
        let entry = self.slots[stage][slot].take().expect("occupied");
        self.mfs[stage][slot] = EMPTY_PLANE;
        self.len -= 1;
        let record_moves = self.alias.is_some();
        self.insert_entry(entry, exclude | 1 << stage, None, scratch, record_moves)
            .map(|(out, landed)| (out.stage, landed))
            .map_err(|(e, entry)| {
                // Roll back: the failed insert hands the entry back, so it
                // goes where it was without ever having been cloned.
                self.mfs[stage][slot] = plane_mf(entry.match_field);
                self.slots[stage][slot] = Some(entry);
                self.len += 1;
                e
            })
    }

    /// Iterate over stored (key, value) pairs (software-side, e.g. expiry
    /// scans). Order is unspecified but deterministic.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &V)> {
        self.slots
            .iter()
            .flat_map(|s| s.iter())
            .filter_map(|e| e.as_ref().map(|e| (e.key.as_slice(), &e.value)))
    }

    /// Remove every entry for which `pred` returns false, returning the
    /// removed (key, value) pairs — keys inline, so a sweep costs one
    /// allocation however many entries it expires. Hit bits are left alone.
    pub fn retain<F: FnMut(&[u8], &V) -> bool>(&mut self, mut pred: F) -> Vec<(TupleKey, V)> {
        self.sweep(false, |k, v, _| pred(k, v))
    }

    /// Clock-algorithm aging sweep: `pred` sees each entry's key, value, and
    /// current hit bit, and decides whether it survives. Survivors get their
    /// hit bit cleared (arming the next sweep); non-survivors are removed
    /// and returned, as by [`CuckooTable::retain`].
    pub fn retain_hits<F: FnMut(&[u8], &V, bool) -> bool>(
        &mut self,
        pred: F,
    ) -> Vec<(TupleKey, V)> {
        self.sweep(true, pred)
    }

    fn sweep<F: FnMut(&[u8], &V, bool) -> bool>(
        &mut self,
        clear_hits: bool,
        mut pred: F,
    ) -> Vec<(TupleKey, V)> {
        let mut removed = Vec::new();
        for (stage, stage_mfs) in self.slots.iter_mut().zip(self.mfs.iter_mut()) {
            for (slot, mf) in stage.iter_mut().zip(stage_mfs.iter_mut()) {
                let Some(e) = slot else { continue };
                if pred(e.key.as_slice(), &e.value, e.hit) {
                    if clear_hits {
                        e.hit = false;
                    }
                } else if let Some(e) = slot.take() {
                    *mf = EMPTY_PLANE;
                    self.len -= 1;
                    if let Some(a) = &mut self.alias {
                        a.remove(e.key.as_slice());
                    }
                    removed.push((e.key, e.value));
                }
            }
        }
        removed
    }

    /// Host bytes the table owns: the slot records, the match-field plane
    /// and the alias index, as capacity times element size. A count of the
    /// layout, not a measurement — equal on every host.
    pub fn host_bytes(&self) -> usize {
        let slots = self.slots.iter().map(Vec::capacity).sum::<usize>();
        let lanes = self.mfs.iter().map(Vec::capacity).sum::<usize>();
        slots * std::mem::size_of::<Option<Record<V>>>()
            + lanes * std::mem::size_of::<u16>()
            + self.alias.as_ref().map_or(0, AliasIndex::host_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::SmallRng, Rng, SeedableRng};

    fn small(match_mode: MatchMode) -> CuckooTable<u32> {
        CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 64,
            entries_per_word: 4,
            match_mode,
            seed: 42,
            max_bfs_depth: 8,
            max_bfs_nodes: 4096,
        })
    }

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = small(MatchMode::FullKey);
        for i in 0..100 {
            t.insert(&key(i), i).unwrap();
        }
        assert_eq!(t.len(), 100);
        for i in 0..100 {
            let hit = t.lookup(&key(i)).expect("present");
            assert_eq!(*hit.value, i);
            assert!(hit.exact);
        }
        for i in 0..100 {
            assert_eq!(t.remove(&key(i)).unwrap(), i);
        }
        assert!(t.is_empty());
        assert!(t.lookup(&key(0)).is_none());
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut t = small(MatchMode::FullKey);
        t.insert(&key(1), 1).unwrap();
        assert_eq!(t.insert(&key(1), 2), Err(CuckooError::Duplicate));
    }

    #[test]
    fn remove_missing_rejected() {
        let mut t = small(MatchMode::FullKey);
        assert_eq!(t.remove(&key(9)), Err(CuckooError::NotFound));
    }

    #[test]
    fn high_load_factor_achievable() {
        // 4 stages x 4 ways should pack well above 90%.
        let mut t = small(MatchMode::FullKey);
        let total = t.config().total_slots();
        let mut inserted = 0;
        for i in 0..total as u32 {
            if t.insert(&key(i), i).is_ok() {
                inserted += 1;
            } else {
                break;
            }
        }
        let load = inserted as f64 / total as f64;
        assert!(load > 0.90, "load factor only {load}");
        // Everything inserted must still be found.
        for i in 0..inserted as u32 {
            assert!(t.lookup(&key(i)).is_some(), "lost key {i} after moves");
        }
    }

    #[test]
    fn full_table_reports_full() {
        let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 2,
            words_per_stage: 2,
            entries_per_word: 1,
            match_mode: MatchMode::FullKey,
            seed: 7,
            max_bfs_depth: 8,
            max_bfs_nodes: 64,
        });
        let mut full_seen = false;
        for i in 0..100 {
            if t.insert(&key(i), i) == Err(CuckooError::Full) {
                full_seen = true;
                break;
            }
        }
        assert!(full_seen);
        assert!(t.len() <= 4);
    }

    #[test]
    fn digest_mode_false_positive_and_relocation() {
        // 1-bit-equivalent tiny digest space forced via 8-bit digests and
        // many keys: find two keys that collide (same stage-0 word, same
        // digest), verify the false hit, repair via relocate, verify fixed.
        let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 8,
            entries_per_word: 2,
            match_mode: MatchMode::Digest { bits: 8 },
            seed: 3,
            max_bfs_depth: 8,
            max_bfs_nodes: 4096,
        });
        // Insert one resident key.
        t.insert(&key(0), 0).unwrap();
        // Find a probe key that false-hits it.
        let mut probe = None;
        for i in 1u32..200_000 {
            if let Some(hit) = t.lookup(&key(i)) {
                if !hit.exact {
                    probe = Some(i);
                    break;
                }
            }
        }
        let probe = probe.expect("no digest collision found in 200k keys");
        // Repair: relocate the resident; afterwards the probe must miss.
        t.relocate(&key(0)).unwrap();
        let hit_after = t.lookup(&key(probe));
        assert!(
            hit_after.is_none() || hit_after.unwrap().exact,
            "false positive survived relocation"
        );
        // The resident is still present and correct.
        let r = t.lookup(&key(0)).expect("resident lost");
        assert!(r.exact);
        assert_eq!(*r.value, 0);
    }

    #[test]
    fn relocate_moves_stage() {
        let mut t = small(MatchMode::FullKey);
        t.insert(&key(5), 5).unwrap();
        let before = t.lookup(&key(5)).unwrap().stage;
        let after = t.relocate(&key(5)).unwrap();
        assert_ne!(before, after);
        assert_eq!(*t.lookup(&key(5)).unwrap().value, 5);
    }

    #[test]
    fn retain_expires_entries() {
        let mut t = small(MatchMode::FullKey);
        for i in 0..50 {
            t.insert(&key(i), i).unwrap();
        }
        let removed = t.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed.len(), 25);
        assert_eq!(t.len(), 25);
        assert!(t.lookup(&key(1)).is_none());
        assert!(t.lookup(&key(2)).is_some());
    }

    #[test]
    fn iter_sees_everything() {
        let mut t = small(MatchMode::FullKey);
        for i in 0..20 {
            t.insert(&key(i), i).unwrap();
        }
        let mut vals: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        vals.sort_unstable();
        assert_eq!(vals, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn full_key_table_has_no_false_hits() {
        let mut t = small(MatchMode::FullKey);
        t.insert(b"only", 1).unwrap();
        for i in 0..10_000u32 {
            if let Some(hit) = t.lookup(&key(i)) {
                assert!(hit.exact, "full-key table produced inexact hit");
            }
        }
    }

    #[test]
    fn for_capacity_sizing() {
        let cfg = CuckooConfig::for_capacity(10_000, 4, 4, 1);
        assert!(cfg.total_slots() >= 10_000);
        // Should not over-provision by more than ~2x.
        assert!(cfg.total_slots() < 21_000, "slots={}", cfg.total_slots());
    }

    #[test]
    fn per_stage_digests_roundtrip_under_moves() {
        // Mixed widths; heavy load forces BFS moves across stages, which
        // must re-stamp match fields so lookups still hit exactly.
        let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage: 64,
            entries_per_word: 4,
            match_mode: MatchMode::DigestPerStage {
                bits: vec![24, 20, 16, 12],
            },
            seed: 5,
            max_bfs_depth: 8,
            max_bfs_nodes: 4096,
        });
        let total = t.config().total_slots();
        let n = (total * 9 / 10) as u32;
        for i in 0..n {
            t.insert(&key(i), i).unwrap();
        }
        assert!(t.total_moves() > 0, "load too low to test moves");
        for i in 0..n {
            let hit = t.lookup(&key(i)).expect("present");
            assert_eq!(*hit.value, i, "wrong value after cross-stage move");
        }
    }

    #[test]
    fn wider_early_stages_reduce_false_hits() {
        // Compare false-positive counts: uniform 12-bit vs 20-bit-first
        // mixed digests, same population and probes.
        let build = |mode: MatchMode| {
            let mut t: CuckooTable<u32> = CuckooTable::new(CuckooConfig {
                stages: 4,
                words_per_stage: 128,
                entries_per_word: 4,
                match_mode: mode,
                seed: 9,
                max_bfs_depth: 8,
                max_bfs_nodes: 4096,
            });
            for i in 0..1200u32 {
                t.insert(&key(i), i).unwrap();
            }
            let mut fps = 0;
            for probe in 1_000_000..1_200_000u32 {
                if let Some(h) = t.lookup(&key(probe)) {
                    if !h.exact {
                        fps += 1;
                    }
                }
            }
            fps
        };
        let uniform = build(MatchMode::Digest { bits: 12 });
        let mixed = build(MatchMode::DigestPerStage {
            bits: vec![20, 20, 12, 12],
        });
        assert!(
            mixed < uniform,
            "mixed {mixed} should beat uniform {uniform}"
        );
    }

    /// The repair's invariant, stated: for every resident, `lookup(key)`
    /// is exact. Panics naming the first shadowed resident.
    fn check_no_shadowing(t: &CuckooTable<u32>) {
        for (key, _) in t.iter() {
            let hit = t.lookup(key).expect("resident present");
            assert!(
                hit.exact,
                "resident {key:?} shadowed by {:?} at stage {}",
                hit.resident_key, hit.stage
            );
        }
    }

    /// The alias index's invariant: every resident appears exactly once, in
    /// the class of its narrowest digest; every class member is resident;
    /// members read oldest-first. The callers insert ever-larger values, so
    /// oldest-first reads as ascending values.
    fn check_alias_consistent(t: &CuckooTable<u32>) {
        let a = t.alias.as_ref().expect("digest mode");
        let mut members = 0;
        for (class, c) in &a.classes {
            let mut newest = None;
            for m in c.iter() {
                assert_eq!(a.digest.digest(m), *class, "{m:?} in the wrong class");
                let (stage, slot) = t.find_exact(m).expect("class member is resident");
                let value = t.slots[stage][slot].as_ref().map(|e| e.value);
                assert!(
                    newest < value,
                    "class {class} reads {newest:?} before {value:?}"
                );
                newest = value;
                members += 1;
            }
        }
        // Members are resident and distinct within their class (values are
        // strictly ascending), so equal counts put every resident in once.
        assert_eq!(members, t.len());
    }

    fn digest_table(bits: u8, words_per_stage: usize, seed: u64) -> CuckooTable<u32> {
        CuckooTable::new(CuckooConfig {
            stages: 4,
            words_per_stage,
            entries_per_word: 4,
            match_mode: MatchMode::Digest { bits },
            seed,
            max_bfs_depth: 8,
            max_bfs_nodes: 4096,
        })
    }

    #[test]
    fn residents_never_shadow_each_other() {
        // Narrow digests + heavy load: without the insertion-time repair,
        // some resident's probe sequence would find a digest-colliding
        // entry in an earlier stage first (a false hit on its OWN key,
        // observed as a mid-life DIP flip by the simulator). The repair
        // must keep every resident's lookup exact through inserts, BFS
        // moves, relocations, and removals — checked after every single
        // mutation, for as long as the table reports no repair it could
        // not complete (after one, a leftover is a counted outcome).
        //
        // Seed 6 runs clean at all three widths, so its walk covers every
        // mutation. Seed 12's insert 646 is a three-way conflict — one key
        // sharing word and field with a second in stage 0 and with a third
        // in stage 2 — that pairwise stage masks cannot settle: there the
        // give-up must be counted, not silent.
        for (seed, conflicted) in [(6u64, false), (12, true)] {
            for bits in [8u8, 9, 10] {
                let mut t = digest_table(bits, 64, seed);
                let check = |t: &CuckooTable<u32>| {
                    check_alias_consistent(t);
                    if t.shadow_repair_failed() == 0 {
                        check_no_shadowing(t);
                    }
                };
                let n = (t.config().total_slots() * 8 / 10) as u32;
                for i in 0..n {
                    t.insert(&key(i), i).unwrap();
                    check(&t);
                }
                // Churn: delete a third, reinsert under new keys, relocate
                // some.
                for i in (0..n).step_by(3) {
                    t.remove(&key(i)).unwrap();
                    check(&t);
                }
                for i in n..n + n / 3 {
                    let _ = t.insert(&key(i), i);
                    check(&t);
                }
                for i in (1..n).step_by(7) {
                    let _ = t.relocate(&key(i));
                    check(&t);
                }
                // Sweeps only vacate slots, but they edit the classes too.
                t.retain(|_, v| v % 5 != 0);
                check(&t);
                t.retain_hits(|_, v, _| v % 3 != 0);
                check(&t);
                assert!(
                    t.shadow_repairs() > 0,
                    "population too small to exercise the repair (seed {seed}, {bits} bits)"
                );
                assert_eq!(
                    t.shadow_repair_failed() > 0,
                    conflicted,
                    "seed {seed}, {bits} bits: {} repairs failed",
                    t.shadow_repair_failed()
                );
            }
        }
    }

    #[test]
    fn keys_colliding_in_two_stages_are_separated() {
        // The hit-1m seed-204 pair in miniature: two keys with one digest
        // and the same word in stage 0 *and* stage 1. Excluding only the
        // shadower's current stage bounces the pair between the two shared
        // words until the budget is gone and leaves one of them shadowed.
        let mut t = small(MatchMode::Digest { bits: 8 });
        let mut seen: crate::FxHashMap<(u32, usize, usize), u32> = Default::default();
        let (a, b) = (0u32..)
            .find_map(|i| {
                let k = key(i);
                let sig = (t.match_field_at(0, &k), t.word_of(0, &k), t.word_of(1, &k));
                seen.insert(sig, i).map(|j| (j, i))
            })
            .expect("unbounded search");
        assert_eq!(t.shared_stages(&key(a), &key(b)), 0b11, "pair {a}/{b}");
        t.insert(&key(a), a).unwrap();
        t.insert(&key(b), b).unwrap();
        assert_eq!(t.shadow_repair_failed(), 0);
        for i in [a, b] {
            let hit = t.lookup(&key(i)).expect("present");
            assert!(hit.exact, "key {i} of pair {a}/{b} is shadowed");
            assert_eq!(*hit.value, i);
        }
    }

    #[test]
    fn screened_repair_places_exactly_like_full_scan() {
        // The screen may only ever skip a class scan that would have found
        // nothing. Two tables of one config, one with the screen bypassed,
        // driven by one seeded stream of inserts, removes and relocates:
        // results, placement and repair counters must agree after every
        // step — including after a counted repair failure, when both arms
        // run the full scan. Placement is the match-field planes on every
        // step (one memcmp) and the full `iter()` order on every eighth and
        // the last: walking every slot of both tables after each of
        // 6 x capacity steps is what would make this test take 20 s.
        for (bits, words_per_stage) in [(8u8, 64usize), (8, 32), (9, 128), (10, 256), (16, 64)] {
            let mut screened = digest_table(bits, words_per_stage, 7);
            let mut full = digest_table(bits, words_per_stage, 7);
            full.screen_bypass = true;
            let capacity = screened.config().total_slots();
            let steps = 6 * capacity;
            let mut rng = SmallRng::seed_from_u64(0x5c4ee0 ^ u64::from(bits));
            for step in 0..steps {
                // Keys from a universe a little larger than the table, so
                // the stream mixes fresh inserts, duplicates, hits and
                // misses, and the table hovers near full.
                let k = key(rng.gen_range(0..capacity as u32 * 5 / 4));
                let ctx = format!("{bits} bits, {words_per_stage} words, step {step}");
                match rng.gen_range(0..8u32) {
                    0..=3 => assert_eq!(
                        screened.insert(&k, step as u32),
                        full.insert(&k, step as u32),
                        "insert, {ctx}"
                    ),
                    4..=5 => assert_eq!(screened.remove(&k), full.remove(&k), "remove, {ctx}"),
                    _ => assert_eq!(screened.relocate(&k), full.relocate(&k), "relocate, {ctx}"),
                }
                assert!(screened.mfs == full.mfs, "planes, {ctx}");
                if step % 8 == 0 || step + 1 == steps {
                    assert!(screened.iter().eq(full.iter()), "placement, {ctx}");
                    check_alias_consistent(&screened);
                    check_alias_consistent(&full);
                }
                assert_eq!(screened.shadow_repairs(), full.shadow_repairs(), "{ctx}");
                assert_eq!(
                    screened.shadow_repair_failed(),
                    full.shadow_repair_failed(),
                    "{ctx}"
                );
            }
            assert!(
                bits > 10 || screened.shadow_repairs() > 0,
                "no repair exercised at {bits} bits"
            );
            assert!(
                screened.repair_probes() < full.repair_probes(),
                "the screen saved nothing at {bits} bits"
            );
        }
    }

    #[test]
    fn repair_probes_do_not_scale_with_the_collision_class() {
        // 4 096 residents under an 8-bit digest: every collision class
        // holds ~16 keys, as a 16-bit class does at a million flows. The
        // screen must keep an insert at about one full probe (its own);
        // the bypassed arm pays one per class member. Counted, not timed:
        // fails on any host if the per-insert class scan comes back.
        let per_insert = |bypass: bool| {
            let mut t = digest_table(8, 4096, 21);
            t.screen_bypass = bypass;
            for i in 0..4096u32 {
                t.insert(&key(i), i).unwrap();
            }
            let before = t.repair_probes();
            for i in 4096..4096 + 512u32 {
                t.insert(&key(i), i).unwrap();
            }
            assert_eq!(t.shadow_repair_failed(), 0);
            (t.repair_probes() - before) as f64 / 512.0
        };
        let (screened, full) = (per_insert(false), per_insert(true));
        assert!(screened <= 1.5, "{screened} probes per screened insert");
        assert!(full >= 8.0, "{full} probes per full-scan insert");
    }

    #[test]
    fn lookup_pre_matches_lookup() {
        for mode in [
            MatchMode::FullKey,
            MatchMode::Digest { bits: 8 },
            MatchMode::DigestPerStage {
                bits: vec![24, 16, 12, 8],
            },
        ] {
            let mut t = small(mode);
            let n = (t.config().total_slots() * 8 / 10) as u32;
            for i in 0..n {
                let _ = t.insert(&key(i), i);
            }
            let stage_fns = t.stage_fns().to_vec();
            let match_fn = t.match_fn();
            let mut hashes = vec![0u64; stage_fns.len()];
            let seen = |hit: LookupHit<'_, u32>| {
                (hit.stage, hit.exact, *hit.value, hit.resident_key.to_vec())
            };
            // Probe residents and strangers alike: stage, exactness, value
            // and resident key must agree with the byte-hashing path, for
            // the install pre-check (`lookup_pre`) and for the data plane's
            // split probe, which also marks the hit bit iff the match is
            // exact.
            let mut marked = 0;
            for i in 0..n * 2 {
                let k = key(i);
                crate::hasher::hash_all(&stage_fns, &k, &mut hashes);
                let mh = match_fn.hash(&k);
                let want = t.lookup(&k).map(seen);
                assert_eq!(
                    t.lookup_pre(&k, &hashes, mh).map(seen),
                    want,
                    "lookup_pre, key {i}"
                );
                let split = t.locate_pre(&k, &hashes, mh).map(|(stage, slot)| {
                    let bit = |t: &CuckooTable<u32>| {
                        t.slots[stage as usize][slot as usize].as_ref().unwrap().hit
                    };
                    let before = bit(&t);
                    let hit = seen(t.lookup_marking_at(stage, slot, &k));
                    assert_eq!(bit(&t), before || hit.1, "hit bit, key {i}");
                    hit
                });
                assert_eq!(split, want, "locate_pre + lookup_marking_at, key {i}");
                marked += usize::from(split.is_some_and(|hit| hit.1));
            }
            // Every exact probe marked its own resident and nothing else
            // was marked: aging keeps exactly those.
            t.retain_hits(|_, _, hit| hit);
            assert_eq!(t.len(), marked);
        }
    }

    #[test]
    fn insert_pre_places_identically_to_insert() {
        // The switch installs entries through `insert_pre` with the hashes
        // the packet path computed; byte-hashing callers go through
        // `insert`. The two entry points must produce bit-identical
        // layouts.
        for mode in [
            MatchMode::FullKey,
            MatchMode::Digest { bits: 8 },
            MatchMode::DigestPerStage {
                bits: vec![24, 16, 12, 8],
            },
        ] {
            let mut a = small(mode.clone());
            let mut b = small(mode);
            let stage_fns = b.stage_fns().to_vec();
            let match_fn = b.match_fn();
            let mut hashes = vec![0u64; stage_fns.len()];
            // 90% load forces BFS moves and (at 8-bit digests) repairs.
            let n = (a.config().total_slots() * 9 / 10) as u32;
            for i in 0..n {
                let k = key(i);
                crate::hasher::hash_all(&stage_fns, &k, &mut hashes);
                let mh = match_fn.hash(&k);
                let ra = a.insert(&k, i);
                let rb = b.insert_pre(&k, &hashes, mh, i);
                assert_eq!(ra, rb, "outcome diverged at key {i}");
                if i % 5 == 0 {
                    // Duplicate detection must agree too.
                    assert_eq!(
                        b.insert_pre(&k, &hashes, mh, i),
                        Err(CuckooError::Duplicate)
                    );
                }
            }
            assert_eq!(a.len(), b.len());
            assert_eq!(a.total_moves(), b.total_moves(), "BFS paths diverged");
            assert_eq!(a.shadow_repairs(), b.shadow_repairs());
            for stage in 0..a.cfg.stages {
                assert_eq!(a.mfs[stage], b.mfs[stage], "plane differs at {stage}");
                for (slot, (x, y)) in a.slots[stage].iter().zip(&b.slots[stage]).enumerate() {
                    match (x, y) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!(x.key.as_slice(), y.key.as_slice(), "{stage}/{slot}");
                            assert_eq!(x.match_field, y.match_field, "{stage}/{slot}");
                            assert_eq!(x.value, y.value, "{stage}/{slot}");
                        }
                        _ => panic!("occupancy differs at {stage}/{slot}"),
                    }
                }
            }
        }
    }

    #[test]
    fn hit_bits_mark_and_age() {
        let mut t = small(MatchMode::FullKey);
        for i in 0..10 {
            t.insert(&key(i), i).unwrap();
        }
        // Mark only even keys, through the data plane's split probe.
        let mut hashes = vec![0u64; t.stage_fns().len()];
        for i in (0..10).step_by(2) {
            let k = key(i);
            crate::hasher::hash_all(t.stage_fns(), &k, &mut hashes);
            let (stage, slot) = t.locate_pre(&k, &hashes, t.match_fn().hash(&k)).unwrap();
            assert!(t.lookup_marking_at(stage, slot, &k).exact);
        }
        // Plain lookup must not mark.
        let _ = t.lookup(&key(1));
        let removed = t.retain_hits(|_, _, hit| hit);
        assert_eq!(removed.len(), 5);
        assert_eq!(t.len(), 5);
        assert!(t.lookup(&key(1)).is_none());
        assert!(t.lookup(&key(2)).is_some());
        // Bits were cleared: a second sweep with the same predicate removes
        // everything left.
        let removed = t.retain_hits(|_, _, hit| hit);
        assert_eq!(removed.len(), 5);
        assert!(t.is_empty());
    }

    #[test]
    fn moves_counted() {
        let mut t = small(MatchMode::FullKey);
        let total = t.config().total_slots();
        for i in 0..(total as u32 * 9 / 10) {
            let _ = t.insert(&key(i), i);
        }
        // At 90% load, at least some inserts must have required moves.
        assert!(t.total_moves() > 0);
    }

    #[test]
    fn host_bytes_per_slot_stays_near_one_line() {
        // 65 536 slots under a 12-bit digest, filled to load 0.8 with
        // 13-byte (v4 5-tuple sized) keys: ~13 residents per collision
        // class, the ratio a 16-bit digest has at a million flows, and the
        // pre-sized class map (4 096 classes) is a few bytes per slot
        // instead of the whole budget. One 64-byte record, a 2-byte plane
        // lane and the packed alias bytes must come in under 100 B/slot;
        // the 112-byte entries and 41-byte alias copies this replaced cost
        // about 170.
        let mut t = digest_table(12, 4096, 5);
        let slots = t.config().total_slots();
        for i in 0..(slots as u32 * 8 / 10) {
            let mut k = [0u8; 13];
            k[..4].copy_from_slice(&i.to_be_bytes());
            t.insert(&k, i).unwrap();
        }
        let per_slot = t.host_bytes() as f64 / slots as f64;
        assert!(per_slot <= 100.0, "{per_slot} host bytes per slot");
        assert!(per_slot >= 66.0, "{per_slot}: records or plane not counted");
    }
}
