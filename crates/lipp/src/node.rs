//! LIPP node layout, as the original stores it: a linear model over an
//! array of 16-byte entries, plus a 2-bit type tag per slot (empty, record
//! or child) packed 32 to a `u64` tag word. A record keeps its key and value
//! in its entry; a child keeps its arena id in the entry's second word.
//!
//! Entries and tag words share one boxed buffer: entry `s` is words `2s`
//! and `2s + 1`, and the tag words follow the last entry. A node therefore
//! owns one heap allocation, so cloning an index (every overlay fold starts
//! with one) allocates once per node, and a walk over a node's occupied
//! slots skips 32 empty slots per tag word it reads. The node's header is
//! one 64-byte cache line.

use csv_common::{prefetch_slice_at, Key, LinearModel, Value};

/// Slots described by one tag word.
const SLOTS_PER_WORD: usize = 32;
/// The low bit of every slot's 2-bit tag.
const LOW_TAG_BITS: u64 = 0x5555_5555_5555_5555;

/// What a slot holds, as its 2-bit tag says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    /// Unoccupied (never used, a removed record or a virtual-point gap);
    /// the entry's bytes mean nothing.
    Empty = 0,
    /// A record stored at its model-predicted position.
    Data = 1,
    /// A child node created because several keys predicted this slot.
    Child = 2,
}

impl Tag {
    #[inline]
    fn from_bits(bits: u64) -> Self {
        match bits & 0b11 {
            0 => Tag::Empty,
            1 => Tag::Data,
            _ => Tag::Child,
        }
    }
}

/// One slot's entry: a record's key and value, or a child's arena id in
/// `word` (with `key` unused).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry {
    pub key: Key,
    pub word: u64,
}

/// The original's entry size; the buffer stores an entry as two words.
const _: () = assert!(std::mem::size_of::<Entry>() == 16);
const ENTRY_WORDS: usize = std::mem::size_of::<Entry>() / std::mem::size_of::<u64>();

impl Entry {
    /// The arena id of a `Child` slot's node.
    #[inline]
    pub fn child(self) -> usize {
        self.word as usize
    }
}

/// A LIPP node. Nodes are arena-allocated; `Child` slots store arena ids.
///
/// The model operates on `key − key_offset` rather than the raw key: keys in
/// the upper end of the 64-bit space (e.g. S2 cell IDs around 2⁵⁶) can be
/// closer together than one `f64` ULP, and a model over raw keys could never
/// separate them — LIPP, which relies on eventually giving every key its own
/// slot, would recurse forever. Shifting by the node's smallest key keeps the
/// values exactly representable.
///
/// The header is one cache line, and aligned to one: a lookup reads the
/// first 44 bytes (`words`, the model, `key_offset`, `capacity`), so each
/// level of a descent misses on one header line, never two. `level` and
/// `inserts_since_build` are narrowed to `u32` to fit.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct Node {
    /// `capacity` entries of two words each, then ⌈capacity / 32⌉ tag words.
    words: Box<[u64]>,
    /// Linear model mapping `key − key_offset` to a slot in `[0, capacity)`.
    pub model: LinearModel,
    /// Offset subtracted from every key before evaluating the model.
    pub key_offset: Key,
    /// Number of slots (`words` also holds the tag words).
    capacity: u32,
    /// 1-based level of this node (1 = root).
    level: u32,
    /// Number of real keys stored in this node's entire sub-tree.
    pub subtree_keys: usize,
    /// Number of inserts routed through this node since it was (re)built;
    /// drives the adjustment (sub-tree rebuild) heuristic. Saturates, which
    /// the heuristic cannot tell from counting on.
    inserts_since_build: u32,
    /// `true` while the node's sub-tree has absorbed inserts/removes (or a
    /// structural rebuild) since CSV last considered it. Nodes start dirty:
    /// a freshly built sub-tree has never been considered. Cleared only by
    /// `CsvIntegrable::csv_mark_clean`.
    pub dirty: bool,
}

impl Node {
    /// Creates an empty node with the given capacity and level.
    pub fn empty(capacity: usize, level: usize) -> Self {
        let capacity = capacity.max(1);
        let words = capacity * ENTRY_WORDS + capacity.div_ceil(SLOTS_PER_WORD);
        Self {
            words: vec![0; words].into_boxed_slice(),
            model: LinearModel::default(),
            key_offset: 0,
            capacity: u32::try_from(capacity).expect("a node has at most u32::MAX slots"),
            level: u32::try_from(level).expect("a tree has at most u32::MAX levels"),
            subtree_keys: 0,
            inserts_since_build: 0,
            dirty: true,
        }
    }

    /// 1-based level of this node (1 = root).
    #[inline]
    pub fn level(&self) -> usize {
        self.level as usize
    }

    /// Inserts routed through this node since it was (re)built.
    pub fn inserts_since_build(&self) -> usize {
        self.inserts_since_build as usize
    }

    /// Counts one insert routed through this node.
    pub fn note_insert(&mut self) {
        self.inserts_since_build = self.inserts_since_build.saturating_add(1);
    }

    /// Capacity (number of slots) of the node.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// The slot index predicted for `key`.
    #[inline]
    pub fn predict_slot(&self, key: Key) -> usize {
        self.model
            .predict_clamped(key.saturating_sub(self.key_offset), self.capacity())
    }

    /// The packed tag words, 32 slots each.
    #[inline]
    fn tag_words(&self) -> &[u64] {
        &self.words[self.capacity() * ENTRY_WORDS..]
    }

    /// Index into `words` of the tag word holding `slot`'s tag.
    #[inline]
    fn tag_word_index(&self, slot: usize) -> usize {
        self.capacity() * ENTRY_WORDS + slot / SLOTS_PER_WORD
    }

    /// The tag of `slot`.
    #[inline]
    pub fn tag(&self, slot: usize) -> Tag {
        let word = self.words[self.tag_word_index(slot)];
        Tag::from_bits(word >> (2 * (slot % SLOTS_PER_WORD)))
    }

    /// The entry of `slot`; meaningful only when its tag is not `Empty`.
    #[inline]
    pub fn entry(&self, slot: usize) -> Entry {
        let at = slot * ENTRY_WORDS;
        let &[key, word] = <&[u64; ENTRY_WORDS]>::try_from(&self.words[at..at + ENTRY_WORDS])
            .expect("an entry is two words");
        Entry { key, word }
    }

    /// `slot`'s tag and entry, loaded independently of each other so that
    /// neither load waits on the other; the entry means nothing when the
    /// tag is `Empty`.
    #[inline]
    pub fn slot(&self, slot: usize) -> (Tag, Entry) {
        (self.tag(slot), self.entry(slot))
    }

    /// Starts loading `slot`'s tag word and entry, which sit in different
    /// cache lines, so neither waits for the other.
    #[inline]
    pub fn prefetch(&self, slot: usize) {
        prefetch_slice_at(&self.words, slot * ENTRY_WORDS);
        prefetch_slice_at(&self.words, self.tag_word_index(slot));
    }

    fn set(&mut self, slot: usize, tag: Tag, entry: Entry) {
        let at = slot * ENTRY_WORDS;
        self.words[at] = entry.key;
        self.words[at + 1] = entry.word;
        let shift = 2 * (slot % SLOTS_PER_WORD);
        let index = self.tag_word_index(slot);
        let word = &mut self.words[index];
        *word = (*word & !(0b11 << shift)) | ((tag as u64) << shift);
    }

    /// Stores a record in `slot`.
    pub fn set_data(&mut self, slot: usize, key: Key, value: Value) {
        self.set(slot, Tag::Data, Entry { key, word: value });
    }

    /// Points `slot` at the node with arena id `child`.
    pub fn set_child(&mut self, slot: usize, child: usize) {
        let word = child as u64;
        self.set(slot, Tag::Child, Entry { key: 0, word });
    }

    /// Empties `slot`.
    pub fn clear(&mut self, slot: usize) {
        self.set(slot, Tag::Empty, Entry { key: 0, word: 0 });
    }

    /// The occupied slots from `start` on, in slot order, as `(tag, entry)`
    /// with `tag` never `Empty`.
    pub fn occupied_from(&self, start: usize) -> Occupied<'_> {
        self.walk(start, false)
    }

    /// Every occupied slot, in slot order.
    pub fn occupied(&self) -> Occupied<'_> {
        self.walk(0, false)
    }

    /// Arena ids of the node's children, in slot order; records are skipped
    /// a tag word at a time, never read.
    pub fn children(&self) -> impl Iterator<Item = usize> + '_ {
        self.walk(0, true).map(|(_, entry)| entry.child())
    }

    fn walk(&self, start: usize, children_only: bool) -> Occupied<'_> {
        let word = start / SLOTS_PER_WORD;
        let bits = self.tag_words().get(word).map_or(0, |&tags| {
            selected_bits(tags, children_only) & (!0u64 << (2 * (start % SLOTS_PER_WORD)))
        });
        Occupied {
            tags: self.tag_words(),
            entries: &self.words,
            children_only,
            word,
            bits,
        }
    }

    /// Number of `Data` slots in this node (not counting descendants).
    pub fn local_keys(&self) -> usize {
        // A tag is never 0b11, so a set low bit means `Data`.
        self.tag_words()
            .iter()
            .map(|&tags| (tags & LOW_TAG_BITS).count_ones() as usize)
            .sum()
    }

    /// Number of `Child` slots in this node.
    pub fn child_count(&self) -> usize {
        self.tag_words()
            .iter()
            .map(|&tags| (tags & !LOW_TAG_BITS).count_ones() as usize)
            .sum()
    }

    /// In-memory footprint of the node in bytes: the header plus the one
    /// buffer it owns.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.words)
    }
}

/// One bit per occupied slot of a tag word (per `Child` slot if
/// `children_only`), at the slot's low tag bit.
#[inline]
fn selected_bits(tags: u64, children_only: bool) -> u64 {
    if children_only {
        (tags >> 1) & LOW_TAG_BITS
    } else {
        (tags | (tags >> 1)) & LOW_TAG_BITS
    }
}

/// Iterator behind [`Node::occupied_from`] and [`Node::children`]: finds
/// each selected slot with `trailing_zeros`, reading one tag word per 32
/// slots.
pub(crate) struct Occupied<'a> {
    tags: &'a [u64],
    entries: &'a [u64],
    /// Yield `Child` slots only.
    children_only: bool,
    /// Index of the tag word `bits` came from.
    word: usize,
    /// The still-unvisited occupied slots of that word.
    bits: u64,
}

impl Iterator for Occupied<'_> {
    type Item = (Tag, Entry);

    #[inline]
    fn next(&mut self) -> Option<(Tag, Entry)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = selected_bits(*self.tags.get(self.word)?, self.children_only);
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let tag = Tag::from_bits(self.tags[self.word] >> bit);
        let at = (self.word * SLOTS_PER_WORD + bit / 2) * ENTRY_WORDS;
        let entry = Entry {
            key: self.entries[at],
            word: self.entries[at + 1],
        };
        Some((tag, entry))
    }
}

/// A read-only view of a node, exposed for diagnostics and the experiment
/// harness (e.g. per-level statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LippNodeView {
    /// Arena id of the node.
    pub node_id: usize,
    /// 1-based level.
    pub level: usize,
    /// Slot capacity.
    pub capacity: usize,
    /// Records stored directly in the node.
    pub local_keys: usize,
    /// Child nodes hanging off the node.
    pub children: usize,
    /// Keys in the whole sub-tree.
    pub subtree_keys: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_node_has_no_keys() {
        let node = Node::empty(8, 1);
        assert_eq!(node.capacity(), 8);
        assert_eq!(node.local_keys(), 0);
        assert_eq!(node.child_count(), 0);
        assert_eq!(node.occupied().count(), 0);
        assert_eq!(
            node.size_bytes(),
            std::mem::size_of::<Node>() + 8 * std::mem::size_of::<Entry>() + 8,
            "eight entries and one tag word"
        );
        let tiny = Node::empty(0, 2);
        assert_eq!(
            tiny.capacity(),
            1,
            "capacity is clamped to at least one slot"
        );
    }

    #[test]
    fn size_bytes_is_an_honest_tally_of_reachable_nodes() {
        use crate::LippIndex;
        use csv_common::key::identity_records;
        use csv_common::traits::{LearnedIndex, RemovableIndex};
        use csv_core::{CsvConfig, CsvOptimizer};

        // Clustered runs: a multi-level tree, then smoothed, grown and
        // shrunk, so merged nodes, conflict children and free-listed
        // placeholders all exist.
        let keys: Vec<Key> = (0..6_000u64)
            .map(|i| (i / 40) * 1_000_000 + (i % 40) * 3)
            .collect();
        let mut index = LippIndex::bulk_load(&identity_records(&keys));
        CsvOptimizer::new(CsvConfig::for_lipp(0.1)).optimize(&mut index);
        for &k in keys.iter().step_by(7) {
            assert!(index.insert(k + 1, k));
        }
        for &k in keys.iter().step_by(11) {
            assert_eq!(index.remove(k), Some(k));
        }
        let tally: usize = index
            .node_views()
            .iter()
            .map(|view| {
                let node = &index.nodes[view.node_id];
                std::mem::size_of::<Node>() + std::mem::size_of_val(&*node.words)
            })
            .sum();
        assert_eq!(index.stats().size_bytes, tally);
    }

    #[test]
    fn node_header_is_one_cache_line() {
        // Eight bytes of header cost 1.35 B per key on the smoothed OSM set.
        assert_eq!(std::mem::size_of::<Node>(), 64);
        assert_eq!(std::mem::align_of::<Node>(), 64);
    }

    #[test]
    fn slot_counting() {
        let mut node = Node::empty(4, 1);
        node.set_data(0, 1, 1);
        node.set_child(2, 7);
        node.set_data(3, 9, 9);
        assert_eq!(node.local_keys(), 2);
        assert_eq!(node.child_count(), 1);
        assert_eq!(node.tag(1), Tag::Empty);
        assert_eq!(node.tag(2), Tag::Child);
        assert_eq!(node.entry(2).child(), 7);
        assert_eq!(node.children().collect::<Vec<_>>(), [7]);
        node.clear(0);
        node.set_data(3, 9, 10);
        assert_eq!(node.local_keys(), 1);
        assert_eq!(
            node.occupied().collect::<Vec<_>>(),
            [
                (Tag::Child, Entry { key: 0, word: 7 }),
                (Tag::Data, Entry { key: 9, word: 10 })
            ]
        );
    }

    #[test]
    fn predict_slot_clamps() {
        let mut node = Node::empty(10, 1);
        node.model = LinearModel::new(1.0, -5.0);
        assert_eq!(node.predict_slot(0), 0);
        assert_eq!(node.predict_slot(7), 2);
        assert_eq!(node.predict_slot(1000), 9);
    }
}
