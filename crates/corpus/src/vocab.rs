//! Interned vocabulary mapping words to dense `u32` ids (paper §2: "we index
//! all the unique words in this corpus using a vocabulary of V words").

use std::hash::Hasher;
use topmine_util::FxHasher;

/// Marks a free slot of the index.
const EMPTY: u32 = u32::MAX;

/// A bidirectional word ⇄ id table. Ids are dense `0..len` so downstream
/// models can use them directly as array indices (φ is a `K × V` matrix).
///
/// Each word is held once, in `words`; the index is an open-addressed
/// table of ids into it, so a lookup hashes the word, probes and compares
/// against the stored word.
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    words: Vec<String>,
    /// A power-of-two table of ids into `words` (or [`EMPTY`]), at most half
    /// full. A word starts probing at the top bits of the Fx hash of its
    /// bytes and moves on one slot at a time.
    slots: Vec<u32>,
}

/// Two vocabularies are equal when they list the same words in the same
/// order (the index is a function of the list).
impl PartialEq for Vocab {
    fn eq(&self, other: &Self) -> bool {
        self.words == other.words
    }
}

impl Vocab {
    pub fn new() -> Self {
        Self::default()
    }

    /// The vocabulary listing `words`, word `i` at id `i`, its index built
    /// presized from the finished list. A word listed twice is refused with
    /// `Err((first, again))`: the id of its first listing and of the next
    /// one. Panics past `u32` ids, like [`Vocab::intern`].
    pub fn from_words(words: Vec<String>) -> Result<Self, (u32, u32)> {
        assert!(
            u32::try_from(words.len()).is_ok(),
            "vocabulary exceeds u32 ids"
        );
        let mut vocab = Self {
            slots: vec![EMPTY; table_len(words.len())],
            words,
        };
        for id in 0..vocab.words.len() as u32 {
            let slot = vocab.slot(&vocab.words[id as usize]);
            match vocab.slots[slot] {
                EMPTY => vocab.slots[slot] = id,
                first => return Err((first, id)),
            }
        }
        Ok(vocab)
    }

    /// Intern `word`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, word: &str) -> u32 {
        if let Some(id) = self.id(word) {
            return id;
        }
        let id = u32::try_from(self.words.len())
            .ok()
            .filter(|&id| id != EMPTY)
            .expect("vocabulary exceeds u32 ids");
        if table_len(self.words.len() + 1) > self.slots.len() {
            // Double the table and re-place every id (the words are
            // distinct, so each lands on a free slot).
            self.slots = vec![EMPTY; table_len(self.words.len() + 1)];
            for old in 0..id {
                let slot = self.slot(&self.words[old as usize]);
                self.slots[slot] = old;
            }
        }
        let slot = self.slot(word);
        self.slots[slot] = id;
        self.words.push(word.to_string());
        id
    }

    /// Look up an existing word.
    pub fn id(&self, word: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot(word)] {
            EMPTY => None,
            id => Some(id),
        }
    }

    /// The slot that holds `word`'s id, or the free slot that ends its
    /// probe. The table must not be empty.
    fn slot(&self, word: &str) -> usize {
        let mut h = FxHasher::default();
        h.write(word.as_bytes());
        let mask = self.slots.len() - 1;
        let mut slot = (h.finish() >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            match self.slots[slot] {
                EMPTY => return slot,
                id if self.words[id as usize] == word => return slot,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// The surface string for `id`. Panics on out-of-range ids, which always
    /// indicates corpus corruption upstream.
    pub fn word(&self, id: u32) -> &str {
        &self.words[id as usize]
    }

    pub fn len(&self) -> usize {
        self.words.len()
    }

    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Iterate `(id, word)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, w)| (i as u32, w.as_str()))
    }

    /// Render a phrase of word ids as a space-joined string.
    pub fn render(&self, ids: &[u32]) -> String {
        let mut s = String::new();
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.word(id));
        }
        s
    }
}

/// Index slots for `n` words: a power of two at least `2n`, and at least 8.
fn table_len(n: usize) -> usize {
    (2 * n).next_power_of_two().max(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocab::new();
        let a = v.intern("data");
        let b = v.intern("mining");
        assert_eq!(v.intern("data"), a);
        assert_ne!(a, b);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn roundtrip() {
        let mut v = Vocab::new();
        let id = v.intern("support");
        assert_eq!(v.word(id), "support");
        assert_eq!(v.id("support"), Some(id));
        assert_eq!(v.id("vector"), None);
    }

    #[test]
    fn ids_are_dense() {
        let mut v = Vocab::new();
        for (i, w) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(v.intern(w), i as u32);
        }
    }

    #[test]
    fn render_joins_with_spaces() {
        let mut v = Vocab::new();
        let ids = [v.intern("support"), v.intern("vector"), v.intern("machine")];
        assert_eq!(v.render(&ids), "support vector machine");
        assert_eq!(v.render(&[]), "");
    }

    #[test]
    fn from_words_keeps_the_order_and_refuses_repeats() {
        let words = |list: &[&str]| list.iter().map(|w| w.to_string()).collect::<Vec<_>>();
        let v = Vocab::from_words(words(&["x", "y", "z"])).unwrap();
        assert_eq!(v.id("z"), Some(2));
        assert_eq!(v.word(1), "y");
        let mut interned = Vocab::new();
        for w in ["x", "y", "z"] {
            interned.intern(w);
        }
        assert_eq!(v, interned);
        assert_eq!(Vocab::from_words(words(&["x", "y", "x"])), Err((0, 2)));
        assert_eq!(Vocab::from_words(words(&["x", "y", "z", "y"])), Err((1, 3)));
        assert_eq!(Vocab::from_words(Vec::new()), Ok(Vocab::new()));
    }

    #[test]
    fn the_index_grows_and_keeps_every_id() {
        let words: Vec<String> = (0..5000).map(|i| format!("w{i}")).collect();
        let mut interned = Vocab::new();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(interned.intern(w), i as u32);
        }
        let listed = Vocab::from_words(words.clone()).unwrap();
        for (i, w) in words.iter().enumerate() {
            assert_eq!(interned.id(w), Some(i as u32));
            assert_eq!(listed.id(w), Some(i as u32));
            assert_eq!(interned.intern(w), i as u32);
        }
        assert_eq!(interned, listed);
        assert_eq!(interned.id("w5000"), None);
        assert_eq!(listed.id(""), None);
        // The first word listed again is reported with its first listing.
        let mut repeated = words;
        repeated.extend(["w7".to_string(), "w3".to_string()]);
        assert_eq!(Vocab::from_words(repeated), Err((7, 5000)));
    }

    #[test]
    fn iter_in_id_order() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let got: Vec<(u32, &str)> = v.iter().collect();
        assert_eq!(got, vec![(0, "x"), (1, "y")]);
    }
}
