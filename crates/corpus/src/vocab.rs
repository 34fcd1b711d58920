//! Interned vocabulary mapping words to dense `u32` ids (paper §2: "we index
//! all the unique words in this corpus using a vocabulary of V words").

use topmine_util::FxHashMap;

/// A bidirectional word ⇄ id table. Ids are dense `0..len` so downstream
/// models can use them directly as array indices (φ is a `K × V` matrix).
#[derive(Debug, Default, Clone)]
pub struct Vocab {
    words: Vec<String>,
    index: FxHashMap<String, u32>,
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
    /// `Err((first, again))`: the id of its first listing and of a later
    /// one. Panics past `u32` ids, like [`Vocab::intern`].
    pub fn from_words(words: Vec<String>) -> Result<Self, (u32, u32)> {
        assert!(
            u32::try_from(words.len()).is_ok(),
            "vocabulary exceeds u32 ids"
        );
        let index: FxHashMap<String, u32> = words.iter().cloned().zip(0..).collect();
        if index.len() < words.len() {
            // A repeated word keeps the id of its last listing.
            let (word, first) = words
                .iter()
                .zip(0..)
                .find(|&(word, id)| index[word] != id)
                .expect("a shorter index means a repeated word");
            return Err((first, index[word]));
        }
        Ok(Self { words, index })
    }

    /// Intern `word`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.index.get(word) {
            return id;
        }
        let id = u32::try_from(self.words.len()).expect("vocabulary exceeds u32 ids");
        self.words.push(word.to_string());
        self.index.insert(word.to_string(), id);
        id
    }

    /// Look up an existing word.
    pub fn id(&self, word: &str) -> Option<u32> {
        self.index.get(word).copied()
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
    fn iter_in_id_order() {
        let mut v = Vocab::new();
        v.intern("x");
        v.intern("y");
        let got: Vec<(u32, &str)> = v.iter().collect();
        assert_eq!(got, vec![(0, "x"), (1, "y")]);
    }
}
