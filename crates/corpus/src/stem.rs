//! The Porter stemming algorithm (Porter 1980), paper reference \[24\].
//!
//! The paper stems all tokens "to address the various forms of words (e.g.
//! cooking, cook, cooked) and phrase sparsity". This is a from-scratch
//! implementation of the original five-step algorithm over ASCII lowercase
//! words; non-ASCII input is returned unchanged.
//!
//! Terminology follows the paper: a word is a sequence of consonants (C) and
//! vowels (V); the *measure* m counts VC transitions in `[C](VC)^m[V]`.

/// Stem `word`, returning the stemmed form as a `String`.
///
/// The input is expected to be lowercase; uppercase letters are treated as
/// consonants-by-default which matches how the builder always lowercases
/// before stemming. Words shorter than 3 characters are returned unchanged
/// (standard Porter behaviour).
pub fn porter_stem(word: &str) -> String {
    porter_stem_in(word, &mut Vec::new()).to_string()
}

/// Stem `word` into `buf`, reusing its capacity. Returns `word` itself when
/// the stemmer leaves it whole (non-ASCII, at most 2 bytes, or not purely
/// lowercase letters) and the stem written to `buf` otherwise.
pub(crate) fn porter_stem_in<'a>(word: &'a str, buf: &'a mut Vec<u8>) -> &'a str {
    // Mixed alphanumerics ("3d", "mp3") are identifiers, not English
    // inflections; leave them alone, like short and non-ASCII words.
    if word.len() <= 2 || !word.bytes().all(|c| c.is_ascii_lowercase()) {
        return word;
    }
    buf.clear();
    buf.extend_from_slice(word.as_bytes());
    step1a(buf);
    step1b(buf);
    step1c(buf);
    step2(buf);
    step3(buf);
    step4(buf);
    step5a(buf);
    step5b(buf);
    std::str::from_utf8(buf).expect("porter stemmer only produces ASCII")
}

/// Is `b[i]` a consonant in the word `b`?
fn is_consonant(b: &[u8], i: usize) -> bool {
    match b[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => {
            if i == 0 {
                true
            } else {
                // 'y' is a vowel iff preceded by a consonant.
                !is_consonant(b, i - 1)
            }
        }
        _ => true,
    }
}

/// The measure m of `b[..len]`: the number of VC sequences.
fn measure(b: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_consonant(b, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_consonant(b, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
        m += 1;
        // Skip consonants.
        while i < len && is_consonant(b, i) {
            i += 1;
        }
        if i >= len {
            return m;
        }
    }
}

/// Does `b[..len]` contain a vowel?
fn has_vowel(b: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_consonant(b, i))
}

/// Does `b[..len]` end with a double consonant?
fn ends_double_consonant(b: &[u8], len: usize) -> bool {
    len >= 2 && b[len - 1] == b[len - 2] && is_consonant(b, len - 1)
}

/// Does `b[..len]` end consonant-vowel-consonant, where the final consonant
/// is not w, x, or y? (The *o condition.)
fn ends_cvc(b: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    let c = b[len - 1];
    is_consonant(b, len - 3)
        && !is_consonant(b, len - 2)
        && is_consonant(b, len - 1)
        && c != b'w'
        && c != b'x'
        && c != b'y'
}

fn ends_with(b: &[u8], suffix: &[u8]) -> bool {
    b.len() >= suffix.len() && &b[b.len() - suffix.len()..] == suffix
}

/// If `b` ends with `suffix`, return the stem length (before the suffix).
fn stem_len(b: &[u8], suffix: &[u8]) -> Option<usize> {
    if ends_with(b, suffix) {
        Some(b.len() - suffix.len())
    } else {
        None
    }
}

/// Replace suffix (already verified) with `to`.
fn set_suffix(b: &mut Vec<u8>, stem: usize, to: &[u8]) {
    b.truncate(stem);
    b.extend_from_slice(to);
}

fn step1a(b: &mut Vec<u8>) {
    if ends_with(b, b"sses") {
        b.truncate(b.len() - 2); // sses -> ss
    } else if ends_with(b, b"ies") {
        b.truncate(b.len() - 2); // ies -> i
    } else if ends_with(b, b"ss") {
        // ss -> ss
    } else if ends_with(b, b"s") {
        b.truncate(b.len() - 1); // s ->
    }
}

fn step1b(b: &mut Vec<u8>) {
    if let Some(stem) = stem_len(b, b"eed") {
        if measure(b, stem) > 0 {
            b.truncate(b.len() - 1); // eed -> ee
        }
        return;
    }
    let matched = if let Some(stem) = stem_len(b, b"ed") {
        if has_vowel(b, stem) {
            b.truncate(stem);
            true
        } else {
            false
        }
    } else if let Some(stem) = stem_len(b, b"ing") {
        if has_vowel(b, stem) {
            b.truncate(stem);
            true
        } else {
            false
        }
    } else {
        false
    };
    if matched {
        // Cleanup pass: AT -> ATE, BL -> BLE, IZ -> IZE, undouble, or +E on cvc.
        if ends_with(b, b"at") || ends_with(b, b"bl") || ends_with(b, b"iz") {
            b.push(b'e');
        } else if ends_double_consonant(b, b.len()) {
            let last = *b.last().expect("non-empty after double-consonant check");
            if last != b'l' && last != b's' && last != b'z' {
                b.truncate(b.len() - 1);
            }
        } else if measure(b, b.len()) == 1 && ends_cvc(b, b.len()) {
            b.push(b'e');
        }
    }
}

fn step1c(b: &mut [u8]) {
    if let Some(stem) = stem_len(b, b"y") {
        if has_vowel(b, stem) {
            let n = b.len();
            b[n - 1] = b'i';
        }
    }
}

/// (m > 0) suffix rewrites of step 2. Order within each final-letter group
/// follows the original paper; longest match wins because the table is
/// scanned in order and suffixes within a group do not prefix one another.
const STEP2: &[(&[u8], &[u8])] = &[
    (b"ational", b"ate"),
    (b"tional", b"tion"),
    (b"enci", b"ence"),
    (b"anci", b"ance"),
    (b"izer", b"ize"),
    (b"abli", b"able"),
    (b"alli", b"al"),
    (b"entli", b"ent"),
    (b"eli", b"e"),
    (b"ousli", b"ous"),
    (b"ization", b"ize"),
    (b"ation", b"ate"),
    (b"ator", b"ate"),
    (b"alism", b"al"),
    (b"iveness", b"ive"),
    (b"fulness", b"ful"),
    (b"ousness", b"ous"),
    (b"aliti", b"al"),
    (b"iviti", b"ive"),
    (b"biliti", b"ble"),
    // From the official distributed implementation (a departure from the
    // 1980 paper): homologi -> homolog.
    (b"logi", b"log"),
];

fn step2(b: &mut Vec<u8>) {
    for (suffix, to) in STEP2 {
        if let Some(stem) = stem_len(b, suffix) {
            if measure(b, stem) > 0 {
                set_suffix(b, stem, to);
            }
            return;
        }
    }
}

const STEP3: &[(&[u8], &[u8])] = &[
    (b"icate", b"ic"),
    (b"ative", b""),
    (b"alize", b"al"),
    (b"iciti", b"ic"),
    (b"ical", b"ic"),
    (b"ful", b""),
    (b"ness", b""),
];

fn step3(b: &mut Vec<u8>) {
    for (suffix, to) in STEP3 {
        if let Some(stem) = stem_len(b, suffix) {
            if measure(b, stem) > 0 {
                set_suffix(b, stem, to);
            }
            return;
        }
    }
}

/// (m > 1) deletions of step 4; `ion` additionally requires stem ending s/t.
const STEP4: &[&[u8]] = &[
    b"al", b"ance", b"ence", b"er", b"ic", b"able", b"ible", b"ant", b"ement", b"ment", b"ent",
    b"ion", b"ou", b"ism", b"ate", b"iti", b"ous", b"ive", b"ize",
];

fn step4(b: &mut Vec<u8>) {
    for suffix in STEP4 {
        if let Some(stem) = stem_len(b, suffix) {
            if *suffix == b"ion" && !(stem > 0 && (b[stem - 1] == b's' || b[stem - 1] == b't')) {
                // "ion" only strips after s or t; but a failed condition still
                // consumes the longest match (per the original algorithm).
                return;
            }
            if measure(b, stem) > 1 {
                b.truncate(stem);
            }
            return;
        }
    }
}

fn step5a(b: &mut Vec<u8>) {
    if let Some(stem) = stem_len(b, b"e") {
        let m = measure(b, stem);
        if m > 1 || (m == 1 && !ends_cvc(b, stem)) {
            b.truncate(stem);
        }
    }
}

fn step5b(b: &mut Vec<u8>) {
    let n = b.len();
    if n >= 2 && b[n - 1] == b'l' && ends_double_consonant(b, n) && measure(b, n) > 1 {
        b.truncate(n - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(pairs: &[(&str, &str)]) {
        for (input, expected) in pairs {
            assert_eq!(&porter_stem(input), expected, "stem({input})");
        }
    }

    #[test]
    fn step1a_vectors() {
        check(&[
            ("caresses", "caress"),
            ("ponies", "poni"),
            ("ties", "ti"),
            ("caress", "caress"),
            ("cats", "cat"),
        ]);
    }

    #[test]
    fn step1b_vectors() {
        check(&[
            ("feed", "feed"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("bled", "bled"),
            ("motoring", "motor"),
            ("sing", "sing"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("sized", "size"),
            ("hopping", "hop"),
            ("tanned", "tan"),
            ("falling", "fall"),
            ("hissing", "hiss"),
            ("fizzed", "fizz"),
            ("failing", "fail"),
            ("filing", "file"),
        ]);
    }

    #[test]
    fn step1c_vectors() {
        check(&[("happy", "happi"), ("sky", "sky")]);
    }

    #[test]
    fn step2_vectors() {
        check(&[
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("hesitanci", "hesit"),
            ("digitizer", "digit"),
            ("radicalli", "radic"),
            // Per-step the paper shows entli -> ent; the full algorithm then
            // strips "ent" in step 4 (m("differ") > 1).
            ("differentli", "differ"),
            ("vileli", "vile"),
            ("analogousli", "analog"),
            ("vietnamization", "vietnam"),
            ("predication", "predic"),
            ("operator", "oper"),
            ("feudalism", "feudal"),
            ("decisiveness", "decis"),
            ("hopefulness", "hope"),
            ("callousness", "callous"),
            ("formaliti", "formal"),
            ("sensitiviti", "sensit"),
            ("sensibiliti", "sensibl"),
        ]);
    }

    #[test]
    fn step3_vectors() {
        check(&[
            ("triplicate", "triplic"),
            ("formative", "form"),
            ("formalize", "formal"),
            // Step 3 gives "electric"; step 4 then strips the "ic".
            ("electriciti", "electr"),
            ("electrical", "electr"),
            ("hopeful", "hope"),
            ("goodness", "good"),
        ]);
    }

    #[test]
    fn step4_vectors() {
        check(&[
            ("revival", "reviv"),
            ("allowance", "allow"),
            ("inference", "infer"),
            ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"),
            ("adjustable", "adjust"),
            ("defensible", "defens"),
            ("irritant", "irrit"),
            ("replacement", "replac"),
            ("adjustment", "adjust"),
            ("dependent", "depend"),
            ("adoption", "adopt"),
            ("communism", "commun"),
            ("activate", "activ"),
            ("angulariti", "angular"),
            ("homologi", "homolog"),
            ("effective", "effect"),
            ("bowdlerize", "bowdler"),
        ]);
    }

    #[test]
    fn step5_vectors() {
        check(&[
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controll", "control"),
            ("roll", "roll"),
        ]);
    }

    #[test]
    fn paper_motivating_example() {
        // "cooking, cook, cooked" from §7.1 all collapse to one stem.
        assert_eq!(porter_stem("cooking"), "cook");
        assert_eq!(porter_stem("cooked"), "cook");
        assert_eq!(porter_stem("cook"), "cook");
    }

    #[test]
    fn domain_terms_conflate() {
        assert_eq!(porter_stem("mining"), "mine");
        assert_eq!(porter_stem("mined"), "mine");
        assert_eq!(porter_stem("patterns"), porter_stem("pattern"));
        assert_eq!(porter_stem("databases"), porter_stem("database"));
        assert_eq!(porter_stem("queries"), "queri");
    }

    #[test]
    fn short_and_non_alpha_words_unchanged() {
        assert_eq!(porter_stem("a"), "a");
        assert_eq!(porter_stem("is"), "is");
        assert_eq!(porter_stem("mp3"), "mp3");
        assert_eq!(porter_stem("naïve"), "naïve");
        assert_eq!(porter_stem(""), "");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in [
            "running",
            "classification",
            "retrieval",
            "generation",
            "support",
            "machines",
            "learning",
            "collaborative",
            "filtering",
            "answering",
        ] {
            let once = porter_stem(w);
            let twice = porter_stem(&once);
            // Porter is not idempotent in general, but must be stable for our
            // pipeline vocabulary (stems are interned once).
            assert!(!once.is_empty());
            let thrice = porter_stem(&twice);
            assert_eq!(twice, thrice, "unstable stem for {w}");
        }
    }
}
