//! Tokenization with phrase-invariant punctuation chunking (paper §4.1).
//!
//! "Separating each document into smaller segments by splitting on
//! phrase-invariant punctuation (commas, periods, semicolons, etc) allows us
//! to consider constant-size chunks of text at a time" — phrases must never
//! cross such punctuation, and the miner/constructor operate per chunk.

/// Characters that end a chunk: no phrase may span them.
#[inline]
const fn is_chunk_break(c: char) -> bool {
    matches!(
        c,
        '.' | ','
            | ';'
            | ':'
            | '!'
            | '?'
            | '('
            | ')'
            | '['
            | ']'
            | '{'
            | '}'
            | '"'
            | '\u{201c}'
            | '\u{201d}'
            | '\u{2026}'
            | '/'
            | '\\'
            | '|'
            | '\u{2014}'
            | '\u{2013}'
    )
}

/// What an ASCII byte is to the tokenizer.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Part of a token and already lowercase: `a-z`, `0-9`, `'`.
    Lower,
    /// Part of a token once lowercased: `A-Z`.
    Upper,
    /// Ends a token and the chunk ([`is_chunk_break`]).
    Break,
    /// Ends a token only: whitespace, `-`, `_`, `*` and every other symbol.
    Sep,
}

/// [`Class`] of every ASCII byte. Token characters are the alphanumerics
/// and `'`, as `char::is_alphanumeric` decides on the non-ASCII path, and
/// the breaks come from the same [`is_chunk_break`].
const ASCII_CLASS: [Class; 128] = {
    let mut table = [Class::Sep; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8 as char;
        table[b] = if c.is_ascii_uppercase() {
            Class::Upper
        } else if c.is_ascii_alphanumeric() || c == '\'' {
            Class::Lower
        } else if is_chunk_break(c) {
            Class::Break
        } else {
            Class::Sep
        };
        b += 1;
    }
    table
};

/// Walk `text` and call `visit(token, chunk)` for every token, in order.
///
/// * Alphanumeric runs (plus apostrophes, which are preserved so
///   contractions like "don't" match the stop word list) form tokens,
///   lowercased character by character with `char::to_lowercase`; leading
///   and trailing apostrophes are stripped ("'tis", "dogs'").
/// * Hyphens split tokens but do not break chunks ("bag-of-words" becomes
///   three tokens inside one chunk, so it may be mined as a phrase).
/// * Sentence punctuation breaks chunks; `chunk`, the 0-based index of the
///   punctuation-delimited chunk, only advances when the current chunk has
///   a token, so ")." does not create empty chunks.
/// * Any other symbol is treated as a token separator.
///
/// ASCII bytes are classified by table lookup. A token that is already
/// lowercase ASCII is passed as a slice of `text`; any other token is
/// lowercased into `buf`, whose capacity is reused across calls, so
/// tokenizing allocates nothing once `buf` has grown to the longest token.
pub fn for_each_token(text: &str, buf: &mut String, mut visit: impl FnMut(&str, u32)) {
    let bytes = text.as_bytes();
    let mut chunk: u32 = 0;
    let mut chunk_has_tokens = false;
    let mut i = 0;
    while i < bytes.len() {
        // One maximal run of token characters, `text[start..i]`.
        let start = i;
        let mut lower = true;
        while i < bytes.len() {
            let b = bytes[i];
            if b.is_ascii() {
                match ASCII_CLASS[b as usize] {
                    Class::Lower => {}
                    Class::Upper => lower = false,
                    Class::Break | Class::Sep => break,
                }
                i += 1;
            } else {
                let c = next_char(text, i);
                if !c.is_alphanumeric() {
                    break;
                }
                lower = false;
                i += c.len_utf8();
            }
        }
        if i > start {
            let run = &text[start..i];
            let token = if lower {
                run
            } else {
                buf.clear();
                for c in run.chars() {
                    buf.extend(c.to_lowercase());
                }
                buf.as_str()
            };
            let token = token.trim_matches('\'');
            if !token.is_empty() {
                visit(token, chunk);
                chunk_has_tokens = true;
            }
        }
        // `text[i]` (if any) starts a character that ends the run.
        let Some(&b) = bytes.get(i) else { break };
        let (breaks, width) = if b.is_ascii() {
            (ASCII_CLASS[b as usize] == Class::Break, 1)
        } else {
            let c = next_char(text, i);
            (is_chunk_break(c), c.len_utf8())
        };
        if breaks && chunk_has_tokens {
            chunk += 1;
            chunk_has_tokens = false;
        }
        i += width;
    }
}

/// The character starting at byte `i` of `text`, a char boundary.
#[inline]
fn next_char(text: &str, i: usize) -> char {
    text[i..]
        .chars()
        .next()
        .expect("i is a char boundary inside text")
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn toks(text: &str) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        for_each_token(text, &mut String::new(), |t, chunk| {
            out.push((t.to_string(), chunk))
        });
        out
    }

    #[test]
    fn simple_sentence() {
        assert_eq!(
            toks("Mining frequent patterns"),
            vec![
                ("mining".into(), 0),
                ("frequent".into(), 0),
                ("patterns".into(), 0)
            ]
        );
    }

    #[test]
    fn punctuation_breaks_chunks() {
        // Title 1 from Example 1 of the paper.
        let t = toks("Mining frequent patterns without candidate generation: a frequent pattern tree approach.");
        let chunk0: Vec<&str> = t
            .iter()
            .filter(|(_, c)| *c == 0)
            .map(|(w, _)| w.as_str())
            .collect();
        let chunk1: Vec<&str> = t
            .iter()
            .filter(|(_, c)| *c == 1)
            .map(|(w, _)| w.as_str())
            .collect();
        assert_eq!(
            chunk0,
            vec![
                "mining",
                "frequent",
                "patterns",
                "without",
                "candidate",
                "generation"
            ]
        );
        assert_eq!(chunk1, vec!["a", "frequent", "pattern", "tree", "approach"]);
    }

    #[test]
    fn hyphens_split_tokens_not_chunks() {
        assert_eq!(
            toks("bag-of-words model"),
            vec![
                ("bag".into(), 0),
                ("of".into(), 0),
                ("words".into(), 0),
                ("model".into(), 0)
            ]
        );
    }

    #[test]
    fn apostrophes_kept_inside() {
        assert_eq!(
            toks("don't stop"),
            vec![("don't".into(), 0), ("stop".into(), 0)]
        );
        assert_eq!(
            toks("dogs' toys"),
            vec![("dogs".into(), 0), ("toys".into(), 0)]
        );
    }

    #[test]
    fn no_empty_chunks_from_adjacent_punctuation() {
        let t = toks("end). (start");
        assert_eq!(t, vec![("end".into(), 0), ("start".into(), 1)]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(
            toks("top 10 lists"),
            vec![("top".into(), 0), ("10".into(), 0), ("lists".into(), 0)]
        );
    }

    #[test]
    fn empty_and_symbol_only_input() {
        assert!(toks("").is_empty());
        assert!(toks("... !!! ---").is_empty());
    }

    #[test]
    fn unicode_case_folding() {
        let t = toks("Café SÃO");
        assert_eq!(t[0].0, "café");
        assert_eq!(t[1].0, "são");
        // Per character (`char::to_lowercase`, not `str::to_lowercase`): a
        // word-final capital sigma folds to σ, not ς, and one character
        // may lowercase to two ('İ' → "i̇").
        assert_eq!(toks("ΟΔΟΣ İstanbul")[0].0, "οδοσ");
        assert_eq!(toks("ΟΔΟΣ İstanbul")[1].0, "i\u{307}stanbul");
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::for_each_token;
    use super::tests::toks;

    fn words(text: &str) -> Vec<String> {
        toks(text).into_iter().map(|(w, _)| w).collect()
    }

    #[test]
    fn multibyte_punctuation_and_emoji_are_separators() {
        assert_eq!(
            words("great food 👍 nice place…really"),
            vec!["great", "food", "nice", "place", "really"]
        );
    }

    #[test]
    fn ellipsis_breaks_chunks() {
        let t = toks("first part… second part");
        assert_eq!(t[1].1, 0);
        assert_eq!(t[2].1, 1);
    }

    #[test]
    fn long_mixed_garbage_does_not_panic() {
        let input: String = (0u32..3000)
            .map(|i| char::from_u32(i % 0x500 + 32).unwrap_or(' '))
            .collect();
        let _ = toks(&input);
    }

    #[test]
    fn apostrophe_only_tokens_vanish() {
        assert!(toks("'' ' ''' ").is_empty());
    }

    #[test]
    fn lowercase_ascii_tokens_borrow_the_text() {
        let text = "data mining, Query";
        let mut borrowed = Vec::new();
        for_each_token(text, &mut String::new(), |t, _| {
            borrowed.push(text.as_bytes().as_ptr_range().contains(&t.as_ptr()));
        });
        assert_eq!(borrowed, vec![true, true, false]);
    }
}
