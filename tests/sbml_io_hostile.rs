//! Hostile input never panics the SBML reader: every truncation point and
//! a few thousand seeded byte mutations of real corpus documents go through
//! `parse_sbml` (and the DOM parser) and come back as `Ok` or `Err`. Every
//! document that does parse writes out text that reads back to the same
//! bytes.

use sbmlcompose::corpus::corpus_187;
use sbmlcompose::model::{parse_sbml, write_sbml};

/// Eight small-to-medium Fig. 8 documents (about 1–7 KB each).
fn documents() -> Vec<String> {
    let corpus = corpus_187();
    (1..=8).map(|k| write_sbml(&corpus[3 * k])).collect()
}

/// Parse `text` both ways; a document that parses must round-trip.
fn check(text: &str) {
    let _ = sbmlcompose::xml::parse_document(text);
    if let Ok(model) = parse_sbml(text) {
        let written = write_sbml(&model);
        let again = parse_sbml(&written).expect("written SBML reads back");
        assert_eq!(write_sbml(&again), written, "write is stable for {text:?}");
    }
}

/// SplitMix64: a tiny seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn every_truncation_point_is_rejected_or_parsed() {
    for doc in documents() {
        let complete = doc.trim_end().len();
        for cut in (0..doc.len()).filter(|&i| doc.is_char_boundary(i)) {
            // A prefix that stops inside the root is malformed.
            assert_eq!(parse_sbml(&doc[..cut]).is_ok(), cut >= complete, "prefix of {cut} bytes");
        }
    }
}

#[test]
fn seeded_byte_mutations_never_panic() {
    // Bytes that steer the tokenizer into its edge cases.
    const ALPHABET: &[u8] = b"<>/?!=\"'&;#x[]-: \n\tamp0123456789e.CDATA\xce\xb1";
    for (d, doc) in documents().into_iter().enumerate() {
        let mut rng = Rng(0x5EED_0000 + d as u64);
        for _ in 0..2000 {
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(bytes.len());
                let byte = ALPHABET[rng.below(ALPHABET.len())];
                match rng.below(4) {
                    0 => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 => {
                        bytes.remove(at);
                    }
                    _ => {
                        // Duplicate a short run (repeats tags and attributes).
                        let end = (at + 1 + rng.below(40)).min(bytes.len());
                        let run = bytes[at..end].to_vec();
                        bytes.splice(at..at, run);
                    }
                }
            }
            check(&String::from_utf8_lossy(&bytes));
        }
    }
}
