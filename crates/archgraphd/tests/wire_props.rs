//! Never-panic properties for the wire parsers.
//!
//! Every request line a client sends goes through
//! [`protocol::parse_request`], and through it [`Json::parse`], on a
//! handler thread. Whatever the bytes, both must return `Ok` or `Err`:
//! a panic would drop the connection without a structured error, and a
//! stack overflow would abort the whole daemon. Two input families:
//! arbitrary byte strings, and valid request lines with bytes replaced,
//! inserted, deleted and the tail cut off.

use archgraphd::json::Json;
use archgraphd::protocol;
use proptest::collection::vec;
use proptest::prelude::*;

/// Valid request lines covering every op, every spec key and every
/// string escape.
const VALID: [&str; 10] = [
    r#"{"op":"ping"}"#,
    r#"{"op":"status"}"#,
    r#"{"op":"list"}"#,
    r#"{"op":"shutdown"}"#,
    r#"{"op":"cancel","job":"j1"}"#,
    r#"{"op":"cancel","job":"j\u00e9\ud83d\ude00\"\\\/\b\f\n\r\t"}"#,
    r#"{"op":"submit","cells":[{"cell":"fig2/mta/p8"},{"cell":"bfs/smp/p8"}]}"#,
    r#"{"op":"submit","budget_cycles":2000000,"budget_host_ms":500,"cells":[{"kernel":"color","machine":"mta","p":4,"n":2048,"m":6144,"engine":"partitioned","workers":4}]}"#,
    r#"{"op":"submit","cells":[{"kernel":"fig2","machine":"smp","p":2,"n":128,"m":384,"max_cycles":100000,"faults":"mem-latency=30,rate=1:9"}]}"#,
    r#"{"op":"submit","cells":[{"kernel":"bfs","machine":"native","n":64,"m":192}],"x":[1.5e3,-2,true,false,null,"é😀\n"]}"#,
];

/// JSON's own tokens, escapes and fragments of them: strings built from
/// these reach far deeper into the parsers than uniform bytes do.
const TOKENS: [&str; 28] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    ":",
    ",",
    " ",
    "\\",
    "\\u",
    "\\ud83d",
    "\\ude00",
    "\\u00e9",
    "\\n",
    "0",
    "7",
    "-",
    ".",
    "e",
    "1e999",
    "true",
    "fals",
    "null",
    "\"op\"",
    "\"submit\"",
    "\"cells\"",
    "\"kernel\"",
    "é",
];

/// Feed one line to both parsers. Reaching the end is the property: a
/// panic fails the case with its input printed.
fn parse_both(bytes: &[u8]) {
    let line = String::from_utf8_lossy(bytes);
    let _ = Json::parse(&line);
    let _ = protocol::parse_request(&line);
}

/// One edit at a position taken modulo the line length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Replace(usize, u8),
    Insert(usize, u8),
    Delete(usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    (0u8..3, any::<usize>(), any::<u8>()).prop_map(|(kind, at, byte)| match kind {
        0 => Edit::Replace(at, byte),
        1 => Edit::Insert(at, byte),
        _ => Edit::Delete(at),
    })
}

/// Apply `edits` to a copy of `line`, then cut it at `cut` (modulo its
/// length plus one) if given.
fn mutate(line: &str, edits: &[Edit], cut: Option<usize>) -> Vec<u8> {
    let mut b = line.as_bytes().to_vec();
    for &e in edits {
        let len = b.len();
        match e {
            Edit::Replace(at, byte) if len > 0 => b[at % len] = byte,
            Edit::Insert(at, byte) => b.insert(at % (len + 1), byte),
            Edit::Delete(at) if len > 0 => {
                b.remove(at % len);
            }
            _ => {}
        }
    }
    if let Some(at) = cut {
        b.truncate(at % (b.len() + 1));
    }
    b
}

#[test]
fn the_valid_corpus_parses() {
    for line in VALID {
        assert!(Json::parse(line).is_ok(), "{line}");
    }
    // Every line but the last (its extra key is a deliberate reject) is
    // an accepted request, so the mutations start from real requests.
    for line in &VALID[..VALID.len() - 1] {
        assert!(protocol::parse_request(line).is_ok(), "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..200)) {
        parse_both(&bytes);
    }

    #[test]
    fn json_token_strings_never_panic(picks in vec(0..TOKENS.len(), 0..80)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        parse_both(line.as_bytes());
    }

    #[test]
    fn mutated_and_truncated_requests_never_panic(
        which in 0usize..VALID.len(),
        edits in vec(edit(), 0..6),
        cut in (any::<bool>(), any::<usize>()).prop_map(|(c, at)| c.then_some(at)),
    ) {
        parse_both(&mutate(VALID[which], &edits, cut));
    }
}
